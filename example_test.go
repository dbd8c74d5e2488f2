package dccs_test

import (
	"context"
	"fmt"

	dccs "repro"
	"repro/internal/datasets"
)

// ExampleSearch runs the paper's Fig 1 worked example: a 4-layer graph
// whose top-2 diversified 3-CCs on 2 layers cover 13 of 15 vertices.
func ExampleSearch() {
	g, _ := datasets.FourLayerExample()
	res, err := dccs.Search(g, dccs.Options{D: 3, S: 2, K: 2})
	if err != nil {
		panic(err)
	}
	fmt.Println("cover:", res.CoverSize)
	for _, c := range res.Cores {
		fmt.Println(c.Layers, len(c.Vertices))
	}
	// Output:
	// cover: 13
	// [0 2] 11
	// [1 3] 12
}

// ExampleCoherentCore computes a single d-coherent core directly.
func ExampleCoherentCore() {
	b := dccs.NewBuilder(4, 2)
	for _, layer := range []int{0, 1} {
		b.MustAddEdge(layer, 0, 1)
		b.MustAddEdge(layer, 1, 2)
		b.MustAddEdge(layer, 0, 2)
	}
	b.MustAddEdge(0, 2, 3) // pendant, only on layer 0
	core, err := dccs.CoherentCore(b.Build(), []int{0, 1}, 2)
	if err != nil {
		panic(err)
	}
	fmt.Println(core)
	// Output:
	// [0 1 2]
}

// ExampleEngine_Watch tracks a coherent core while edges stream in.
func ExampleEngine_Watch() {
	ctx := context.Background()
	eng, err := dccs.NewMutableEngine(dccs.NewBuilder(4, 1).Build(), dccs.EngineConfig{})
	if err != nil {
		panic(err)
	}
	w, err := eng.Watch(ctx, []int{0}, 2)
	if err != nil {
		panic(err)
	}
	defer w.Close()
	for _, step := range []struct {
		name  string
		batch []dccs.EdgeUpdate
	}{
		{"path", []dccs.EdgeUpdate{{Op: dccs.EdgeInsert, U: 0, V: 1}, {Op: dccs.EdgeInsert, U: 1, V: 2}}},
		{"triangle", []dccs.EdgeUpdate{{Op: dccs.EdgeInsert, U: 0, V: 2}}},
		{"broken", []dccs.EdgeUpdate{{Op: dccs.EdgeDelete, U: 0, V: 1}}},
	} {
		if _, err := eng.ApplyUpdates(ctx, step.batch); err != nil {
			panic(err)
		}
		fmt.Printf("%s: %d\n", step.name, len(w.Core()))
	}
	// Output:
	// path: 0
	// triangle: 3
	// broken: 0
}

// ExampleValidate checks a result's structural integrity.
func ExampleValidate() {
	g, _ := datasets.FourLayerExample()
	opts := dccs.Options{D: 3, S: 2, K: 2}
	res, _ := dccs.BottomUp(g, opts)
	fmt.Println(dccs.Validate(g, opts, res))
	// Output:
	// <nil>
}
