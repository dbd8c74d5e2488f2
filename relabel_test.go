package dccs

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/datasets"
)

// TestRelabelingInvariance pins the metamorphic property the repository
// benchmark's inputs rely on: relabeling a graph's vertices changes the
// bytes a search reads but not the search. On a planted serve-shaped
// graph (the benchmark's generator configuration at n = 4,000) and six
// random relabelings of it, bottom-up, top-down and greedy at
// d ∈ {2, 3, 4} and s ∈ {2, 3, 5, 8} must report equal Stats (Elapsed
// aside) and CoverSize, and return cores whose vertices map onto each
// other through the relabeling.
func TestRelabelingInvariance(t *testing.T) {
	const n, relabelings = 4000, 6
	base := datasets.Generate(datasets.Config{
		Name: "serve", N: n, Layers: 10, Seed: 1,
		AvgDegree: 2.2, Gamma: 2.3, Correlation: 0.5,
		Communities: n / 500, MinSize: 12, MaxSize: 30,
		MinSupport: 3, MaxSupport: 6, PIn: 0.6,
		Persistent: 4, CrossLayerNoise: 0.05,
	}).Graph
	var queries []Query
	for _, algo := range []Algorithm{AlgoBottomUp, AlgoTopDown, AlgoGreedy} {
		for _, d := range []int{2, 3, 4} {
			for _, s := range []int{2, 3, 5, 8} {
				queries = append(queries, Query{D: d, S: s, K: 10, Seed: 1, Algorithm: algo})
			}
		}
	}
	answers := func(g *Graph) []*Result {
		eng, err := NewEngine(g, EngineConfig{})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]*Result, len(queries))
		for i, q := range queries {
			if out[i], err = eng.Search(context.Background(), q); err != nil {
				t.Fatal(err)
			}
			out[i].Stats.Elapsed = 0
		}
		return out
	}
	want := answers(base)
	nonEmpty := 0
	for _, res := range want {
		if res.CoverSize > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < len(queries)/2 {
		t.Fatalf("only %d of %d answers cover a vertex; the check proves little", nonEmpty, len(queries))
	}
	for r := 1; r <= relabelings; r++ {
		label := rand.New(rand.NewSource(int64(r))).Perm(n)
		got := answers(relabel(base, label))
		for i, q := range queries {
			w, g := want[i], got[i]
			if w.Stats != g.Stats || w.CoverSize != g.CoverSize || len(w.Cores) != len(g.Cores) {
				t.Fatalf("relabeling %d %+v: cover %d, %d cores, stats %+v; want cover %d, %d cores, stats %+v",
					r, q, g.CoverSize, len(g.Cores), g.Stats, w.CoverSize, len(w.Cores), w.Stats)
			}
			for c := range w.Cores {
				mapped := make([]int32, len(w.Cores[c].Vertices))
				for j, v := range w.Cores[c].Vertices {
					mapped[j] = int32(label[v])
				}
				slices.Sort(mapped)
				if !reflect.DeepEqual(g.Cores[c].Layers, w.Cores[c].Layers) || !slices.Equal(g.Cores[c].Vertices, mapped) {
					t.Fatalf("relabeling %d %+v: core %d does not map onto the original's", r, q, c)
				}
			}
		}
	}
}

// relabel returns g with vertex v renamed label[v].
func relabel(g *Graph, label []int) *Graph {
	b := NewBuilder(g.N(), g.L())
	for layer := 0; layer < g.L(); layer++ {
		for u := 0; u < g.N(); u++ {
			for _, v := range g.Neighbors(layer, u) {
				if int(v) > u {
					b.MustAddEdge(layer, label[u], label[v])
				}
			}
		}
	}
	return b.Build()
}
