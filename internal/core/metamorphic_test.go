package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/multilayer"
	"repro/internal/testutil"
)

// pad returns g with the given number of isolated vertices and empty
// layers appended; every original vertex and layer keeps its index.
func pad(g *multilayer.Graph, vertices, layers int) *multilayer.Graph {
	b := multilayer.NewBuilder(g.N()+vertices, g.L()+layers)
	for layer := 0; layer < g.L(); layer++ {
		for v := 0; v < g.N(); v++ {
			for _, u := range g.Neighbors(layer, v) {
				if int(u) > v {
					b.MustAddEdge(layer, v, int(u))
				}
			}
		}
	}
	return b.Build()
}

// TestMetamorphicPadding pins two metamorphic relations over random
// graphs, every d in 1..3, every s, k in {1, 3} and vertex deletion on
// and off:
//
//   - appending isolated vertices changes no core, no cover and no Stats
//     counter of BU, TD, GD or Exact except PreprocessRemoved, which
//     rises by their count under vertex deletion and stays the same
//     without it;
//   - appending an empty layer leaves Exact's cores and cover and GD's
//     cover unchanged.
//
// Nothing more holds under an empty layer: GD can then pick a zero-gain
// core on a different layer set, and TD's cores can differ too, with
// equal covers.
func TestMetamorphicPadding(t *testing.T) {
	const isolated = 3
	ctx := context.Background()
	algos := []struct {
		name string
		run  func(*Prepared, context.Context, Options) (*Result, error)
	}{
		{"bu", (*Prepared).BottomUp},
		{"td", (*Prepared).TopDown},
		{"gd", (*Prepared).Greedy},
		{"exact", (*Prepared).Exact},
	}
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := testutil.RandomCorrelatedGraph(rng, 8+rng.Intn(15), 2+rng.Intn(3), 0.35, 0.85, 0.08)
		base := NewPrepared(g, 1)
		wide := NewPrepared(pad(g, isolated, 0), 1)
		tall := NewPrepared(pad(g, 0, 1), 1)
		for d := 1; d <= 3; d++ {
			for s := 1; s <= g.L(); s++ {
				for _, k := range []int{1, 3} {
					for _, noVD := range []bool{false, true} {
						o := Options{D: d, S: s, K: k, Seed: seed, NoVertexDeletion: noVD}
						for _, a := range algos {
							want, err := a.run(base, ctx, o)
							if err != nil {
								t.Fatal(err)
							}
							got, err := a.run(wide, ctx, o)
							if err != nil {
								t.Fatal(err)
							}
							wantRemoved := want.Stats.PreprocessRemoved
							if !noVD {
								wantRemoved += isolated
							}
							if got.Stats.PreprocessRemoved != wantRemoved {
								t.Fatalf("seed %d %s %+v: PreprocessRemoved %d, want %d", seed, a.name, o, got.Stats.PreprocessRemoved, wantRemoved)
							}
							gs, ws := got.Stats, want.Stats
							gs.Elapsed, ws.Elapsed = 0, 0
							gs.PreprocessRemoved = ws.PreprocessRemoved
							if gs != ws {
								t.Fatalf("seed %d %s %+v: isolated vertices changed Stats:\npadded %+v\nbase   %+v", seed, a.name, o, gs, ws)
							}
							if got.CoverSize != want.CoverSize || !reflect.DeepEqual(got.Cores, want.Cores) {
								t.Fatalf("seed %d %s %+v: isolated vertices changed the result", seed, a.name, o)
							}

							if a.name != "exact" && a.name != "gd" {
								continue
							}
							got, err = a.run(tall, ctx, o)
							if err != nil {
								t.Fatal(err)
							}
							if got.CoverSize != want.CoverSize || (a.name == "exact" && !reflect.DeepEqual(got.Cores, want.Cores)) {
								t.Fatalf("seed %d %s %+v: an empty layer changed the result: cover %d, want %d", seed, a.name, o, got.CoverSize, want.CoverSize)
							}
						}
					}
				}
			}
		}
	}
}
