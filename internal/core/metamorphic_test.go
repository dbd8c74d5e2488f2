package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/bitset"
	"repro/internal/kcore"
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

// permuteLayers returns g with its layers reordered: layer perm[i] of
// the result is layer i of g.
func permuteLayers(g *multilayer.Graph, perm []int) *multilayer.Graph {
	b := multilayer.NewBuilder(g.N(), g.L())
	for layer := 0; layer < g.L(); layer++ {
		for v := 0; v < g.N(); v++ {
			for _, u := range g.Neighbors(layer, v) {
				if int(u) > v {
					b.MustAddEdge(perm[layer], v, int(u))
				}
			}
		}
	}
	return b.Build()
}

// TestMetamorphicPadding pins three metamorphic relations over random
// graphs, every d in 1..3, every s, k in {1, 3} and vertex deletion on
// and off:
//
//   - appending isolated vertices changes no core, no cover and no Stats
//     counter of BU, TD, GD or Exact except PreprocessRemoved, which
//     rises by their count under vertex deletion and stays the same
//     without it;
//   - appending an empty layer leaves Exact's cores and cover and GD's
//     cover unchanged;
//   - permuting the layers (three random permutations π per graph)
//     keeps every bound against Exact: Exact's cover on π(G) equals its
//     cover opt on G, BU and TD cover at least opt/4 and GD at least
//     (1 − 1/e)·opt, every result passes ValidateResult on π(G), and each
//     core's layers, mapped back through π⁻¹, have the core's vertices
//     as their d-CC on G.
//
// Nothing more holds under an empty layer: GD can then pick a zero-gain
// core on a different layer set, and TD's cores can differ too, with
// equal covers. Nor under a permutation: ties between layer sets break
// by layer index, so the cores themselves may differ.
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
		perms := make([][]int, 3)
		permuted := make([]*Prepared, len(perms))
		for i := range perms {
			perms[i] = rng.Perm(g.L())
			permuted[i] = NewPrepared(permuteLayers(g, perms[i]), 1)
		}
		for d := 1; d <= 3; d++ {
			for s := 1; s <= g.L(); s++ {
				for _, k := range []int{1, 3} {
					for _, noVD := range []bool{false, true} {
						o := Options{D: d, S: s, K: k, Seed: seed, NoVertexDeletion: noVD}
						exact, err := base.Exact(ctx, o)
						if err != nil {
							t.Fatal(err)
						}
						opt := exact.CoverSize
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
							for i, perm := range perms {
								checkPermuted(t, a.name, a.run, permuted[i], perm, g, o, opt)
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

// checkPermuted runs one algorithm on the layer-permuted graph pg =
// π(g) and checks the permutation relation of TestMetamorphicPadding
// against opt, Exact's cover on g.
func checkPermuted(t *testing.T, name string, run func(*Prepared, context.Context, Options) (*Result, error), pg *Prepared, perm []int, g *multilayer.Graph, o Options, opt int) {
	t.Helper()
	res, err := run(pg, context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	switch cover := float64(res.CoverSize); {
	case name == "exact" && res.CoverSize != opt,
		(name == "bu" || name == "td") && 4*cover < float64(opt),
		name == "gd" && cover < (1-1/math.E)*float64(opt):
		t.Fatalf("%s %+v under layer permutation %v: cover %d against opt %d", name, o, perm, res.CoverSize, opt)
	}
	if err := ValidateResult(pg.Graph(), o, res); err != nil {
		t.Fatalf("%s %+v under layer permutation %v: %v", name, o, perm, err)
	}
	inv := make([]int, len(perm))
	for i, p := range perm {
		inv[p] = i
	}
	for _, c := range res.Cores {
		layers := make([]int, len(c.Layers))
		for j, layer := range c.Layers {
			layers[j] = inv[layer]
		}
		if want := kcore.DCC(g, bitset.NewFull(g.N()), layers, o.D).Slice32(); !slices.Equal(c.Vertices, want) {
			t.Fatalf("%s %+v under layer permutation %v: core on %v is %v, the d-CC of %v on G is %v", name, o, perm, c.Layers, c.Vertices, layers, want)
		}
	}
}
