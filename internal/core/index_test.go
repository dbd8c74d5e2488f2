package core

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitset"
	"repro/internal/kcore"
	"repro/internal/multilayer"
	"repro/internal/testutil"
)

// TestHierarchyMatchesFixpoints checks the removal hierarchies of random
// small graphs, for every d up to max coreness + 1, against their
// fixpoint definitions computed by brute force (fixpointHierarchy): both
// a single-threshold build and the one the all-threshold pass installs
// must match it array by array. The definitions name no removal order, so a match
// shows that h and coreh do not depend on the batch loop's.
func TestHierarchyMatchesFixpoints(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := testutil.RandomCorrelatedGraph(rng, 8+rng.Intn(30), 1+rng.Intn(5), 0.3, 0.85, 0.08)
		all := NewPrepared(g, 2)
		if err := all.PrepareAll(ctx); err != nil {
			t.Fatal(err)
		}
		coreness := all.layerCoreness()
		for d := 1; d <= all.maxCoreness+1; d++ {
			want := fixpointHierarchy(g, d)
			for _, got := range []struct {
				name string
				hr   *hierarchy
			}{
				{"per-d build", buildOne(g, d, coreness)},
				{"all-threshold pass", all.hierarchyFor(ctx, d)},
			} {
				if !slices.Equal(got.hr.h, want.h) {
					t.Fatalf("seed %d d=%d %s: h %v, want %v", seed, d, got.name, got.hr.h, want.h)
				}
				for i := range want.coreh {
					if !slices.Equal(got.hr.coreh[i], want.coreh[i]) {
						t.Fatalf("seed %d d=%d %s: coreh[%d] %v, want %v", seed, d, got.name, i, got.hr.coreh[i], want.coreh[i])
					}
				}
			}
		}
	}
}

// fixpointHierarchy computes the removal hierarchy of g for threshold d
// from its definitions, recomputing every d-core from scratch:
//
//   - surv(t) is the largest vertex set in which every vertex lies in the
//     d-cores of at least t layers of G[surv(t)]. Deleting every vertex
//     below t and repeating until none is reaches it from V, since a
//     d-core only shrinks with the vertex set;
//   - h(v) = max{t : v ∈ surv(t)}, for t from 0 to l;
//   - coreh_i(v) = max{t : v ∈ d-core_i(G[surv(t)])}, and 0 when v lies in
//     no such core.
func fixpointHierarchy(g *multilayer.Graph, d int) *hierarchy {
	n, l := g.N(), g.L()
	hr := &hierarchy{h: make([]int32, n), coreh: make([][]int32, l)}
	for i := range hr.coreh {
		hr.coreh[i] = make([]int32, n)
	}
	cores := make([]*bitset.Set, l)
	for t := 0; t <= l; t++ {
		surv := bitset.NewFull(n)
		for {
			for i := range cores {
				cores[i] = kcore.Core(g, i, surv, d)
			}
			dropped := false
			for _, v := range surv.Slice() {
				support := 0
				for _, core := range cores {
					if core.Contains(v) {
						support++
					}
				}
				if support < t {
					surv.Remove(v)
					dropped = true
				}
			}
			if !dropped {
				break
			}
		}
		// t ascends, so the last threshold to claim a vertex is its max.
		surv.ForEach(func(v int) bool {
			hr.h[v] = int32(t)
			return true
		})
		for i, core := range cores {
			core.ForEach(func(v int) bool {
				hr.coreh[i][v] = int32(t)
				return true
			})
		}
	}
	return hr
}
