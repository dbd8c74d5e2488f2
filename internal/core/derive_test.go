package core

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/live"
	"repro/internal/testutil"
)

// applyRandom pushes a deterministic insert/delete stream through a live
// store and returns the merged dirty set of the whole stream (union of
// dirty layers and touched vertices, max of the per-batch degree bounds).
func applyRandom(t *testing.T, st *live.Store, rng *rand.Rand, steps int) live.BatchResult {
	t.Helper()
	ups := make([]live.Update, 0, steps)
	for len(ups) < steps {
		u, v := rng.Intn(st.N()), rng.Intn(st.N())
		if u == v {
			continue
		}
		op := live.OpInsert
		if rng.Intn(3) == 0 {
			op = live.OpDelete
		}
		ups = append(ups, live.Update{Op: op, Layer: rng.Intn(st.L()), U: u, V: v})
	}
	if err := st.Validate(ups); err != nil {
		t.Fatal(err)
	}
	return st.Apply(context.Background(), ups)
}

// TestDeriveMatchesFreshBuild is the core-layer equivalence property:
// a Prepared derived incrementally from a mutated graph must answer
// every query — results and Stats modulo wall clock — exactly like a
// Prepared built from scratch over the same graph.
func TestDeriveMatchesFreshBuild(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := testutil.RandomCorrelatedGraph(rng, 70, 5, 0.25, 0.85, 0.05)
		pr := NewPrepared(g, 1)

		// Warm a spread of thresholds so Derive has artifacts to judge.
		for _, d := range []int{2, 3, 4} {
			if _, err := pr.BottomUp(context.Background(), Options{D: d, S: 2, K: 3, Seed: seed}); err != nil {
				t.Fatal(err)
			}
		}

		st := live.NewStore(g)
		res := applyRandom(t, st, rng, 40)
		g2 := st.Freeze()
		derived, info := pr.Derive(g2, DirtySet{
			Layers: res.DirtyLayers, UnionVerts: res.Touched, MaxDirtyD: res.MaxDirtyD,
		}, 1)
		if derived.Version() != 1 {
			t.Fatalf("derived version = %d, want 1", derived.Version())
		}
		if info.RetainedHierarchies+info.InvalidatedHierarchies == 0 {
			t.Fatal("Derive saw no warmed hierarchies")
		}

		fresh := NewPrepared(g2, 1)
		for _, o := range []Options{
			{D: 2, S: 2, K: 4, Seed: seed},
			{D: 3, S: 3, K: 3, Seed: seed + 1},
			{D: 4, S: 2, K: 2, Seed: seed + 2},
			{D: res.MaxDirtyD + 1, S: 2, K: 3, Seed: seed},
		} {
			type algo struct {
				name string
				warm func(context.Context, Options) (*Result, error)
				cold func(context.Context, Options) (*Result, error)
			}
			for _, a := range []algo{
				{"bottomup", derived.BottomUp, fresh.BottomUp},
				{"topdown", derived.TopDown, fresh.TopDown},
				{"greedy", derived.Greedy, fresh.Greedy},
			} {
				got, err := a.warm(context.Background(), o)
				if err != nil {
					t.Fatal(err)
				}
				want, err := a.cold(context.Background(), o)
				if err != nil {
					t.Fatal(err)
				}
				gs, ws := got.Stats, want.Stats
				gs.Elapsed, ws.Elapsed = 0, 0
				if !reflect.DeepEqual(gs, ws) {
					t.Fatalf("seed %d %s %+v: stats differ:\nderived %+v\nfresh   %+v", seed, a.name, o, gs, ws)
				}
				if got.CoverSize != want.CoverSize || !reflect.DeepEqual(got.Cores, want.Cores) {
					t.Fatalf("seed %d %s %+v: results differ", seed, a.name, o)
				}
			}
		}
	}
}

// TestDerivePatchesUnionAdjacency pins the union-adjacency patch: when
// the old handle had built its union adjacency, the derived handle
// carries one (whether or not any hierarchy was retained) that equals a
// cold build row for row and shares every untouched row with the old
// handle.
func TestDerivePatchesUnionAdjacency(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := testutil.RandomCorrelatedGraph(rng, 60, 4, 0.25, 0.85, 0.05)
		pr := NewPrepared(g, 1)
		old := pr.unionAdjacency()
		st := live.NewStore(g)
		res := applyRandom(t, st, rng, 1+rng.Intn(30))
		g2 := st.Freeze()
		derived, _ := pr.Derive(g2, DirtySet{
			Layers: res.DirtyLayers, UnionVerts: res.Touched, MaxDirtyD: res.MaxDirtyD,
		}, 1)
		got := derived.builtUnionAdjacency()
		if got == nil {
			t.Fatalf("seed %d: derived handle has no union adjacency", seed)
		}
		want := NewPrepared(g2, 1).unionAdjacency()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: patched union adjacency differs from a cold build", seed)
		}
		for v := range got {
			if !slices.Contains(res.Touched, int32(v)) && len(got[v]) > 0 && &got[v][0] != &old[v][0] {
				t.Fatalf("seed %d: untouched row %d was rebuilt", seed, v)
			}
		}
	}
}

// TestDeriveRetainsAboveBound pins the degree-bound retention theorem on
// a graph engineered for it: a dense clique community (coreness well
// above the batch bound) plus sparse fringe vertices. Updates among
// degree-1 fringe vertices have bound ≤ 2, so every hierarchy with
// d > 2 must be kept — and serving it afterwards must not rebuild.
func TestDeriveRetainsAboveBound(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := testutil.RandomCorrelatedGraph(rng, 80, 4, 0.3, 0.9, 0.02)
	pr := NewPrepared(g, 1)
	maxd := pr.MaxCoreness()
	if maxd < 4 {
		t.Fatalf("test graph too sparse: max coreness %d", maxd)
	}
	for d := 2; d <= maxd; d++ {
		if _, err := pr.BottomUp(context.Background(), Options{D: d, S: 2, K: 2, Seed: 1}); err != nil {
			t.Fatal(err)
		}
	}
	builds := pr.Counters().HierarchyBuilds

	// One inserted edge between two previously-isolated-ish vertices:
	// pick u, v of minimum union degree so the post-insert bound is low.
	st := live.NewStore(g)
	res := st.Apply(context.Background(), []live.Update{
		{Op: live.OpInsert, Layer: 0, U: g.N() - 1, V: g.N() - 2},
	})
	g2 := st.Freeze()
	derived, info := pr.Derive(g2, DirtySet{
		Layers: res.DirtyLayers, UnionVerts: res.Touched, MaxDirtyD: res.MaxDirtyD,
	}, 1)
	// Thresholds under the bound (if any) were rebuilt inside Derive;
	// serving queries must add nothing on top of that baseline.
	builds = derived.Counters().HierarchyBuilds

	wantKept := 0
	for d := res.MaxDirtyD + 1; d <= maxd; d++ {
		wantKept++
	}
	if info.RetainedHierarchies < wantKept {
		t.Fatalf("retained %d hierarchies, want at least %d (bound %d, max coreness %d)",
			info.RetainedHierarchies, wantKept, res.MaxDirtyD, maxd)
	}

	// Serving a retained threshold must not count a build; results must
	// still match a from-scratch handle over the mutated graph.
	fresh := NewPrepared(g2, 1)
	for d := res.MaxDirtyD + 1; d <= maxd; d++ {
		o := Options{D: d, S: 2, K: 2, Seed: 1}
		got, err := derived.BottomUp(context.Background(), o)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.BottomUp(context.Background(), o)
		if err != nil {
			t.Fatal(err)
		}
		if got.CoverSize != want.CoverSize || !reflect.DeepEqual(got.Cores, want.Cores) {
			t.Fatalf("d=%d: retained hierarchy answers differently from fresh build", d)
		}
	}
	if b := derived.Counters().HierarchyBuilds; b != builds {
		t.Fatalf("retained thresholds rebuilt: %d builds on derived handle, inherited %d", b, builds)
	}
}

// TestDeriveInvalidatesAtBound is the complement: an insert inside the
// dense region has a high degree bound, so warmed hierarchies at and
// below it are invalidated and eagerly rebuilt inside Derive.
func TestDeriveInvalidatesAtBound(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	g := testutil.RandomCorrelatedGraph(rng, 80, 4, 0.3, 0.9, 0.02)
	pr := NewPrepared(g, 1)
	if _, err := pr.BottomUp(context.Background(), Options{D: 2, S: 2, K: 2, Seed: 1}); err != nil {
		t.Fatal(err)
	}

	// Find the layer-0 vertex of maximum degree and delete one of its
	// edges: the pre-delete bound is at least min(maxdeg, peer degree).
	best, bestDeg := -1, -1
	for v := 0; v < g.N(); v++ {
		if d := g.Degree(0, v); d > bestDeg {
			best, bestDeg = v, d
		}
	}
	peer := int(g.Neighbors(0, best)[0])
	st := live.NewStore(g)
	res := st.Apply(context.Background(), []live.Update{
		{Op: live.OpDelete, Layer: 0, U: best, V: peer},
	})
	if res.MaxDirtyD < 2 {
		t.Fatalf("engineered delete has bound %d, want >= 2", res.MaxDirtyD)
	}
	g2 := st.Freeze()
	derived, info := pr.Derive(g2, DirtySet{
		Layers: res.DirtyLayers, UnionVerts: res.Touched, MaxDirtyD: res.MaxDirtyD,
	}, 1)
	if info.InvalidatedHierarchies != 1 {
		t.Fatalf("invalidated %d hierarchies, want 1 (d=2 <= bound %d)", info.InvalidatedHierarchies, res.MaxDirtyD)
	}
	if info.RebuiltHierarchies != 1 {
		t.Fatalf("rebuilt %d hierarchies inside Derive, want 1", info.RebuiltHierarchies)
	}

	// The rebuilt threshold serves without further builds and answers
	// like fresh.
	base := derived.Counters().HierarchyBuilds
	fresh := NewPrepared(g2, 1)
	o := Options{D: 2, S: 2, K: 2, Seed: 1}
	got, err := derived.BottomUp(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.BottomUp(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if got.CoverSize != want.CoverSize || !reflect.DeepEqual(got.Cores, want.Cores) {
		t.Fatal("rebuilt hierarchy answers differently from fresh build")
	}
	if b := derived.Counters().HierarchyBuilds; b != base {
		t.Fatalf("eagerly rebuilt threshold rebuilt again on use: %d builds, want %d", b, base)
	}
}

// TestSnapshotCarriesVersion pins snapshot format v2: the graph version
// survives a write/restore round trip, and restore only ever advances a
// handle's version, never rewinds it.
func TestSnapshotCarriesVersion(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := testutil.RandomCorrelatedGraph(rng, 50, 4, 0.25, 0.85, 0.05)
	pr := NewPrepared(g, 1)
	if _, err := pr.BottomUp(context.Background(), Options{D: 2, S: 2, K: 2, Seed: 1}); err != nil {
		t.Fatal(err)
	}

	// Version 0 round-trips as 0.
	var buf bytes.Buffer
	if err := pr.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	r0 := NewPrepared(g, 1)
	if err := r0.RestoreSnapshot(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if v := r0.Version(); v != 0 {
		t.Fatalf("restored version = %d, want 0", v)
	}

	// A derived handle stamps its batch counter into the snapshot.
	st := live.NewStore(g)
	res := applyRandom(t, st, rng, 10)
	g2 := st.Freeze()
	derived, _ := pr.Derive(g2, DirtySet{
		Layers: res.DirtyLayers, UnionVerts: res.Touched, MaxDirtyD: res.MaxDirtyD,
	}, 7)
	buf.Reset()
	if err := derived.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	r7 := NewPrepared(g2, 1)
	if err := r7.RestoreSnapshot(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if v := r7.Version(); v != 7 {
		t.Fatalf("restored version = %d, want 7", v)
	}

	// Restoring an older snapshot never rewinds: derive the same handle
	// forward to version 9 and feed it the version-7 image.
	ahead, _ := derived.Derive(g2, DirtySet{Layers: make([]bool, g2.L())}, 9)
	if err := ahead.RestoreSnapshot(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if v := ahead.Version(); v != 9 {
		t.Fatalf("restore rewound version to %d, want 9 kept", v)
	}
}
