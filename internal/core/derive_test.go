package core

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dynamic"
	"repro/internal/kcore"
	"repro/internal/multilayer"
	"repro/internal/testutil"
)

// update is one edge change of a test batch.
type update struct {
	del         bool
	layer, u, v int
}

// applyBatch lands a batch on the mutable graph in order, as
// Engine.ApplyUpdates does, and returns the edge of every effective
// update in batch order: the changed-edge list Derive reads.
func applyBatch(dg *dynamic.Graph, ups []update) []multilayer.Edge {
	var changed []multilayer.Edge
	for _, up := range ups {
		apply := dg.AddEdge
		if up.del {
			apply = dg.RemoveEdge
		}
		if apply(up.layer, up.u, up.v) {
			changed = append(changed, multilayer.Edge{Layer: up.layer, U: up.u, V: up.v})
		}
	}
	return changed
}

// applyRandom lands a deterministic insert/delete stream on the mutable
// graph as one batch and returns its changed edges.
func applyRandom(dg *dynamic.Graph, rng *rand.Rand, steps int) []multilayer.Edge {
	ups := make([]update, 0, steps)
	for len(ups) < steps {
		u, v := rng.Intn(dg.N()), rng.Intn(dg.N())
		if u == v {
			continue
		}
		del := rng.Intn(3) == 0
		ups = append(ups, update{del: del, layer: rng.Intn(dg.L()), u: u, v: v})
	}
	return applyBatch(dg, ups)
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

		dg := dynamic.FromMultilayer(g)
		changed := applyRandom(dg, rng, 40)
		g2 := dg.Freeze()
		derived, info := pr.Derive(g2, changed, 1)
		bound := corenessBoundOracle(g, g2, changed)
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
			{D: bound + 1, S: 2, K: 3, Seed: seed},
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

// corenessBoundOracle recomputes Derive's retention bound from cold core
// decompositions of the graphs before (g) and after (g2) a batch: the
// maximum over changed edges {u,v} on layer i of
// max(min(core_i(u), core_i(v))) over the two graphs.
func corenessBoundOracle(g, g2 *multilayer.Graph, changed []multilayer.Edge) int {
	bound := 0
	for _, e := range changed {
		for _, gr := range []*multilayer.Graph{g, g2} {
			cn := kcore.Coreness(gr, e.Layer)
			bound = max(bound, int(min(cn[e.U], cn[e.V])))
		}
	}
	return bound
}

// TestDeriveRetainsAboveBound pins the coreness-bound retention theorem
// on a graph engineered for it: a dense community on vertices 0..39
// (coreness well above the batch bound) plus a sparse fringe, a path on
// vertices 40..79 of layer 0. An edge closing a triangle on the path
// raises its endpoints' coreness from 1 to 2 only, so exactly the warmed
// hierarchies above 2 must be kept — and serving them afterwards must
// not rebuild.
func TestDeriveRetainsAboveBound(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	dense := testutil.RandomCorrelatedGraph(rng, 40, 4, 0.3, 0.9, 0.02)
	b := multilayer.NewBuilder(80, dense.L())
	for layer := 0; layer < dense.L(); layer++ {
		for u := 0; u < dense.N(); u++ {
			for _, v := range dense.Neighbors(layer, u) {
				if int(v) > u {
					b.MustAddEdge(layer, u, int(v))
				}
			}
		}
	}
	for v := 40; v+1 < 80; v++ {
		b.MustAddEdge(0, v, v+1)
	}
	g := b.Build()
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

	dg := dynamic.FromMultilayer(g)
	changed := applyBatch(dg, []update{{layer: 0, u: 41, v: 43}})
	g2 := dg.Freeze()
	derived, info := pr.Derive(g2, changed, 1)
	// Thresholds under the bound (if any) were rebuilt inside Derive;
	// serving queries must add nothing on top of that baseline.
	builds = derived.Counters().HierarchyBuilds

	bound := corenessBoundOracle(g, g2, changed)
	if bound != 2 || derived.MaxCoreness() != maxd {
		t.Fatalf("fringe insert: bound %d, want 2; max coreness %d, was %d", bound, derived.MaxCoreness(), maxd)
	}
	wantKept := 0
	for d := bound + 1; d <= maxd; d++ {
		wantKept++
	}
	if wantKept == 0 || info.RetainedHierarchies != wantKept {
		t.Fatalf("retained %d hierarchies, want %d > 0 (bound %d, max coreness %d)",
			info.RetainedHierarchies, wantKept, bound, maxd)
	}

	// Serving a retained threshold must not count a build; results must
	// still match a from-scratch handle over the mutated graph.
	fresh := NewPrepared(g2, 1)
	for d := bound + 1; d <= maxd; d++ {
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

// TestDeriveInvalidatesAtBound is the complement: deleting an edge whose
// endpoints both lie deep in layer 0's core hierarchy gives a high
// coreness bound, so warmed hierarchies at and below it are invalidated
// and eagerly rebuilt inside Derive.
func TestDeriveInvalidatesAtBound(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	g := testutil.RandomCorrelatedGraph(rng, 80, 4, 0.3, 0.9, 0.02)
	pr := NewPrepared(g, 1)
	if _, err := pr.BottomUp(context.Background(), Options{D: 2, S: 2, K: 2, Seed: 1}); err != nil {
		t.Fatal(err)
	}

	// Delete the layer-0 edge whose endpoints have the largest smaller
	// coreness: the pre-delete coreness bound is that value.
	core0 := kcore.Coreness(g, 0)
	best, peer, bestCore := -1, -1, -1
	for v := 0; v < g.N(); v++ {
		for _, u := range g.Neighbors(0, v) {
			if c := int(min(core0[v], core0[u])); c > bestCore {
				best, peer, bestCore = v, int(u), c
			}
		}
	}
	dg := dynamic.FromMultilayer(g)
	changed := applyBatch(dg, []update{{del: true, layer: 0, u: best, v: peer}})
	g2 := dg.Freeze()
	bound := corenessBoundOracle(g, g2, changed)
	if bound < 2 {
		t.Fatalf("engineered delete has bound %d, want >= 2", bound)
	}
	derived, info := pr.Derive(g2, changed, 1)
	if info.InvalidatedHierarchies != 1 {
		t.Fatalf("invalidated %d hierarchies, want 1 (d=2 <= bound %d)", info.InvalidatedHierarchies, bound)
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

// TestDeriveCorenessBoundProperty checks the coreness bound array by
// array over random graphs and random mixed batches — inserts, deletes of
// existing edges, and an edge inserted and then deleted within the batch.
// With every threshold warm, Derive must keep exactly the hierarchies
// above the bound (recomputed from cold core decompositions) that the
// sentinel clamp still addresses, each equal to a cold build's h and
// coreh, and must rebuild every dropped one equal to a cold build.
func TestDeriveCorenessBoundProperty(t *testing.T) {
	ctx := context.Background()
	retained, rebuilt := 0, 0
	for seed := int64(1); seed <= 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := testutil.RandomCorrelatedGraph(rng, 60+rng.Intn(60), 2+rng.Intn(4), 0.15, 0.85, 0.05)
		pr := NewPrepared(g, 2)
		if err := pr.PrepareAll(ctx); err != nil {
			t.Fatal(err)
		}

		// One or two layers per batch, a few changes each.
		layers := []int{rng.Intn(g.L()), rng.Intn(g.L())}[:1+rng.Intn(2)]
		randomPair := func() (int, int) {
			for {
				if u, v := rng.Intn(g.N()), rng.Intn(g.N()); u != v {
					return u, v
				}
			}
		}
		var ups []update
		for k := 1 + rng.Intn(4); k > 0; k-- {
			u, v := randomPair()
			ups = append(ups, update{layer: layers[rng.Intn(len(layers))], u: u, v: v})
		}
		for k := 1 + rng.Intn(4); k > 0; k-- {
			layer, v := layers[rng.Intn(len(layers))], rng.Intn(g.N())
			if nb := g.Neighbors(layer, v); len(nb) > 0 {
				ups = append(ups, update{del: true, layer: layer, u: v, v: int(nb[rng.Intn(len(nb))])})
			}
		}
		rng.Shuffle(len(ups), func(i, j int) { ups[i], ups[j] = ups[j], ups[i] })
		for {
			u, v := randomPair()
			if layer := layers[0]; !g.HasEdge(layer, u, v) {
				ups = append(ups,
					update{layer: layer, u: u, v: v},
					update{del: true, layer: layer, u: u, v: v})
				break
			}
		}

		dg := dynamic.FromMultilayer(g)
		changed := applyBatch(dg, ups)
		g2 := dg.Freeze()
		derived, info := pr.Derive(g2, changed, 1)
		bound := corenessBoundOracle(g, g2, changed)
		maxc2 := derived.MaxCoreness()
		cold := NewPrepared(g2, 1)

		kept := 0
		for d := 1; d <= pr.MaxCoreness()+1; d++ {
			old := pr.artifact(d).hier
			got := derived.artifact(min(d, maxc2+1))
			if !got.done.Load() {
				t.Fatalf("seed %d d=%d: warm threshold missing after Derive", seed, d)
			}
			isKept := &got.hier.coreh[0] == &old.coreh[0]
			if wantKept := d > bound && d <= maxc2+1; isKept != wantKept {
				t.Fatalf("seed %d d=%d: kept %v, want %v (bound %d, max coreness %d)", seed, d, isKept, wantKept, bound, maxc2)
			}
			if isKept {
				kept++
			}
			want := cold.hierarchyFor(ctx, min(d, maxc2+1))
			if !sameHierarchy(got.hier, want) {
				t.Fatalf("seed %d d=%d (kept %v): hierarchy differs from a cold build", seed, d, isKept)
			}
		}
		if info.RetainedHierarchies != kept || info.InvalidatedHierarchies != pr.MaxCoreness()+1-kept {
			t.Fatalf("seed %d: info %+v, want %d retained of %d", seed, info, kept, pr.MaxCoreness()+1)
		}
		retained += info.RetainedHierarchies
		rebuilt += info.RebuiltHierarchies
	}
	if retained == 0 || rebuilt == 0 {
		t.Fatalf("vacuous run: %d hierarchies retained, %d rebuilt", retained, rebuilt)
	}
	t.Logf("%d hierarchies retained, %d rebuilt", retained, rebuilt)
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
	dg := dynamic.FromMultilayer(g)
	changed := applyRandom(dg, rng, 10)
	g2 := dg.Freeze()
	derived, _ := pr.Derive(g2, changed, 7)
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
	ahead, _ := derived.Derive(g2, nil, 9)
	if err := ahead.RestoreSnapshot(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if v := ahead.Version(); v != 9 {
		t.Fatalf("restore rewound version to %d, want 9 kept", v)
	}
}
