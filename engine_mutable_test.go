package dccs

import (
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/testutil"
)

// randomStream produces a deterministic batch of edge updates, roughly
// two inserts per delete, self-loops excluded.
func randomStream(rng *rand.Rand, g *Graph, size int) []EdgeUpdate {
	ups := make([]EdgeUpdate, 0, size)
	for len(ups) < size {
		u, v := rng.Intn(g.N()), rng.Intn(g.N())
		if u == v {
			continue
		}
		op := EdgeInsert
		if rng.Intn(3) == 0 {
			op = EdgeDelete
		}
		ups = append(ups, EdgeUpdate{Op: op, Layer: rng.Intn(g.L()), U: u, V: v})
	}
	return ups
}

// TestMutableEngineEquivalence is the ISSUE's equivalence criterion: a
// mutable engine that absorbed a random insert/delete stream must answer
// every query — results and Stats modulo wall clock — byte-identically
// to a cold engine built from scratch over the final graph.
func TestMutableEngineEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := testutil.RandomCorrelatedGraph(rng, 80, 6, 0.2, 0.85, 0.05)

		eng, err := NewMutableEngine(g, EngineConfig{})
		if err != nil {
			t.Fatal(err)
		}
		// Serve some queries between batches so the update path exercises
		// warm-artifact retention, not just cold derivation.
		probe := Query{D: 2, S: 2, K: 3, Seed: seed}
		for batch := 0; batch < 6; batch++ {
			if _, err := eng.Search(context.Background(), probe); err != nil {
				t.Fatal(err)
			}
			if _, err := eng.ApplyUpdates(context.Background(), randomStream(rng, g, 25)); err != nil {
				t.Fatal(err)
			}
		}

		cold, err := NewEngine(eng.Graph(), EngineConfig{})
		if err != nil {
			t.Fatal(err)
		}
		queries := []Query{
			{D: 2, S: 2, K: 5, Seed: seed, Algorithm: AlgoBottomUp},
			{D: 2, S: 4, K: 5, Seed: seed, Algorithm: AlgoTopDown},
			{D: 3, S: 3, K: 4, Seed: seed + 1, Algorithm: AlgoGreedy},
			{D: 3, S: 2, K: 4, Seed: seed + 2}, // auto
			{D: 4, S: 2, K: 3, Seed: seed},
		}
		for i, q := range queries {
			got, err := eng.Search(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := cold.Search(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			gs, ws := got.Stats, want.Stats
			gs.Elapsed, ws.Elapsed = 0, 0
			if !reflect.DeepEqual(gs, ws) {
				t.Fatalf("seed %d query %d: stats differ:\nmutated %+v\ncold    %+v", seed, i, gs, ws)
			}
			if got.CoverSize != want.CoverSize || !reflect.DeepEqual(got.Cores, want.Cores) {
				t.Fatalf("seed %d query %d: results differ", seed, i)
			}
		}
	}
}

// TestImmutableEngineRejectsUpdates pins the 409 contract at the API
// layer: engines from NewEngine refuse both updates and watches with
// ErrImmutableEngine.
func TestImmutableEngineRejectsUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := testutil.RandomCorrelatedGraph(rng, 30, 3, 0.3, 0.85, 0.05)
	eng, err := NewEngine(g, EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Mutable() {
		t.Fatal("NewEngine produced a mutable engine")
	}
	if _, err := eng.ApplyUpdates(context.Background(), []EdgeUpdate{{Op: EdgeInsert, Layer: 0, U: 0, V: 1}}); !errors.Is(err, ErrImmutableEngine) {
		t.Fatalf("ApplyUpdates on immutable engine: %v, want ErrImmutableEngine", err)
	}
	if _, err := eng.Watch(context.Background(), []int{0}, 2); !errors.Is(err, ErrImmutableEngine) {
		t.Fatalf("Watch on immutable engine: %v, want ErrImmutableEngine", err)
	}
}

// TestApplyUpdatesVersionAndCacheKey pins the cache-coherence contract:
// version 0 keeps the immutable fingerprint (mutable and immutable
// engines over the same graph share cache entries), every effective
// batch bumps the version and changes every cache key, and a batch of
// pure no-ops changes nothing.
func TestApplyUpdatesVersionAndCacheKey(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := testutil.RandomCorrelatedGraph(rng, 40, 4, 0.25, 0.85, 0.05)
	eng, err := NewMutableEngine(g, EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Version() != 0 {
		t.Fatalf("initial version = %d, want 0", eng.Version())
	}
	if eng.Fingerprint() != g.Fingerprint() {
		t.Fatal("version-0 fingerprint differs from the graph fingerprint")
	}
	q := Query{D: 2, S: 2, K: 3, Seed: 1}
	key0 := eng.CacheKey(q)

	// Find a fresh edge for a guaranteed-effective insert.
	u, v, layer := 0, 1, 0
	for g.HasEdge(layer, u, v) {
		v++
	}
	stats, err := eng.ApplyUpdates(context.Background(), []EdgeUpdate{{Op: EdgeInsert, Layer: layer, U: u, V: v}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Inserted != 1 || stats.Version != 1 || eng.Version() != 1 {
		t.Fatalf("effective insert: %+v, engine version %d", stats, eng.Version())
	}
	key1 := eng.CacheKey(q)
	if key1 == key0 {
		t.Fatal("cache key unchanged across an effective update — stale results would be served")
	}

	// Pure no-op batch: insert the edge again, delete a missing one.
	stats, err = eng.ApplyUpdates(context.Background(), []EdgeUpdate{
		{Op: EdgeInsert, Layer: layer, U: u, V: v},
		{Op: EdgeDelete, Layer: layer, U: u + 2, V: u + 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.NoOps != 2 || stats.Version != 1 || eng.Version() != 1 {
		t.Fatalf("no-op batch bumped state: %+v, engine version %d", stats, eng.Version())
	}
	if eng.CacheKey(q) != key1 {
		t.Fatal("cache key changed across a no-op batch")
	}

	// Deleting the inserted edge restores the original graph but must
	// NOT restore the original cache key: versions only move forward.
	if _, err := eng.ApplyUpdates(context.Background(), []EdgeUpdate{{Op: EdgeDelete, Layer: layer, U: u, V: v}}); err != nil {
		t.Fatal(err)
	}
	if key2 := eng.CacheKey(q); key2 == key0 || key2 == key1 {
		t.Fatal("cache key reused across versions")
	}
}

// TestMemoMetricsAcrossUpdates pins the d-CC memo and search-space
// counters across live generations: hits, misses, space builds and
// reuses carry over like the build counters, while the new generation's
// memo starts empty and fills again, and its first query builds its
// space anew.
func TestMemoMetricsAcrossUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := testutil.RandomCorrelatedGraph(rng, 60, 4, 0.2, 0.85, 0.05)
	eng, err := NewMutableEngine(g, EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 2; seed++ {
		if _, err := eng.Search(context.Background(), Query{D: 2, S: 2, K: 3, Seed: seed}); err != nil {
			t.Fatal(err)
		}
	}
	before := eng.Metrics()
	if before.MemoHits == 0 || before.MemoMisses == 0 || before.MemoBytes == 0 {
		t.Fatalf("two queries at one (d, s) left %+v, want hits, misses and bytes", before)
	}
	u, v := 0, 1
	for g.HasEdge(0, u, v) {
		v++
	}
	if _, err := eng.ApplyUpdates(context.Background(), []EdgeUpdate{{Op: EdgeInsert, Layer: 0, U: u, V: v}}); err != nil {
		t.Fatal(err)
	}
	after := eng.Metrics()
	if after.MemoHits != before.MemoHits || after.MemoMisses != before.MemoMisses || after.MemoBytes != 0 ||
		after.SpaceBuilds != before.SpaceBuilds || after.SpaceReuses != before.SpaceReuses {
		t.Fatalf("after an update: %+v, want the counters of %+v and no bytes", after, before)
	}
	if _, err := eng.Search(context.Background(), Query{D: 2, S: 2, K: 3, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if m := eng.Metrics(); m.MemoMisses == after.MemoMisses || m.MemoBytes == 0 {
		t.Fatalf("the new generation did not refill its memo: %+v", m)
	} else if m.SpaceBuilds != after.SpaceBuilds+1 || m.SpaceReuses != after.SpaceReuses {
		t.Fatalf("the new generation's first query did not build its space: %+v", m)
	}
}

// TestApplyUpdatesValidates pins batch atomicity: one invalid update
// rejects the whole batch before anything lands.
func TestApplyUpdatesValidates(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	g := testutil.RandomCorrelatedGraph(rng, 30, 3, 0.3, 0.85, 0.05)
	eng, err := NewMutableEngine(g, EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]EdgeUpdate{
		{{Op: EdgeInsert, Layer: -1, U: 0, V: 1}},
		{{Op: EdgeInsert, Layer: g.L(), U: 0, V: 1}},
		{{Op: EdgeInsert, Layer: 0, U: -1, V: 1}},
		{{Op: EdgeInsert, Layer: 0, U: 0, V: g.N()}},
		{{Op: EdgeInsert, Layer: 0, U: 2, V: 2}},
		{{Op: EdgeOp(9), Layer: 0, U: 0, V: 1}},
		// Valid first update, invalid second: nothing may land.
		{{Op: EdgeInsert, Layer: 0, U: 0, V: 1}, {Op: EdgeDelete, Layer: 0, U: 5, V: 5}},
	}
	for i, ups := range bad {
		if _, err := eng.ApplyUpdates(context.Background(), ups); err == nil {
			t.Fatalf("batch %d accepted: %+v", i, ups)
		}
	}
	if eng.Version() != 0 {
		t.Fatalf("rejected batches advanced the version to %d", eng.Version())
	}
	if !eng.Graph().Equal(g) {
		t.Fatal("rejected batch mutated the graph")
	}
}

// TestCoreWatchTracksUpdates pins the maintained-core subsystem at the
// public API: a watch attached before a stream of updates must always
// report exactly the core CoherentCore computes on the current graph.
func TestCoreWatchTracksUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := testutil.RandomCorrelatedGraph(rng, 60, 4, 0.2, 0.85, 0.05)
	eng, err := NewMutableEngine(g, EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	layers := []int{0, 1, 2}
	w, err := eng.Watch(context.Background(), layers, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	for batch := 0; batch < 5; batch++ {
		if _, err := eng.ApplyUpdates(context.Background(), randomStream(rng, g, 20)); err != nil {
			t.Fatal(err)
		}
		if w.Truncated() {
			t.Fatalf("batch %d: watch truncated under a live context", batch)
		}
		want, err := CoherentCore(eng.Graph(), layers, 2)
		if err != nil {
			t.Fatal(err)
		}
		got := w.Core()
		if len(got) != len(want) {
			t.Fatalf("batch %d: watch core has %d vertices, CoherentCore says %d", batch, len(got), len(want))
		}
		for i := range got {
			if int(got[i]) != want[i] {
				t.Fatalf("batch %d: watch core differs at %d: %d vs %d", batch, i, got[i], want[i])
			}
		}
	}
}

// TestMutableSnapshotLifecycle pins warm restarts of a mutated engine:
// the snapshot carries the version, a restarted engine over the mutated
// graph adopts it, and a restart against the ORIGINAL graph (stale
// bytes) is rejected by the fingerprint gate rather than silently
// serving pre-update artifacts.
func TestMutableSnapshotLifecycle(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	g := testutil.RandomCorrelatedGraph(rng, 50, 4, 0.25, 0.85, 0.05)
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "live.mlgs")

	eng, err := NewMutableEngine(g, EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for batch := 0; batch < 3; batch++ {
		if _, err := eng.ApplyUpdates(context.Background(), randomStream(rng, g, 15)); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Warm(2, 3); err != nil {
		t.Fatal(err)
	}
	wantVersion := eng.Version()
	if wantVersion == 0 {
		t.Fatal("update stream left the version at 0")
	}
	if err := eng.SaveSnapshot(snapPath); err != nil {
		t.Fatal(err)
	}
	want, err := eng.Search(context.Background(), Query{D: 2, S: 2, K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Restart over the mutated graph bytes: warm, version adopted, and
	// the same cache key as the engine that saved — cached responses
	// survive the restart.
	restarted, err := NewMutableEngine(eng.Graph(), EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := restarted.LoadSnapshot(snapPath); err != nil {
		t.Fatal(err)
	}
	if v := restarted.Version(); v != wantVersion {
		t.Fatalf("restarted version = %d, want %d", v, wantVersion)
	}
	if restarted.CacheKey(Query{D: 2, S: 2, K: 3, Seed: 1}) != eng.CacheKey(Query{D: 2, S: 2, K: 3, Seed: 1}) {
		t.Fatal("cache key not stable across a snapshot restart")
	}
	got, err := restarted.Search(context.Background(), Query{D: 2, S: 2, K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got.CoverSize != want.CoverSize || !reflect.DeepEqual(got.Cores, want.Cores) {
		t.Fatal("restarted engine answers differently")
	}
	if m := restarted.Metrics(); m.CorenessBuilds != 0 || m.HierarchyBuilds != 0 {
		t.Fatalf("restarted engine rebuilt artifacts: %+v", m)
	}

	// Restart against the pre-update graph: the snapshot's fingerprint
	// is the mutated graph's, so the gate must reject it.
	stale, err := NewMutableEngine(g, EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := stale.LoadSnapshot(snapPath); err == nil {
		t.Fatal("snapshot of the mutated graph restored against the original")
	}
	if stale.Version() != 0 {
		t.Fatalf("rejected restore advanced the version to %d", stale.Version())
	}
}

// TestViewSaveSnapshotPinsGeneration pins the pairing contract of
// View.SaveSnapshot: a view taken before an update batch saves the
// artifacts of its own generation, so its graph and its snapshot form a
// pair that restores warm at the pinned version even though the engine
// has moved on. The engine-level save of the same moment pairs with the
// new graph instead, and the fingerprint gate rejects it against the
// pinned one.
func TestViewSaveSnapshotPinsGeneration(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(47))
	g := testutil.RandomCorrelatedGraph(rng, 50, 4, 0.25, 0.85, 0.05)
	dir := t.TempDir()
	graphPath := filepath.Join(dir, "live.mlgb")
	snapPath := filepath.Join(dir, "live.mlgs")
	q := Query{D: 2, S: 2, K: 3, Seed: 1}

	eng, err := NewMutableEngine(g, EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ApplyUpdates(ctx, randomStream(rng, g, 15)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Warm(2, 3); err != nil {
		t.Fatal(err)
	}
	view := eng.View()
	want, err := view.Search(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	for eng.Version() == view.Version() {
		if _, err := eng.ApplyUpdates(ctx, randomStream(rng, g, 15)); err != nil {
			t.Fatal(err)
		}
	}
	if view.Graph().Equal(eng.Graph()) {
		t.Fatal("the second batch left the graph unchanged")
	}
	if err := view.Graph().WriteBinaryFile(graphPath); err != nil {
		t.Fatal(err)
	}
	if err := view.SaveSnapshot(snapPath); err != nil {
		t.Fatal(err)
	}

	saved, err := ReadGraphFile(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	restarted, err := NewMutableEngine(saved, EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := restarted.LoadSnapshot(snapPath); err != nil {
		t.Fatalf("pinned pair rejected: %v", err)
	}
	if v := restarted.Version(); v != view.Version() {
		t.Fatalf("restarted version = %d, want the pinned %d", v, view.Version())
	}
	got, err := restarted.Search(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if got.CoverSize != want.CoverSize || !reflect.DeepEqual(got.Cores, want.Cores) {
		t.Fatal("restarted engine answers differently from the pinned view")
	}
	if m := restarted.Metrics(); m.CorenessBuilds != 0 || m.HierarchyBuilds != 0 {
		t.Fatalf("restarted engine rebuilt artifacts: %+v", m)
	}

	if err := eng.SaveSnapshot(snapPath); err != nil {
		t.Fatal(err)
	}
	mixed, err := NewMutableEngine(saved, EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := mixed.LoadSnapshot(snapPath); err == nil {
		t.Fatal("the current generation's snapshot restored against the pinned graph")
	}
}
