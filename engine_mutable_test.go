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
// counters across live generations. Hits, misses, space builds and
// reuses carry over like the build counters, and a new generation's
// first query builds its space anew. Its memo starts with exactly the
// entries the batch provably left unchanged:
//
//   - an edge on a layer whose 2-core stays empty changes no survivor,
//     no reduced core and no compact row at d = 2, so every entry
//     carries: MemoBytes equals their charges, MemoCarried grows by their
//     count, and a repeat query misses nothing;
//   - deleting every edge of a vertex in a returned core drops it from
//     the survivors at every s ≥ 1, so nothing at the queries' s
//     carries.
func TestMemoMetricsAcrossUpdates(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(17))
	base := testutil.RandomCorrelatedGraph(rng, 60, 4, 0.2, 0.85, 0.05)
	empty := base.L() // the extra layer, which starts without edges
	b := NewBuilder(base.N(), base.L()+1)
	for layer := 0; layer < base.L(); layer++ {
		for u := 0; u < base.N(); u++ {
			for _, v := range base.Neighbors(layer, u) {
				if int(v) > u {
					b.MustAddEdge(layer, u, int(v))
				}
			}
		}
	}
	g := b.Build()
	eng, err := NewMutableEngine(g, EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	search := func(seed int64) *Result {
		t.Helper()
		res, err := eng.Search(ctx, Query{D: 2, S: 2, K: 3, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	var res *Result
	for seed := int64(1); seed <= 2; seed++ {
		res = search(seed)
	}
	before := eng.Metrics()
	if before.MemoHits == 0 || before.MemoMisses == 0 || before.MemoBytes == 0 || len(res.Cores) == 0 {
		t.Fatalf("two queries at one (d, s) left %+v and %d cores, want hits, misses, bytes and a core", before, len(res.Cores))
	}
	// Every entry lives in the one (d, s) space and is charged its
	// bitset words over the survivors plus the per-entry overhead.
	charge := int64(8*((g.N()-res.Stats.PreprocessRemoved+63)/64) + 64)
	entries := before.MemoBytes / charge
	if before.MemoBytes != entries*charge {
		t.Fatalf("memo bytes %d are not a multiple of the entry charge %d", before.MemoBytes, charge)
	}

	if _, err := eng.ApplyUpdates(ctx, []EdgeUpdate{{Op: EdgeInsert, Layer: empty, U: 0, V: 1}}); err != nil {
		t.Fatal(err)
	}
	after := eng.Metrics()
	if after.MemoHits != before.MemoHits || after.MemoMisses != before.MemoMisses ||
		after.SpaceBuilds != before.SpaceBuilds || after.SpaceReuses != before.SpaceReuses ||
		after.MemoCarried != before.MemoCarried+entries || after.MemoBytes != entries*charge {
		t.Fatalf("after a batch on the empty layer: %+v, want the counters of %+v with all %d entries carried", after, before, entries)
	}
	res = search(3)
	if m := eng.Metrics(); m.MemoMisses != after.MemoMisses || m.MemoHits == after.MemoHits || m.MemoBytes != after.MemoBytes {
		t.Fatalf("a repeat query on the new generation did not answer from the carried entries: %+v", m)
	} else if m.SpaceBuilds != after.SpaceBuilds+1 || m.SpaceReuses != after.SpaceReuses {
		t.Fatalf("the new generation's first query did not build its space: %+v", m)
	}

	v := int(res.Cores[0].Vertices[0])
	var drop []EdgeUpdate
	for layer := 0; layer < g.L(); layer++ {
		for _, u := range eng.Graph().Neighbors(layer, v) {
			drop = append(drop, EdgeUpdate{Op: EdgeDelete, Layer: layer, U: v, V: int(u)})
		}
	}
	mid := eng.Metrics()
	if _, err := eng.ApplyUpdates(ctx, drop); err != nil {
		t.Fatal(err)
	}
	if m := eng.Metrics(); m.MemoCarried != mid.MemoCarried || m.MemoBytes != 0 {
		t.Fatalf("after a batch that moved the survivors: %+v, want nothing carried", m)
	}
	if again := search(4); again.Stats.PreprocessRemoved == res.Stats.PreprocessRemoved {
		t.Fatalf("isolating vertex %d left %d vertices removed, want the survivors changed", v, again.Stats.PreprocessRemoved)
	} else if m := eng.Metrics(); m.MemoMisses == mid.MemoMisses || m.MemoBytes == 0 {
		t.Fatalf("the new generation did not refill its memo: %+v", m)
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

// TestValidateUpdates pins the batch check update by update: a
// well-formed batch passes, and each malformed update is rejected alone.
func TestValidateUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := testutil.RandomGraph(rng, 20, 3, 0.2)
	good := []EdgeUpdate{
		{Op: EdgeInsert, Layer: 0, U: 0, V: 1},
		{Op: EdgeDelete, Layer: 2, U: 19, V: 5},
	}
	if err := validateUpdates(g, good); err != nil {
		t.Fatalf("valid batch rejected: %v", err)
	}
	bad := []EdgeUpdate{
		{Op: EdgeOp(7), Layer: 0, U: 0, V: 1},
		{Op: EdgeInsert, Layer: -1, U: 0, V: 1},
		{Op: EdgeInsert, Layer: 3, U: 0, V: 1},
		{Op: EdgeInsert, Layer: 0, U: -1, V: 1},
		{Op: EdgeInsert, Layer: 0, U: 0, V: 20},
		{Op: EdgeInsert, Layer: 0, U: 4, V: 4},
	}
	for i, up := range bad {
		if err := validateUpdates(g, []EdgeUpdate{up}); err == nil {
			t.Errorf("bad update %d accepted: %+v", i, up)
		}
	}
}

// TestFreezeMatchesStream cross-checks the export path: an engine that
// absorbed a random stream serves exactly the graph a cold Builder
// builds from a shadow edge set fed the same stream.
func TestFreezeMatchesStream(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	src := testutil.RandomGraph(rng, 40, 3, 0.15)
	eng, err := NewMutableEngine(src, EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	type edge struct{ layer, u, v int }
	key := func(layer, u, v int) edge { return edge{layer, min(u, v), max(u, v)} }
	shadow := map[edge]bool{}
	for layer := 0; layer < src.L(); layer++ {
		for v := 0; v < src.N(); v++ {
			for _, u := range src.Neighbors(layer, v) {
				shadow[key(layer, v, int(u))] = true
			}
		}
	}

	for round := 0; round < 5; round++ {
		ups := randomStream(rng, src, 30)
		if _, err := eng.ApplyUpdates(context.Background(), ups); err != nil {
			t.Fatal(err)
		}
		for _, up := range ups {
			if up.Op == EdgeInsert {
				shadow[key(up.Layer, up.U, up.V)] = true
			} else {
				delete(shadow, key(up.Layer, up.U, up.V))
			}
		}
		// The Builder sorts its edge lists, so map order cannot leak.
		b := NewBuilder(src.N(), src.L())
		for e := range shadow {
			b.MustAddEdge(e.layer, e.u, e.v)
		}
		if !eng.Graph().Equal(b.Build()) {
			t.Fatalf("round %d: engine graph diverged from shadow graph", round)
		}
	}
}

// TestApplyUpdatesBookkeeping pins the per-batch counts on a hand-built
// graph: a duplicate insert and a missing delete are no-ops, an edge
// inserted and then deleted within one batch counts once each way and
// dirties its layer, and a batch of pure no-ops changes nothing. A batch
// that inserts and deletes the same edge still bumps the version and
// leaves the graph Equal to before.
func TestApplyUpdatesBookkeeping(t *testing.T) {
	ctx := context.Background()
	// Layer 0: path 0-1-2; layer 1: empty.
	b := NewBuilder(5, 2)
	b.MustAddEdge(0, 0, 1)
	b.MustAddEdge(0, 1, 2)
	eng, err := NewMutableEngine(b.Build(), EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := eng.ApplyUpdates(ctx, []EdgeUpdate{
		{Op: EdgeInsert, Layer: 0, U: 0, V: 2}, // closes the triangle
		{Op: EdgeInsert, Layer: 0, U: 0, V: 2}, // no-op: already present
		{Op: EdgeDelete, Layer: 0, U: 3, V: 4}, // no-op: never existed
		{Op: EdgeInsert, Layer: 1, U: 3, V: 4}, // fresh edge on the empty layer
		{Op: EdgeDelete, Layer: 1, U: 4, V: 3}, // ...deleted again within the batch
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Applied != 5 || st.Inserted != 2 || st.Deleted != 1 || st.NoOps != 2 || st.DirtyLayers != 2 || st.Version != 1 {
		t.Fatalf("mixed batch: %+v", st)
	}
	tri := NewBuilder(5, 2)
	tri.MustAddEdge(0, 0, 1)
	tri.MustAddEdge(0, 1, 2)
	tri.MustAddEdge(0, 0, 2)
	if !eng.Graph().Equal(tri.Build()) {
		t.Fatal("mixed batch: graph is not the triangle")
	}

	// A batch of pure no-ops: no version bump, no rebuild.
	before := eng.Graph()
	st, err = eng.ApplyUpdates(ctx, []EdgeUpdate{{Op: EdgeDelete, Layer: 1, U: 3, V: 4}, {Op: EdgeInsert, Layer: 0, U: 2, V: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if st.NoOps != 2 || st.Version != 1 || st.RebuildElapsed != 0 || eng.Graph() != before {
		t.Fatalf("no-op batch: %+v", st)
	}

	// Insert and delete in one batch: a new version over an equal graph.
	st, err = eng.ApplyUpdates(ctx, []EdgeUpdate{{Op: EdgeInsert, Layer: 1, U: 0, V: 4}, {Op: EdgeDelete, Layer: 1, U: 0, V: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Inserted != 1 || st.Deleted != 1 || st.NoOps != 0 || st.DirtyLayers != 1 || st.Version != 2 || eng.Version() != 2 {
		t.Fatalf("round trip: %+v", st)
	}
	if !eng.Graph().Equal(before) {
		t.Fatal("round trip: graph differs from before the batch")
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
