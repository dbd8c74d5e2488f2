package dccs

import (
	"context"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/bitset"
	"repro/internal/datasets"
	"repro/internal/kcore"
	"repro/internal/testutil"
)

func newTestEngine(t testing.TB) *Engine {
	t.Helper()
	eng, err := NewEngine(exampleGraph(t), EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestEngineMatchesLegacySearch runs the same query grid through a
// shared Engine and the one-shot free functions: the cached artifacts
// must never change an answer.
func TestEngineMatchesLegacySearch(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := testutil.RandomCorrelatedGraph(rng, 50, 4, 0.3, 0.85, 0.08)
	eng, err := NewEngine(g, EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for d := 1; d <= 3; d++ {
		for s := 1; s <= g.L(); s++ {
			q := Query{D: d, S: s, K: 3, Seed: 9}
			got, err := eng.Search(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Search(g, Options{D: d, S: s, K: 3, Seed: 9})
			if err != nil {
				t.Fatal(err)
			}
			if got.CoverSize != want.CoverSize || len(got.Cores) != len(want.Cores) {
				t.Fatalf("d=%d s=%d: engine cover %d (%d cores), legacy cover %d (%d cores)",
					d, s, got.CoverSize, len(got.Cores), want.CoverSize, len(want.Cores))
			}
			if err := Validate(g, Options{D: d, S: s, K: 3}, got); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestEngineAmortization is the acceptance check of the engine contract:
// N queries against one Engine build the per-layer coreness once and the
// hierarchy once per distinct d, and the metrics say so.
func TestEngineAmortization(t *testing.T) {
	eng := newTestEngine(t)
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		for _, algo := range []Algorithm{AlgoBottomUp, AlgoTopDown, AlgoGreedy} {
			if _, err := eng.Search(ctx, Query{D: 3, S: 1 + i%4, K: 1 + i%3, Seed: int64(i), Algorithm: algo}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := eng.Search(ctx, Query{D: 2, S: 2, K: 2}); err != nil {
		t.Fatal(err)
	}
	m := eng.Metrics()
	if m.Queries != 25 {
		t.Errorf("Queries = %d, want 25", m.Queries)
	}
	if m.CorenessBuilds != 1 {
		t.Errorf("CorenessBuilds = %d, want 1", m.CorenessBuilds)
	}
	if m.HierarchyBuilds != 2 {
		t.Errorf("HierarchyBuilds = %d, want 2 (d ∈ {3, 2})", m.HierarchyBuilds)
	}
	// Five (d, s) shapes, each building its compact space at least once;
	// every query builds or reuses one.
	if m.SpaceBuilds < 5 || m.SpaceBuilds+m.SpaceReuses != m.Queries {
		t.Errorf("SpaceBuilds = %d, SpaceReuses = %d, want ≥ 5 builds and %d in all", m.SpaceBuilds, m.SpaceReuses, m.Queries)
	}
}

// TestEngineWarm prepays artifact construction.
func TestEngineWarm(t *testing.T) {
	eng := newTestEngine(t)
	if err := eng.Warm(2, 3); err != nil {
		t.Fatal(err)
	}
	if m := eng.Metrics(); m.HierarchyBuilds != 2 || m.CorenessBuilds != 1 {
		t.Errorf("after Warm(2,3): %+v", m)
	}
	if _, err := eng.Search(context.Background(), Query{D: 3, S: 2, K: 2}); err != nil {
		t.Fatal(err)
	}
	if m := eng.Metrics(); m.HierarchyBuilds != 2 {
		t.Errorf("query after Warm rebuilt the hierarchy: %+v", m)
	}
	if err := eng.Warm(0); err == nil {
		t.Error("Warm(0) accepted")
	}
}

// TestEngineWarmAll prepays every distinct hierarchy in one sweep: a
// query for ANY d afterwards never builds.
func TestEngineWarmAll(t *testing.T) {
	eng := newTestEngine(t)
	if err := eng.WarmAll(nil); err != nil {
		t.Fatal(err)
	}
	builds := eng.Metrics().HierarchyBuilds
	if builds < 2 {
		t.Fatalf("WarmAll built %d hierarchies, want ≥ 2", builds)
	}
	for _, d := range []int{1, 2, 3, 1000} {
		if _, err := eng.Search(context.Background(), Query{D: d, S: 2, K: 2}); err != nil {
			t.Fatal(err)
		}
	}
	if m := eng.Metrics(); m.HierarchyBuilds != builds {
		t.Errorf("queries after WarmAll rebuilt hierarchies: %d, want %d", m.HierarchyBuilds, builds)
	}
}

// TestEngineTrivialShortCircuit pins the admission-time prune: queries
// that are provably empty — support above the layer count, or degree
// beyond the maximum coreness — return an empty result with preprocessing
// stats and never trigger a hierarchy build; invalid queries still error.
func TestEngineTrivialShortCircuit(t *testing.T) {
	eng := newTestEngine(t)
	ctx := context.Background()
	g := eng.Graph()

	trivial := []Query{
		{D: 2, S: g.L() + 1, K: 2},                       // support unreachable
		{D: 1 << 30, S: 2, K: 2},                         // degree beyond max coreness
		{D: 1 << 30, S: 2, K: 2, Algorithm: AlgoGreedy},  // explicit algorithms too
		{D: 2, S: g.L() + 5, K: 1, Algorithm: AlgoExact}, // exact path included
	}
	for i, q := range trivial {
		res, err := eng.Search(ctx, q)
		if err != nil {
			t.Fatalf("trivial query %d errored: %v", i, err)
		}
		if len(res.Cores) != 0 || res.CoverSize != 0 {
			t.Fatalf("trivial query %d returned %d cores (cover %d), want empty", i, len(res.Cores), res.CoverSize)
		}
		if res.Stats.PreprocessRemoved != g.N() {
			t.Errorf("trivial query %d: PreprocessRemoved = %d, want %d", i, res.Stats.PreprocessRemoved, g.N())
		}
		if res.Stats.Algorithm == "" || res.Stats.Algorithm == string(AlgoAuto) {
			t.Errorf("trivial query %d: algorithm provenance missing (%q)", i, res.Stats.Algorithm)
		}
	}
	if m := eng.Metrics(); m.HierarchyBuilds != 0 {
		t.Errorf("short-circuited queries built %d hierarchies, want 0", m.HierarchyBuilds)
	}
	if m := eng.Metrics(); m.Queries != int64(len(trivial)) {
		t.Errorf("Queries = %d, want %d", m.Queries, len(trivial))
	}

	// The canonical key for a short-circuited query must still be stable
	// and clamped, so layered caches store one entry per equivalence class.
	k1 := eng.CacheKey(Query{D: 1 << 30, S: 2, K: 2})
	k2 := eng.CacheKey(Query{D: 1 << 20, S: 2, K: 2})
	if k1 != k2 {
		t.Errorf("beyond-coreness queries got distinct cache keys:\n%s\n%s", k1, k2)
	}

	// Error surface unchanged: invalid parameters and unknown algorithms
	// speak before the short-circuit.
	for _, q := range []Query{
		{D: 0, S: 2, K: 2},
		{D: 2, S: 0, K: 2},
		{D: 2, S: g.L() + 1, K: 0},
		{D: 1 << 30, S: 2, K: 2, Algorithm: "bogus"},
	} {
		if _, err := eng.Search(ctx, q); err == nil {
			t.Errorf("invalid query %+v accepted", q)
		}
	}
}

// TestStatsAlgorithmProvenance checks that every path records which
// algorithm actually ran — including the silent bottom-up fallback for
// graphs beyond the 64-layer top-down limit.
func TestStatsAlgorithmProvenance(t *testing.T) {
	eng := newTestEngine(t)
	ctx := context.Background()
	cases := []struct {
		q    Query
		want string
	}{
		{Query{D: 3, S: 1, K: 2}, "bu"}, // auto, s < l/2
		{Query{D: 3, S: 3, K: 2}, "td"}, // auto, s ≥ l/2
		{Query{D: 3, S: 2, K: 2, Algorithm: AlgoGreedy}, "greedy"},
		{Query{D: 3, S: 2, K: 2, Algorithm: AlgoExact}, "exact"},
	}
	for _, c := range cases {
		res, err := eng.Search(ctx, c.q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Algorithm != c.want {
			t.Errorf("query %+v: Algorithm = %q, want %q", c.q, res.Stats.Algorithm, c.want)
		}
	}

	// Legacy free functions record provenance too.
	res, err := Search(exampleGraph(t), Options{D: 3, S: 3, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Algorithm != "td" {
		t.Errorf("legacy Search: Algorithm = %q, want td", res.Stats.Algorithm)
	}

	// A 65-layer graph exceeds the top-down limit: auto must fall back
	// to bottom-up and say so, where it used to fall back silently.
	b := NewBuilder(4, 65)
	for layer := 0; layer < 65; layer++ {
		b.MustAddEdge(layer, 0, 1)
		b.MustAddEdge(layer, 1, 2)
		b.MustAddEdge(layer, 2, 0)
	}
	wide := b.Build()
	res, err = Search(wide, Options{D: 2, S: 64, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Algorithm != "bu" {
		t.Errorf("wide-graph fallback: Algorithm = %q, want bu", res.Stats.Algorithm)
	}
	wideEng, err := NewEngine(wide, EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err = wideEng.Search(ctx, Query{D: 2, S: 64, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Algorithm != "bu" {
		t.Errorf("engine wide-graph fallback: Algorithm = %q, want bu", res.Stats.Algorithm)
	}

	if _, err := eng.Search(ctx, Query{D: 3, S: 2, K: 2, Algorithm: "nope"}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

// TestEngineStreaming collects the OnCandidate stream and checks every
// streamed candidate is a genuine d-CC of its layer set.
func TestEngineStreaming(t *testing.T) {
	g := exampleGraph(t)
	eng, err := NewEngine(g, EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var streamed []CC
	res, err := eng.Search(context.Background(), Query{
		D: 3, S: 2, K: 2,
		OnCandidate: func(c CC) { streamed = append(streamed, c) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) == 0 {
		t.Fatal("no candidates streamed")
	}
	for _, c := range streamed {
		want, err := CoherentCore(g, c.Layers, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != len(c.Vertices) {
			t.Errorf("streamed candidate %v is not the 3-CC of its layers", c.Layers)
		}
	}
	// The final result's improvements all passed through the stream.
	if len(streamed) < len(res.Cores) {
		t.Errorf("%d cores but only %d streamed improvements", len(res.Cores), len(streamed))
	}
}

// TestStreamedCandidatesUseOriginalIDs pins the id space of streamed
// candidates. The search runs on the vertex-deletion survivors
// renumbered densely; the fixture's lowest ids form a sparse path that
// vertex deletion removes, so every surviving vertex's search id differs
// from its original id. Every CC streamed to Query.OnCandidate — for
// bottom-up, top-down and greedy, serial and parallel — must be exactly
// the d-CC of its layers on the original graph.
func TestStreamedCandidatesUseOriginalIDs(t *testing.T) {
	const path, d = 10, 3
	dense := testutil.RandomCorrelatedGraph(rand.New(rand.NewSource(31)), 40, 5, 0.3, 0.85, 0.08)
	b := NewBuilder(path+dense.N(), dense.L())
	for layer := 0; layer < dense.L(); layer++ {
		for v := 0; v < path; v++ {
			b.MustAddEdge(layer, v, v+1) // 0-1-…-9-10: degree ≤ 2
		}
		for u := 0; u < dense.N(); u++ {
			for _, v := range dense.Neighbors(layer, u) {
				b.MustAddEdge(layer, path+u, path+int(v))
			}
		}
	}
	g := b.Build()
	full := bitset.NewFull(g.N())
	eng, err := NewEngine(g, EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algorithm{AlgoBottomUp, AlgoTopDown, AlgoGreedy} {
		for _, s := range []int{2, g.L() - 1} {
			for _, workers := range []int{1, 2} {
				var mu sync.Mutex
				var streamed []CC
				res, err := eng.Search(context.Background(), Query{
					D: d, S: s, K: 3, Seed: 5, Algorithm: algo, Workers: workers,
					OnCandidate: func(c CC) {
						mu.Lock()
						streamed = append(streamed, c)
						mu.Unlock()
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Stats.PreprocessRemoved < path {
					t.Fatalf("%s s=%d: fixture drifted, only %d vertices deleted", algo, s, res.Stats.PreprocessRemoved)
				}
				if len(streamed) == 0 {
					t.Errorf("%s s=%d workers=%d: nothing streamed", algo, s, workers)
				}
				for _, c := range streamed {
					want := kcore.DCC(g, full, c.Layers, d).Slice32()
					if !slices.Equal(c.Vertices, want) {
						t.Errorf("%s s=%d workers=%d: streamed %v for layers %v, want %v",
							algo, s, workers, c.Vertices, c.Layers, want)
					}
				}
			}
		}
	}
}

// TestEngineCancellation cancels mid-search through the public API and
// checks partial validity plus goroutine hygiene: the worker pool is a
// barrier, so after the call returns no search goroutines may linger.
func TestEngineCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	g := testutil.RandomCorrelatedGraph(rng, 150, 6, 0.3, 0.85, 0.08)
	eng, err := NewEngine(g, EngineConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	res, err := eng.Search(ctx, Query{
		D: 2, S: 3, K: 3, Seed: 1,
		OnCandidate: func(CC) { once.Do(cancel) },
	})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if !res.Stats.Truncated || !res.Stats.Interrupted {
		t.Errorf("Truncated=%v Interrupted=%v, want both true", res.Stats.Truncated, res.Stats.Interrupted)
	}
	if err := Validate(g, Options{D: 2, S: 3, K: 3}, res); err != nil {
		t.Errorf("partial result invalid: %v", err)
	}

	// Goroutine hygiene: allow the runtime a moment to retire finished
	// goroutines, then require we are back near the baseline.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

// TestEngineConcurrentSearches hammers one shared Engine from many
// goroutines (the serving scenario); run under -race in CI.
func TestEngineConcurrentSearches(t *testing.T) {
	ds := datasets.PPI(3)
	eng, err := NewEngine(ds.Graph, EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 12
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := Query{D: 2 + i%2, S: 2 + i%3, K: 3, Seed: int64(i), Workers: 1 + i%2}
			res, err := eng.Search(context.Background(), q)
			if err == nil {
				err = Validate(eng.Graph(), Options{D: q.D, S: q.S, K: q.K}, res)
			}
			errs <- err
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if m := eng.Metrics(); m.CorenessBuilds != 1 || m.HierarchyBuilds > 2 {
		t.Errorf("concurrent searches rebuilt artifacts: %+v", m)
	}
}

// TestEngineDeadline bounds a query by deadline through the public API.
func TestEngineDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := testutil.RandomCorrelatedGraph(rng, 200, 8, 0.3, 0.9, 0.05)
	eng, err := NewEngine(g, EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	res, err := eng.Search(ctx, Query{D: 2, S: 4, K: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Interrupted {
		t.Error("deadline did not mark the result interrupted")
	}
	if err := Validate(g, Options{D: 2, S: 4, K: 5}, res); err != nil {
		t.Error(err)
	}
}

// TestEngineNilGraph rejects construction without a graph.
func TestEngineNilGraph(t *testing.T) {
	if _, err := NewEngine(nil, EngineConfig{}); err == nil {
		t.Error("nil graph accepted")
	}
}
