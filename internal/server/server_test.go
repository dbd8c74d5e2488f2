package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	dccs "repro"
	"repro/internal/datasets"
	"repro/internal/testutil"
)

// newTestServer builds a Server over the paper's 15-vertex Fig 1
// example — queries answer in microseconds — plus an httptest listener.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	g, _ := datasets.FourLayerExample()
	s, err := New(cfg, GraphSpec{Name: "fig1", Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, ts
}

// slowGraph is a fixture whose exact-algorithm query below runs for
// roughly a second uncancelled (48620 candidate subsets), yet responds
// to cancellation at candidate granularity — the workhorse for the
// deadline, drain and coalescing tests.
func slowGraph() *dccs.Graph {
	rng := rand.New(rand.NewSource(7))
	return testutil.RandomGraph(rng, 150, 16, 0.1)
}

func slowQuery(timeoutMS int64) SearchRequest {
	return SearchRequest{D: 2, S: 8, K: 10, Algorithm: "exact", TimeoutMS: timeoutMS}
}

func postSearch(t *testing.T, url string, req SearchRequest) (*http.Response, SearchResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/search", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out SearchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp, out
}

func TestSearchEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, out := postSearch(t, ts.URL, SearchRequest{D: 3, S: 2, K: 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if out.Source != "engine" || out.Truncated {
		t.Fatalf("source %q truncated %v, want engine/false", out.Source, out.Truncated)
	}
	// Cross-check against a direct engine call: the HTTP layer must not
	// change answers.
	eng, _ := s.Engine("fig1")
	want, err := eng.Search(context.Background(), dccs.Query{D: 3, S: 2, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if out.CoverSize != want.CoverSize || len(out.Cores) != len(want.Cores) {
		t.Fatalf("HTTP answer (cover %d, %d cores) differs from engine (cover %d, %d cores)",
			out.CoverSize, len(out.Cores), want.CoverSize, len(want.Cores))
	}
	if out.Stats.Algorithm == "" {
		t.Fatal("missing stats.algorithm")
	}
}

func TestSearchRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		body string
		code int
	}{
		{"bad json", `{"d":3,`, http.StatusBadRequest},
		{"unknown field", `{"d":3,"s":2,"k":2,"bogus":1}`, http.StatusBadRequest},
		{"d zero", `{"d":0,"s":2,"k":2}`, http.StatusBadRequest},
		{"d negative", `{"d":-4,"s":2,"k":2}`, http.StatusBadRequest},
		{"s zero", `{"d":3,"s":0,"k":2}`, http.StatusBadRequest},
		{"s beyond layers", `{"d":3,"s":5,"k":2}`, http.StatusBadRequest},
		{"k zero", `{"d":3,"s":2,"k":0}`, http.StatusBadRequest},
		{"k over the bound", `{"d":3,"s":2,"k":1025}`, http.StatusBadRequest},
		{"k exhausting the heap", `{"d":3,"s":2,"k":1099511627776}`, http.StatusBadRequest},
		{"bad algorithm", `{"d":3,"s":2,"k":2,"algorithm":"dijkstra"}`, http.StatusBadRequest},
		{"negative budget", `{"d":3,"s":2,"k":2,"max_tree_nodes":-1}`, http.StatusBadRequest},
		{"negative timeout", `{"d":3,"s":2,"k":2,"timeout_ms":-5}`, http.StatusBadRequest},
		{"unknown graph", `{"graph":"nope","d":3,"s":2,"k":2}`, http.StatusNotFound},
		{"body over 1 MiB", `{"d":3,"s":2,"k":2,"graph":"` + strings.Repeat("x", 1<<20) + `"}`, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/search", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var out ErrorResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.code {
				t.Fatalf("status %d, want %d (%s)", resp.StatusCode, tc.code, out.Error)
			}
			if out.Error == "" {
				t.Fatal("error body missing")
			}
		})
	}
	t.Run("get method", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/search")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("status %d, want 405", resp.StatusCode)
		}
	})
	// The engine refusing a query is the client's error, not the
	// server's: 400 with the engine's reason, never 500.
	t.Run("exact over its candidate limit", func(t *testing.T) {
		s, err := New(Config{}, GraphSpec{Name: "wide", Graph: exactLimitGraph()})
		if err != nil {
			t.Fatal(err)
		}
		ts := newHTTPServer(t, s)
		resp, err := http.Post(ts.URL+"/v1/search", "application/json", strings.NewReader(`{"d":1,"s":3,"k":2,"algorithm":"exact"}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(out.Error, "exact solver") {
			t.Fatalf("status %d (%s), want 400 naming the exact solver's limit", resp.StatusCode, out.Error)
		}
	})
}

// TestSearchTimeoutCappedNotOverflowed: timeout_ms at the int64 limit
// must be capped at MaxTimeout, not overflow the conversion to a
// Duration into an already-expired deadline.
func TestSearchTimeoutCappedNotOverflowed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, out := postSearch(t, ts.URL, SearchRequest{D: 3, S: 2, K: 2, TimeoutMS: math.MaxInt64})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if out.Truncated || out.CoverSize == 0 || out.Source != "engine" {
		t.Fatalf("answer truncated=%v cover %d source %q, want a full engine answer", out.Truncated, out.CoverSize, out.Source)
	}
}

func TestSearchCacheHit(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := SearchRequest{D: 3, S: 2, K: 2, Seed: 9}
	_, first := postSearch(t, ts.URL, req)
	_, second := postSearch(t, ts.URL, req)
	if first.Source != "engine" {
		t.Fatalf("first source %q, want engine", first.Source)
	}
	if second.Source != "cache" {
		t.Fatalf("second source %q, want cache", second.Source)
	}
	if second.CoverSize != first.CoverSize {
		t.Fatalf("cache changed the answer: %d vs %d", second.CoverSize, first.CoverSize)
	}
	if eng, _ := s.Engine("fig1"); eng.Metrics().Queries != 1 {
		t.Fatalf("engine ran %d times, want 1", eng.Metrics().Queries)
	}

	// Canonicalization: a query differing only in presentation — explicit
	// "auto" algorithm, explicit workers=1 instead of the equivalent 0 —
	// hits the same entry.
	req.Algorithm, req.Workers = "auto", 1
	if _, out := postSearch(t, ts.URL, req); out.Source != "cache" {
		t.Fatalf("canonically equal query answered from %q, want cache", out.Source)
	}

	// no_cache bypasses the lookup but not the computation accounting.
	req.NoCache = true
	if _, out := postSearch(t, ts.URL, req); out.Source != "engine" {
		t.Fatalf("no_cache query answered from %q, want engine", out.Source)
	}
}

// TestCacheCountsOneLookupPerQuery pins the result-cache counters to
// one lookup per query that asks the cache: a search and a batch holding
// a leader and its duplicate miss 3 times, and the same requests again
// hit 3 times. A leader's recheck after joining its flight counts
// nothing.
func TestCacheCountsOneLookupPerQuery(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	search := SearchRequest{D: 3, S: 2, K: 2}
	batch := BatchRequest{Queries: []BatchQuery{{D: 2, S: 2, K: 1}, {D: 2, S: 2, K: 1}}}
	for round, want := range []struct{ hits, misses int64 }{{0, 3}, {3, 3}} {
		if resp, _ := postSearch(t, ts.URL, search); resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d: search status %d", round, resp.StatusCode)
		}
		if resp, _ := postBatch(t, ts.URL, batch); resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d: batch status %d", round, resp.StatusCode)
		}
		if h, m := s.cache.hits.Load(), s.cache.misses.Load(); h != want.hits || m != want.misses {
			t.Fatalf("round %d: %d hits and %d misses, want %d and %d", round, h, m, want.hits, want.misses)
		}
	}
}

func TestSearchDeadlineReturnsTruncatedPartial(t *testing.T) {
	g := slowGraph()
	s, err := New(Config{}, GraphSpec{Name: "slow", Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, out := postSearch(t, ts.URL, slowQuery(50))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 with a partial result", resp.StatusCode)
	}
	if !out.Truncated {
		t.Fatal("deadline-bounded query not marked truncated")
	}
	// Wall-clock-truncated results must not be cached: the same query
	// again computes afresh rather than replaying the partial answer.
	if _, again := postSearch(t, ts.URL, slowQuery(50)); again.Source != "engine" {
		t.Fatalf("truncated result was served from %q, want engine", again.Source)
	}
}

// TestCoalescing wedges the single computation slot with a slow blocker
// query, fires identical queries while it holds the slot, and asserts
// they collapse onto exactly one engine computation.
func TestCoalescing(t *testing.T) {
	g := slowGraph()
	s, err := New(Config{MaxInflight: 1, QueueDepth: 16}, GraphSpec{Name: "slow", Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	blockerDone := make(chan struct{})
	go func() {
		defer close(blockerDone)
		if resp, _ := postSearch(t, ts.URL, slowQuery(400)); resp.StatusCode != http.StatusOK {
			t.Errorf("blocker status %d", resp.StatusCode)
		}
	}()
	waitFor(t, func() bool { return s.admission.inflight.Load() == 1 })

	// While the blocker owns the slot, identical fast queries pile up:
	// one flight leader queued on admission, the rest coalesced onto it.
	const clients = 6
	req := SearchRequest{D: 2, S: 2, K: 3, Seed: 42}
	sources := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, out := postSearch(t, ts.URL, req)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: status %d", i, resp.StatusCode)
				return
			}
			sources[i] = out.Source
		}(i)
	}
	wg.Wait()
	<-blockerDone

	counts := map[string]int{}
	for _, src := range sources {
		counts[src]++
	}
	if counts["engine"] != 1 {
		t.Fatalf("%d engine computations for %d identical queries (sources %v), want exactly 1", counts["engine"], clients, counts)
	}
	if counts["coalesced"] == 0 {
		t.Fatalf("no coalesced responses among %v", counts)
	}
	// Engine-level ground truth: blocker + one leader, nothing else.
	eng, _ := s.Engine("slow")
	if q := eng.Metrics().Queries; q != 2 {
		t.Fatalf("engine served %d queries, want 2 (blocker + coalesced leader)", q)
	}
	if got := s.metrics.searchCoalesced.count(); got != int64(counts["coalesced"]) {
		t.Fatalf("coalesced counter %d, responses %d", got, counts["coalesced"])
	}
}

// TestShutdownDrains verifies the drain contract: Shutdown cancels the
// in-flight search, whose client still receives its valid partial
// result marked truncated, and subsequent requests are rejected.
func TestShutdownDrains(t *testing.T) {
	g := slowGraph()
	s, err := New(Config{}, GraphSpec{Name: "slow", Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type answer struct {
		resp *http.Response
		out  SearchResponse
	}
	got := make(chan answer, 1)
	go func() {
		resp, out := postSearch(t, ts.URL, slowQuery(30_000))
		got <- answer{resp, out}
	}()
	waitFor(t, func() bool { return s.admission.inflight.Load() == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown did not drain: %v", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("drain took %v; cancellation did not reach the search", waited)
	}
	a := <-got
	if a.resp.StatusCode != http.StatusOK {
		t.Fatalf("drained query status %d, want 200", a.resp.StatusCode)
	}
	if !a.out.Truncated {
		t.Fatal("drained query result not marked truncated")
	}
	if resp, _ := postSearch(t, ts.URL, SearchRequest{D: 2, S: 2, K: 1}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown status %d, want 503", resp.StatusCode)
	}
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("draining healthz status %d, want 503", resp.StatusCode)
		}
	}
}

// TestQueueFullBackpressure fills the only slot and sets a zero-depth
// queue, so a second distinct query must bounce with 429.
func TestQueueFullBackpressure(t *testing.T) {
	g := slowGraph()
	s, err := New(Config{MaxInflight: 1, QueueDepth: -1}, GraphSpec{Name: "slow", Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	blockerDone := make(chan struct{})
	go func() {
		defer close(blockerDone)
		postSearch(t, ts.URL, slowQuery(400))
	}()
	waitFor(t, func() bool { return s.admission.inflight.Load() == 1 })

	resp, _ := postSearch(t, ts.URL, SearchRequest{D: 2, S: 3, K: 1, Seed: 77})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	<-blockerDone
	if s.metrics.rejectedQueueFull.Load() == 0 {
		t.Fatal("queue_full rejection not counted")
	}
}

func TestMultiGraphRouting(t *testing.T) {
	a, _ := datasets.FourLayerExample()
	rng := rand.New(rand.NewSource(3))
	b := testutil.RandomGraph(rng, 40, 3, 0.2)
	s, err := New(Config{}, GraphSpec{Name: "a", Graph: a}, GraphSpec{Name: "b", Graph: b})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Ambiguous: two graphs, no name.
	if resp, _ := postSearch(t, ts.URL, SearchRequest{D: 3, S: 2, K: 2}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unnamed graph with two served: status %d, want 400", resp.StatusCode)
	}
	resp, out := postSearch(t, ts.URL, SearchRequest{Graph: "a", D: 3, S: 2, K: 2})
	if resp.StatusCode != http.StatusOK || out.Graph != "a" {
		t.Fatalf("status %d graph %q", resp.StatusCode, out.Graph)
	}

	httpResp, err := http.Get(ts.URL + "/v1/graphs")
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	var listing struct {
		Graphs []GraphInfo `json:"graphs"`
	}
	if err := json.NewDecoder(httpResp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Graphs) != 2 || listing.Graphs[0].Name != "a" || listing.Graphs[1].Name != "b" {
		t.Fatalf("graph listing %+v", listing.Graphs)
	}
	if listing.Graphs[0].Queries != 1 {
		t.Fatalf("graph a served %d queries, want 1", listing.Graphs[0].Queries)
	}
	if listing.Graphs[0].Fingerprint == listing.Graphs[1].Fingerprint {
		t.Fatal("distinct graphs share a fingerprint")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postSearch(t, ts.URL, SearchRequest{D: 3, S: 2, K: 2})
	postSearch(t, ts.URL, SearchRequest{D: 3, S: 2, K: 2})

	scrape := func() string {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	body := scrape()
	for _, want := range []string{
		`dccs_search_requests_total{source="engine"} 1`,
		`dccs_search_requests_total{source="cache"} 1`,
		`dccs_cache_hits_total 1`,
		`dccs_cache_entries 1`,
		`dccs_engine_queries_total{graph="fig1"} 1`,
		`dccs_engine_coreness_builds_total{graph="fig1"} 1`,
		"# TYPE dccs_uptime_seconds gauge",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// The same search past the result cache runs the engine again, and
	// its coherent cores come out of the d-CC memo the first run filled.
	postSearch(t, ts.URL, SearchRequest{D: 3, S: 2, K: 2, NoCache: true})
	postSearch(t, ts.URL, SearchRequest{D: 3, S: 2, K: 2, NoCache: true})
	body = scrape()
	for _, want := range []string{
		"# TYPE dccs_engine_memo_hits_total counter",
		"# TYPE dccs_engine_memo_misses_total counter",
		"# TYPE dccs_engine_memo_bytes gauge",
		`dccs_engine_memo_bytes{graph="fig1"} `,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	sample := func(name string) int64 {
		t.Helper()
		var v int64
		for _, line := range strings.Split(body, "\n") {
			if rest, ok := strings.CutPrefix(line, name+`{graph="fig1"} `); ok {
				if _, err := fmt.Sscan(rest, &v); err != nil {
					t.Fatalf("line %q: %v", line, err)
				}
				return v
			}
		}
		t.Fatalf("metrics missing %s", name)
		return 0
	}
	if hits := sample("dccs_engine_memo_hits_total"); hits <= 0 {
		t.Errorf("memo hits = %d after a repeated no_cache search, want > 0", hits)
	}
	// Three searches ran on the engine, each on a compact space it built
	// or reused (the first one built it).
	builds, reuses := sample("dccs_engine_space_builds_total"), sample("dccs_engine_space_reuses_total")
	if builds < 1 || builds+reuses != sample("dccs_engine_queries_total") {
		t.Errorf("space builds %d + reuses %d, want at least one build and one per engine query", builds, reuses)
	}
}

// TestSnapshotWarmStart round-trips artifacts through the snapshot dir:
// a second server over the same graph must answer its first query with
// zero artifact builds.
func TestSnapshotWarmStart(t *testing.T) {
	dir := t.TempDir()
	g, _ := datasets.FourLayerExample()

	s1, err := New(Config{SnapshotDir: dir}, GraphSpec{Name: "fig1", Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	postSearch(t, ts1.URL, SearchRequest{D: 3, S: 2, K: 2})
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	s2, err := New(Config{SnapshotDir: dir}, GraphSpec{Name: "fig1", Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Shutdown(context.Background())
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	resp, out := postSearch(t, ts2.URL, SearchRequest{D: 3, S: 2, K: 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	eng, _ := s2.Engine("fig1")
	m := eng.Metrics()
	if m.CorenessBuilds != 0 || m.HierarchyBuilds != 0 {
		t.Fatalf("warm-started server rebuilt artifacts: %+v", m)
	}
	if out.CoverSize == 0 {
		t.Fatal("warm-started answer empty")
	}
}

// TestSnapshotUpgradeFromEarlierFormat drives the upgrade path of a
// snapshot written by an earlier release: internal/core's
// testdata/union_v2.mlgs is a format-2 snapshot of the graph below. The
// server logs that it ignores the file, serves cold, and its next save
// writes the current format, from which a second server starts warm.
func TestSnapshotUpgradeFromEarlierFormat(t *testing.T) {
	dir := t.TempDir()
	old, err := os.ReadFile(filepath.Join("..", "core", "testdata", "union_v2.mlgs"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "compat.mlgs"), old, 0o644); err != nil {
		t.Fatal(err)
	}
	g := testutil.RandomCorrelatedGraph(rand.New(rand.NewSource(1717)), 40, 4, 0.3, 0.85, 0.05)
	var mu sync.Mutex
	var logs []string
	cfg := Config{SnapshotDir: dir, Logf: func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		logs = append(logs, fmt.Sprintf(format, args...))
	}}
	logged := func(parts ...string) bool {
		mu.Lock()
		defer mu.Unlock()
		for _, line := range logs {
			all := true
			for _, p := range parts {
				all = all && strings.Contains(line, p)
			}
			if all {
				return true
			}
		}
		return false
	}
	req := SearchRequest{D: 2, S: 2, K: 3}

	s1, err := New(cfg, GraphSpec{Name: "compat", Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	if !logged("compat: ignoring snapshot", "version 2") {
		t.Fatalf("no ignoring-snapshot line naming format version 2 in %q", logs)
	}
	ts1 := httptest.NewServer(s1.Handler())
	resp, want := postSearch(t, ts1.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if eng, _ := s1.Engine("compat"); eng.Metrics().CorenessBuilds != 1 {
		t.Fatalf("server over an ignored snapshot did not build cold: %+v", eng.Metrics())
	}
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	saved, err := os.ReadFile(filepath.Join(dir, "compat.mlgs"))
	if err != nil {
		t.Fatal(err)
	}
	if len(saved) < 8 || binary.LittleEndian.Uint32(saved[4:]) != 5 {
		t.Fatal("the save after an ignored snapshot did not write format version 5")
	}
	s2, err := New(cfg, GraphSpec{Name: "compat", Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Shutdown(context.Background())
	if !logged("compat: warm-started from") {
		t.Fatalf("no warm-start line in %q", logs)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	resp, got := postSearch(t, ts2.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if eng, _ := s2.Engine("compat"); eng.Metrics().CorenessBuilds != 0 || eng.Metrics().HierarchyBuilds != 0 {
		t.Fatalf("server over the re-saved snapshot rebuilt artifacts: %+v", eng.Metrics())
	}
	if got.CoverSize != want.CoverSize || !reflect.DeepEqual(got.Cores, want.Cores) {
		t.Fatal("warm-started server answers differently")
	}
}

// TestPeriodicSnapshots verifies the background persistence loop writes
// without being prompted by shutdown.
func TestPeriodicSnapshots(t *testing.T) {
	dir := t.TempDir()
	g, _ := datasets.FourLayerExample()
	s, err := New(Config{SnapshotDir: dir, SnapshotInterval: 20 * time.Millisecond},
		GraphSpec{Name: "fig1", Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	postSearch(t, ts.URL, SearchRequest{D: 3, S: 2, K: 2})
	waitFor(t, func() bool { return s.metrics.snapshotSaves.Load() >= 1 })
}

func TestNewRejectsBadSpecs(t *testing.T) {
	g, _ := datasets.FourLayerExample()
	if _, err := New(Config{}); err == nil {
		t.Fatal("no graphs accepted")
	}
	if _, err := New(Config{}, GraphSpec{Name: "", Graph: g}); err == nil {
		t.Fatal("unnamed graph accepted")
	}
	if _, err := New(Config{}, GraphSpec{Name: "x", Graph: g}, GraphSpec{Name: "x", Graph: g}); err == nil {
		t.Fatal("duplicate name accepted")
	}
}

// waitFor polls cond for up to 5 seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}

// TestConcurrentMixedLoad hammers one server with a mix of hits, misses
// and coalescible queries; run under -race it is the cache/flight/
// admission stress test.
func TestConcurrentMixedLoad(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheEntries: 8, MaxInflight: 4, QueueDepth: 256})
	const (
		workers = 16
		perW    = 25
	)
	query := func(w, i int) SearchRequest {
		return SearchRequest{
			D: 2 + (i+w)%2, S: 1 + (i+w)%3, K: 1 + i%4,
			Seed: int64(i % 12), // small space → constant churn on 8 entries
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				if w%2 == 1 {
					// Every other worker posts batches over the same query
					// space: the six (d, s) shapes of its step, so each batch
					// shares keys with the singles of that step, plus an
					// in-batch duplicate.
					var qs []BatchQuery
					for _, v := range []int{0, 1, 2, 3, 4, 5, 0} {
						r := query(w+v, i)
						qs = append(qs, BatchQuery{D: r.D, S: r.S, K: r.K, Seed: r.Seed})
					}
					resp, out := postBatch(t, ts.URL, BatchRequest{Queries: qs})
					if resp.StatusCode != http.StatusOK || out.Errors != 0 {
						t.Errorf("worker %d: batch status %d with %d errors", w, resp.StatusCode, out.Errors)
						return
					}
					checkBatchInvariant(t, out)
					continue
				}
				req := query(w, i)
				resp, out := postSearch(t, ts.URL, req)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("worker %d: status %d", w, resp.StatusCode)
					return
				}
				if out.CoverSize < 0 || out.Source == "" {
					t.Errorf("worker %d: bad response %+v", w, out)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := s.cache.Len(); got > 8 {
		t.Fatalf("cache grew to %d entries, capacity 8", got)
	}
	if s.cache.evictions.Load() == 0 {
		t.Fatal("stress never evicted despite capacity 8")
	}
	if s.metrics.searchEngine.count() == 0 {
		t.Fatal("no engine computations recorded")
	}
	// Every answer labelled "engine" ran the engine once, and no
	// computation went unlabelled.
	eng, _ := s.Engine("fig1")
	if q, engine := eng.Metrics().Queries, s.metrics.searchEngine.count()+s.metrics.batchItemsEng.Load(); q != engine {
		t.Fatalf("engine served %d queries, but %d answers are engine-sourced", q, engine)
	}
}
