package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	dccs "repro"
	"repro/internal/datasets"
)

// newHTTPServer wraps an already-constructed Server in an httptest
// listener with shutdown cleanup, for tests that need a non-default
// graph or Config.
func newHTTPServer(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return ts
}

func postBatch(t *testing.T, url string, req BatchRequest) (*http.Response, BatchResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/search/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out BatchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp, out
}

// checkBatchInvariant asserts the documented partition:
// cache_hits + coalesced + engine_runs + errors = len(items).
func checkBatchInvariant(t *testing.T, out BatchResponse) {
	t.Helper()
	if got := out.CacheHits + out.Coalesced + out.EngineRuns + out.Errors; got != len(out.Items) {
		t.Errorf("partition %d+%d+%d+%d = %d, want len(items) = %d",
			out.CacheHits, out.Coalesced, out.EngineRuns, out.Errors, got, len(out.Items))
	}
}

// TestBatchMixedSources drives one batch through every per-item outcome
// at once — cache hit, engine run, in-batch dup, validation error — and
// checks order preservation, the partition invariant, and agreement
// with the single-query endpoint.
func TestBatchMixedSources(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Prime the cache with a single search so the batch sees a hit.
	resp, single := postSearch(t, ts.URL, SearchRequest{D: 3, S: 2, K: 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prime status %d", resp.StatusCode)
	}

	resp, out := postBatch(t, ts.URL, BatchRequest{Queries: []BatchQuery{
		{D: 3, S: 2, K: 2},          // 0: cache hit from the primed single search
		{D: 2, S: 2, K: 2},          // 1: engine run
		{D: 2, S: 2, K: 2},          // 2: dup of 1
		{D: 0, S: 2, K: 2},          // 3: invalid (d < 1) — fails alone
		{D: 2, S: 3, K: 1, Seed: 9}, // 4: engine run
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(out.Items) != 5 {
		t.Fatalf("%d items, want 5", len(out.Items))
	}
	for i, it := range out.Items {
		if it.Index != i {
			t.Errorf("item %d has index %d; order must be preserved", i, it.Index)
		}
	}
	wantSources := []string{"cache", "engine", "dup", "", "engine"}
	for i, want := range wantSources {
		if out.Items[i].Source != want {
			t.Errorf("item %d source %q, want %q", i, out.Items[i].Source, want)
		}
	}
	if out.CacheHits != 1 || out.Coalesced != 1 || out.EngineRuns != 2 || out.Errors != 1 {
		t.Errorf("counters hits=%d coalesced=%d engine=%d errors=%d, want 1/1/2/1",
			out.CacheHits, out.Coalesced, out.EngineRuns, out.Errors)
	}
	checkBatchInvariant(t, out)
	if !strings.Contains(out.Items[3].Error, "d = 0") {
		t.Errorf("item 3 error %q, want a d-validation message", out.Items[3].Error)
	}
	if out.Items[3].Stats != nil || out.Items[3].Cores != nil {
		t.Error("failed item must carry error and nothing else")
	}
	// Cache hit answers must be the primed single-query answer; dups must
	// mirror their leader.
	if out.Items[0].CoverSize != single.CoverSize {
		t.Errorf("cache item cover %d, want %d", out.Items[0].CoverSize, single.CoverSize)
	}
	if out.Items[2].CoverSize != out.Items[1].CoverSize || len(out.Items[2].Cores) != len(out.Items[1].Cores) {
		t.Error("dup item differs from its leader")
	}
	for _, i := range []int{1, 4} {
		if out.Items[i].Stats == nil || out.Items[i].Stats.Algorithm == "" {
			t.Errorf("engine item %d missing stats", i)
		}
	}
	if len(out.WarmedDs) == 0 {
		t.Error("warmed_ds empty, want the distinct thresholds of the misses")
	}
	if out.Graph != "fig1" {
		t.Errorf("graph %q, want fig1", out.Graph)
	}
}

// answerKey is what a search answer must share between the batch and
// the single-search paths: the cores, the cover and the search Stats,
// without the wall-clock engine_secs.
func answerKey(t *testing.T, cores []SearchCC, cover int, truncated bool, stats SearchStats) string {
	t.Helper()
	stats.EngineSecs = 0
	blob, err := json.Marshal(struct {
		Cores     []SearchCC  `json:"cores"`
		CoverSize int         `json:"cover_size"`
		Truncated bool        `json:"truncated"`
		Stats     SearchStats `json:"stats"`
	}{cores, cover, truncated, stats})
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// TestBatchMatchesSingles: one batch of n distinct-d queries on a fresh
// server answers every item byte-equal to the same query sent as a
// single search to its own fresh server, while building the per-layer
// coreness once and one hierarchy per d in one shared sweep.
func TestBatchMatchesSingles(t *testing.T) {
	const n = 8
	// Planted communities of 6..20 vertices on 2..4 of 4 layers, so the
	// d-CCs shrink as d grows; s alternates between 1 (bottom-up) and 3
	// (top-down). Every query's cover differs.
	g := datasets.Generate(datasets.Config{
		Name: "nested", N: 300, Layers: 4, Seed: 3,
		AvgDegree: 3, Gamma: 2.5, Correlation: 0.3,
		Communities: 10, MinSize: 6, MaxSize: 20, MinSupport: 2, MaxSupport: 4,
		PIn: 0.9, Persistent: 1, CrossLayerNoise: 0.05,
	}).Graph
	queries := make([]BatchQuery, n)
	for i := range queries {
		queries[i] = BatchQuery{D: i + 1, S: 1 + 2*(i%2), K: 3, Seed: int64(i + 1)}
	}

	newServer := func() (*Server, *httptest.Server) {
		s, err := New(Config{}, GraphSpec{Name: "nested", Graph: g})
		if err != nil {
			t.Fatal(err)
		}
		return s, newHTTPServer(t, s)
	}

	singles := make([]string, n)
	covers := map[int]bool{}
	for i, q := range queries {
		_, ts := newServer()
		resp, out := postSearch(t, ts.URL, SearchRequest{D: q.D, S: q.S, K: q.K, Seed: q.Seed})
		if resp.StatusCode != http.StatusOK || out.Source != "engine" {
			t.Fatalf("single d=%d: status %d source %q, want 200 from the engine", q.D, resp.StatusCode, out.Source)
		}
		singles[i] = answerKey(t, out.Cores, out.CoverSize, out.Truncated, out.Stats)
		covers[out.CoverSize] = true
	}
	if len(covers) != n {
		t.Fatalf("%d distinct covers over %d queries; the graph must separate every d", len(covers), n)
	}

	s, ts := newServer()
	resp, out := postBatch(t, ts.URL, BatchRequest{Queries: queries})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	if out.EngineRuns != n || out.Errors != 0 || len(out.Items) != n {
		t.Fatalf("engine_runs %d, errors %d, %d items; want %d, 0, %d", out.EngineRuns, out.Errors, len(out.Items), n, n)
	}
	wantDs := make([]int, n)
	for i := range wantDs {
		wantDs[i] = i + 1
	}
	if !reflect.DeepEqual(out.WarmedDs, wantDs) {
		t.Fatalf("warmed_ds %v, want %v", out.WarmedDs, wantDs)
	}
	for i, it := range out.Items {
		if it.Stats == nil {
			t.Fatalf("item %d has no stats", i)
		}
		if got := answerKey(t, it.Cores, it.CoverSize, it.Truncated, *it.Stats); got != singles[i] {
			t.Errorf("item %d (d=%d) differs from its single search:\n batch  %s\n single %s", i, queries[i].D, got, singles[i])
		}
	}
	eng, _ := s.Engine("nested")
	if m := eng.Metrics(); m.CorenessBuilds != 1 || m.HierarchyBuilds != n {
		t.Fatalf("batch engine metrics %+v, want one coreness build and %d hierarchy builds", m, n)
	}
}

func TestBatchRejects(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatchQueries: 2})
	cases := []struct {
		name string
		body string
		code int
	}{
		{"bad json", `{"queries":[`, http.StatusBadRequest},
		{"unknown field", `{"queries":[{"d":2,"s":2,"k":1}],"bogus":1}`, http.StatusBadRequest},
		{"empty batch", `{"queries":[]}`, http.StatusBadRequest},
		{"missing queries", `{}`, http.StatusBadRequest},
		{"negative timeout", `{"queries":[{"d":2,"s":2,"k":1}],"timeout_ms":-1}`, http.StatusBadRequest},
		{"unknown graph", `{"graph":"nope","queries":[{"d":2,"s":2,"k":1}]}`, http.StatusNotFound},
		{"oversized batch", `{"queries":[{"d":2,"s":2,"k":1},{"d":3,"s":2,"k":1},{"d":4,"s":2,"k":1}]}`, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/search/batch", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.code {
				body, _ := io.ReadAll(resp.Body)
				t.Fatalf("status %d, want %d (%s)", resp.StatusCode, tc.code, body)
			}
		})
	}

	t.Run("method", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/search/batch")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET status %d, want 405", resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); allow != http.MethodPost {
			t.Fatalf("Allow %q, want POST", allow)
		}
	})
}

func TestBatchBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxUpdateBytes: 64})
	big := BatchRequest{Queries: make([]BatchQuery, 8)}
	for i := range big.Queries {
		big.Queries[i] = BatchQuery{D: 2, S: 2, K: 1, Seed: int64(i)}
	}
	resp, _ := postBatch(t, ts.URL, big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413 for a body over MaxUpdateBytes", resp.StatusCode)
	}
}

// TestBatchDeadlineTruncatesNotCached expires the whole-batch budget
// mid-computation: the item must come back 200 with a valid truncated
// partial, and the partial must NOT enter the result cache (a second
// identical batch must run the engine again, not serve the partial).
func TestBatchDeadlineTruncatesNotCached(t *testing.T) {
	s, err := New(Config{}, GraphSpec{Name: "slow", Graph: slowGraph()})
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, s)

	slow := BatchQuery{D: 2, S: 8, K: 10, Algorithm: "exact"}
	for round := 0; round < 2; round++ {
		resp, out := postBatch(t, ts.URL, BatchRequest{
			Queries:   []BatchQuery{slow},
			TimeoutMS: 50,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d: status %d", round, resp.StatusCode)
		}
		it := out.Items[0]
		if it.Error != "" {
			t.Fatalf("round %d: item error %q, want a truncated success", round, it.Error)
		}
		if !it.Truncated {
			t.Fatalf("round %d: truncated=false after the batch budget expired", round)
		}
		// Source "engine" on BOTH rounds is the caching assertion: had the
		// round-0 partial been cached, round 1 would answer from "cache".
		if it.Source != "engine" {
			t.Fatalf("round %d: source %q, want engine (truncated partials must not be cached)", round, it.Source)
		}
		checkBatchInvariant(t, out)
	}
}

// TestBatchItemTimeout gives one item a tight per-item deadline inside
// a generous batch budget: that item truncates, its sibling completes.
func TestBatchItemTimeout(t *testing.T) {
	s, err := New(Config{}, GraphSpec{Name: "slow", Graph: slowGraph()})
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, s)

	resp, out := postBatch(t, ts.URL, BatchRequest{Queries: []BatchQuery{
		{D: 2, S: 8, K: 10, Algorithm: "exact", TimeoutMS: 50},
		{D: 2, S: 2, K: 1},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !out.Items[0].Truncated {
		t.Error("item 0 not truncated despite its 50ms per-item deadline")
	}
	if out.Items[1].Error != "" || out.Items[1].Truncated {
		t.Errorf("item 1 = %+v, want an untruncated success", out.Items[1])
	}
	checkBatchInvariant(t, out)
}

// TestBatchWeightClamp sends more distinct misses than MaxInflight: the
// admission weight must clamp (otherwise the semaphore could never grant
// it) and the batch must still answer every item.
func TestBatchWeightClamp(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxInflight: 2})
	qs := make([]BatchQuery, 6)
	for i := range qs {
		qs[i] = BatchQuery{D: i%3 + 1, S: 2, K: 1, Seed: int64(i)}
	}
	resp, out := postBatch(t, ts.URL, BatchRequest{Queries: qs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if out.Errors != 0 || len(out.Items) != 6 {
		t.Fatalf("items=%d errors=%d, want 6/0", len(out.Items), out.Errors)
	}
	checkBatchInvariant(t, out)
}

// TestBatchSaturated429 wedges the single admission slot with a slow
// query and checks that a batch needing a fresh computation is rejected
// whole with 429 + Retry-After (QueueDepth < 0 disables queueing).
func TestBatchSaturated429(t *testing.T) {
	s, err := New(Config{MaxInflight: 1, QueueDepth: -1},
		GraphSpec{Name: "slow", Graph: slowGraph()})
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, s)

	done := make(chan struct{})
	go func() {
		defer close(done)
		postSearch(t, ts.URL, slowQuery(2000))
	}()
	// Wait until the slow query holds the only inflight slot.
	deadline := time.Now().Add(5 * time.Second)
	for s.admission.inflight.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow query never acquired the inflight slot")
		}
		time.Sleep(5 * time.Millisecond)
	}

	body, _ := json.Marshal(BatchRequest{Queries: []BatchQuery{{D: 2, S: 2, K: 1, Seed: 77}}})
	resp, err := http.Post(ts.URL+"/v1/search/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 while saturated", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without a Retry-After header")
	}
	<-done
}

// TestBatchDraining503 checks the batch endpoint honors drain: after
// Shutdown no new batch is accepted.
func TestBatchDraining503(t *testing.T) {
	g, _ := datasets.FourLayerExample()
	s, err := New(Config{}, GraphSpec{Name: "fig1", Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	resp, _ := postBatch(t, ts.URL, BatchRequest{Queries: []BatchQuery{{D: 2, S: 2, K: 1}}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 while draining", resp.StatusCode)
	}
}

// TestBatchMetrics checks the batch counters reach the /metrics catalog.
func TestBatchMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, out := postBatch(t, ts.URL, BatchRequest{Queries: []BatchQuery{
		{D: 2, S: 2, K: 1},
		{D: 2, S: 2, K: 1},
		{D: 0, S: 2, K: 1},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	checkBatchInvariant(t, out)

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	blob, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(blob)
	for _, want := range []string{
		"dccs_batch_requests_total 1",
		`dccs_batch_items_total{source="engine"} 1`,
		`dccs_batch_items_total{source="dup"} 1`,
		`dccs_batch_items_total{source="error"} 1`,
		"dccs_batch_warmed_ds_total 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestHealthzGraphStatus checks /healthz reports per-graph version and
// mmap mode.
func TestHealthzGraphStatus(t *testing.T) {
	g, _ := datasets.FourLayerExample()
	s, err := New(Config{}, GraphSpec{Name: "fig1", Graph: g, Mmap: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, s)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Status      string        `json:"status"`
		GraphStatus []graphHealth `json:"graph_status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Status != "ok" || len(out.GraphStatus) != 1 {
		t.Fatalf("healthz %+v, want ok with one graph", out)
	}
	gs := out.GraphStatus[0]
	if gs.Name != "fig1" || gs.Version != 0 || !gs.Mmap {
		t.Fatalf("graph_status %+v, want {fig1 0 true}", gs)
	}
}

// TestShutdownReportsSnapshotError points SnapshotDir below a regular
// file so the final save cannot create its directory: Shutdown must
// surface the failure instead of logging-and-forgetting (the PR 9 fix).
func TestShutdownReportsSnapshotError(t *testing.T) {
	plain := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(plain, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	g, _ := datasets.FourLayerExample()
	s, err := New(Config{SnapshotDir: filepath.Join(plain, "snaps")},
		GraphSpec{Name: "fig1", Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err = s.Shutdown(ctx)
	if err == nil {
		t.Fatal("Shutdown returned nil despite the snapshot dir being uncreatable")
	}
	if !strings.Contains(err.Error(), "snapshot") {
		t.Fatalf("Shutdown error %q does not mention the snapshot failure", err)
	}
}

// TestBatchDupHonorsItemTimeout: an item shares only a computation run
// under its own deadline. In [{q, timeout_ms: 1}, {q}] under a 5 s
// budget, item 1 must not inherit item 0's 1 ms partial.
func TestBatchDupHonorsItemTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	q := BatchQuery{D: 3, S: 2, K: 2}
	tight := q
	tight.TimeoutMS = 1
	resp, out := postBatch(t, ts.URL, BatchRequest{Queries: []BatchQuery{tight, q}, TimeoutMS: 5000})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if it := out.Items[1]; it.Error != "" || it.Source == "dup" || it.Truncated {
		t.Fatalf("item 1 = %+v, want an untruncated answer of its own", it)
	}
	checkBatchInvariant(t, out)
}

// TestBatchCoalescesWithSingles wedges the only admission slot with a
// slow blocker, queues a request behind it, then sends the same query
// through the other endpoint: whichever endpoint came first, the second
// request joins the first one's flight instead of computing again.
func TestBatchCoalescesWithSingles(t *testing.T) {
	single := SearchRequest{D: 2, S: 2, K: 3, Seed: 42}
	batch := BatchRequest{Queries: []BatchQuery{{D: 2, S: 2, K: 3, Seed: 42}}}
	for _, singleFirst := range []bool{true, false} {
		name := "batch first"
		if singleFirst {
			name = "single first"
		}
		t.Run(name, func(t *testing.T) {
			s, err := New(Config{MaxInflight: 1, QueueDepth: 16}, GraphSpec{Name: "slow", Graph: slowGraph()})
			if err != nil {
				t.Fatal(err)
			}
			ts := newHTTPServer(t, s)

			blockerDone := make(chan struct{})
			go func() {
				defer close(blockerDone)
				if resp, _ := postSearch(t, ts.URL, slowQuery(1000)); resp.StatusCode != http.StatusOK {
					t.Errorf("blocker status %d", resp.StatusCode)
				}
			}()
			waitFor(t, func() bool { return s.admission.inflight.Load() == 1 })

			var singleOut SearchResponse
			var batchOut BatchResponse
			sendSingle := func() {
				resp, out := postSearch(t, ts.URL, single)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("single status %d", resp.StatusCode)
				}
				singleOut = out
			}
			sendBatch := func() {
				resp, out := postBatch(t, ts.URL, batch)
				if resp.StatusCode != http.StatusOK || len(out.Items) != 1 {
					t.Errorf("batch status %d with %d items", resp.StatusCode, len(out.Items))
				}
				batchOut = out
			}
			first, second := sendBatch, sendSingle
			if singleFirst {
				first, second = sendSingle, sendBatch
			}
			firstDone := make(chan struct{})
			go func() {
				defer close(firstDone)
				first()
			}()
			waitFor(t, func() bool { return s.admission.queued.Load() == 1 })
			second()
			<-firstDone
			<-blockerDone
			if t.Failed() {
				return
			}

			wantSingle, wantItem := "coalesced", "engine"
			if singleFirst {
				wantSingle, wantItem = "engine", "dup"
			}
			if got := batchOut.Items[0].Source; got != wantItem {
				t.Errorf("batch item source %q, want %q", got, wantItem)
			}
			if singleOut.Source != wantSingle {
				t.Errorf("single source %q, want %q", singleOut.Source, wantSingle)
			}
			checkBatchInvariant(t, batchOut)
			eng, _ := s.Engine("slow")
			if q := eng.Metrics().Queries; q != 2 {
				t.Fatalf("engine served %d queries, want 2 (blocker + one shared computation)", q)
			}
		})
	}
}

// exactLimitGraph has one planted edge per 3-subset of its 10 layers,
// between a pair of vertices of its own and present in exactly those
// layers, so at d = 1 and s = 3 every layer subset has a distinct
// coherent core: 120 candidates, above the exact solver's limit of 64.
func exactLimitGraph() *dccs.Graph {
	const layers = 10
	b := dccs.NewBuilder(2*120, layers)
	v := 0
	for i := 0; i < layers; i++ {
		for j := i + 1; j < layers; j++ {
			for k := j + 1; k < layers; k++ {
				for _, l := range []int{i, j, k} {
					b.MustAddEdge(l, v, v+1)
				}
				v += 2
			}
		}
	}
	return b.Build()
}

// TestBatchItemBounds checks the query bounds item by item: a k above
// maxK and an exact query the solver refuses fail alone, and timeout_ms
// at the int64 limit is capped at MaxTimeout instead of overflowing into
// an already-expired deadline.
func TestBatchItemBounds(t *testing.T) {
	g, _ := datasets.FourLayerExample()
	s, err := New(Config{}, GraphSpec{Name: "fig1", Graph: g}, GraphSpec{Name: "wide", Graph: exactLimitGraph()})
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, s)

	resp, out := postBatch(t, ts.URL, BatchRequest{Graph: "fig1", TimeoutMS: math.MaxInt64, Queries: []BatchQuery{
		{D: 3, S: 2, K: maxK + 1},                             // 0: k over the bound
		{D: 3, S: 2, K: 1099511627776},                        // 1: k that would exhaust the heap
		{D: 3, S: 2, K: maxK, Seed: 1},                        // 2: k at the bound
		{D: 3, S: 2, K: 2, Seed: 2, TimeoutMS: math.MaxInt64}, // 3: timeout capped, not overflowed
		{D: 3, S: 2, K: 2, Seed: 3},                           // 4: the batch budget capped, not overflowed
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	for _, i := range []int{0, 1} {
		if !strings.Contains(out.Items[i].Error, "result count k") {
			t.Errorf("item %d error %q, want the k bound", i, out.Items[i].Error)
		}
	}
	for _, i := range []int{2, 3, 4} {
		if it := out.Items[i]; it.Error != "" || it.Truncated || it.CoverSize == 0 {
			t.Errorf("item %d = %+v, want a full answer", i, it)
		}
	}
	checkBatchInvariant(t, out)

	resp, out = postBatch(t, ts.URL, BatchRequest{Graph: "wide", Queries: []BatchQuery{
		{D: 1, S: 3, K: 2, Algorithm: "exact"}, // the solver refuses 120 candidates
		{D: 1, S: 3, K: 2},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !strings.Contains(out.Items[0].Error, "exact solver") {
		t.Errorf("item 0 error %q, want the exact solver's limit", out.Items[0].Error)
	}
	if it := out.Items[1]; it.Error != "" || it.CoverSize == 0 {
		t.Errorf("item 1 = %+v, want an answer beside its failed batchmate", it)
	}
	checkBatchInvariant(t, out)
}
