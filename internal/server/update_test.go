package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	dccs "repro"
	"repro/internal/datasets"
	"repro/internal/testutil"
)

// newMutableTestServer is newTestServer with the Fig 1 graph flagged
// mutable, so POST /v1/graphs/fig1/edges is live.
func newMutableTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	g, _ := datasets.FourLayerExample()
	s, err := New(cfg, GraphSpec{Name: "fig1", Graph: g, Mutable: true})
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

func postUpdates(t *testing.T, url, graph string, req UpdateRequest) (*http.Response, UpdateResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/graphs/"+graph+"/edges", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out UpdateResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp, out
}

func TestUpdateEndToEnd(t *testing.T) {
	s, ts := newMutableTestServer(t, Config{})
	resp, out := postUpdates(t, ts.URL, "fig1", UpdateRequest{Updates: []UpdateEdge{
		{Op: "insert", Layer: 0, U: 0, V: 9},
		{Op: "insert", Layer: 1, U: 0, V: 9},
		{Op: "delete", Layer: 0, U: 0, V: 9},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if out.Graph != "fig1" || out.Version != 1 || out.Inserted != 2 || out.Deleted != 1 {
		t.Fatalf("unexpected response: %+v", out)
	}

	// GET /v1/graphs reflects the mutable flag and the bumped version.
	gresp, err := http.Get(ts.URL + "/v1/graphs")
	if err != nil {
		t.Fatal(err)
	}
	defer gresp.Body.Close()
	var graphs struct {
		Graphs []GraphInfo `json:"graphs"`
	}
	if err := json.NewDecoder(gresp.Body).Decode(&graphs); err != nil {
		t.Fatal(err)
	}
	if len(graphs.Graphs) != 1 || !graphs.Graphs[0].Mutable || graphs.Graphs[0].Version != 1 {
		t.Fatalf("graph listing out of date: %+v", graphs.Graphs)
	}

	// Searches keep working and the HTTP answer matches a direct engine
	// call over the mutated graph.
	sresp, sout := postSearch(t, ts.URL, SearchRequest{D: 3, S: 2, K: 2})
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("post-update search status %d", sresp.StatusCode)
	}
	eng, _ := s.Engine("fig1")
	want, err := eng.Search(context.Background(), dccs.Query{D: 3, S: 2, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sout.CoverSize != want.CoverSize || len(sout.Cores) != len(want.Cores) {
		t.Fatal("post-update HTTP answer differs from the engine")
	}
}

func TestUpdateRejects(t *testing.T) {
	// One server with a mutable and an immutable graph side by side.
	g1, _ := datasets.FourLayerExample()
	g2, _ := datasets.FourLayerExample()
	s, err := New(Config{MaxUpdateBytes: 512}, GraphSpec{Name: "liveg", Graph: g1, Mutable: true}, GraphSpec{Name: "frozen", Graph: g2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Error(err)
		}
	}()

	cases := []struct {
		name  string
		graph string
		body  string
		code  int
	}{
		{"immutable graph", "frozen", `{"updates":[{"op":"insert","layer":0,"u":0,"v":9}]}`, http.StatusConflict},
		{"unknown graph", "nope", `{"updates":[{"op":"insert","layer":0,"u":0,"v":9}]}`, http.StatusNotFound},
		{"bad json", "liveg", `{"updates":[`, http.StatusBadRequest},
		{"unknown field", "liveg", `{"updates":[],"bogus":1}`, http.StatusBadRequest},
		{"empty batch", "liveg", `{"updates":[]}`, http.StatusBadRequest},
		{"unknown op", "liveg", `{"updates":[{"op":"upsert","layer":0,"u":0,"v":9}]}`, http.StatusBadRequest},
		{"bad layer", "liveg", `{"updates":[{"op":"insert","layer":99,"u":0,"v":9}]}`, http.StatusBadRequest},
		{"self loop", "liveg", `{"updates":[{"op":"insert","layer":0,"u":3,"v":3}]}`, http.StatusBadRequest},
		{"vertex out of range", "liveg", `{"updates":[{"op":"insert","layer":0,"u":0,"v":100000}]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/graphs/"+tc.graph+"/edges", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.code {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.code)
			}
			var out ErrorResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
			if out.Error == "" {
				t.Fatal("error body missing")
			}
		})
	}

	t.Run("oversized body", func(t *testing.T) {
		// MaxUpdateBytes is 512 above; build a syntactically valid batch
		// well past it.
		var sb strings.Builder
		sb.WriteString(`{"updates":[`)
		for i := 0; i < 200; i++ {
			if i > 0 {
				sb.WriteString(",")
			}
			fmt.Fprintf(&sb, `{"op":"insert","layer":0,"u":0,"v":%d}`, i+1)
		}
		sb.WriteString("]}")
		resp, err := http.Post(ts.URL+"/v1/graphs/liveg/edges", "application/json", strings.NewReader(sb.String()))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("status %d, want 413", resp.StatusCode)
		}
	})

	t.Run("get method", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/graphs/liveg/edges")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed && resp.StatusCode != http.StatusNotFound {
			t.Fatalf("status %d, want 405 or 404", resp.StatusCode)
		}
	})

	// None of the rejected batches may have advanced the version.
	eng, _ := s.Engine("liveg")
	if eng.Version() != 0 {
		t.Fatalf("rejected updates advanced the version to %d", eng.Version())
	}
}

// TestUpdateInvalidatesCache is the cache-coherence acceptance test: a
// result cached under version v must never be served after the version
// bumps, even though the cache itself evicts nothing.
func TestUpdateInvalidatesCache(t *testing.T) {
	_, ts := newMutableTestServer(t, Config{})
	q := SearchRequest{D: 3, S: 2, K: 2}

	if resp, out := postSearch(t, ts.URL, q); resp.StatusCode != http.StatusOK || out.Source != "engine" {
		t.Fatalf("first query: status %d source %q", resp.StatusCode, out.Source)
	}
	if resp, out := postSearch(t, ts.URL, q); resp.StatusCode != http.StatusOK || out.Source != "cache" {
		t.Fatalf("repeat query: status %d source %q, want cache hit", resp.StatusCode, out.Source)
	}

	if resp, _ := postUpdates(t, ts.URL, "fig1", UpdateRequest{Updates: []UpdateEdge{
		{Op: "insert", Layer: 0, U: 0, V: 9},
	}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("update status %d", resp.StatusCode)
	}

	// Same request after the bump: the old entry is keyed under the old
	// version, so this must recompute...
	if resp, out := postSearch(t, ts.URL, q); resp.StatusCode != http.StatusOK || out.Source != "cache" {
		if out.Source != "engine" {
			t.Fatalf("post-update query: status %d source %q, want engine", resp.StatusCode, out.Source)
		}
	} else {
		t.Fatal("post-update query served from the pre-update cache")
	}
	// ...and the recomputed result is itself cacheable under the new key.
	if resp, out := postSearch(t, ts.URL, q); resp.StatusCode != http.StatusOK || out.Source != "cache" {
		t.Fatalf("post-update repeat: status %d source %q, want cache hit", resp.StatusCode, out.Source)
	}
}

// TestUpdateMetrics spot-checks the Prometheus surface for the update
// counters and the per-graph version gauge.
func TestUpdateMetrics(t *testing.T) {
	_, ts := newMutableTestServer(t, Config{})
	if resp, _ := postUpdates(t, ts.URL, "fig1", UpdateRequest{Updates: []UpdateEdge{
		{Op: "insert", Layer: 0, U: 0, V: 9},
		{Op: "insert", Layer: 0, U: 0, V: 9}, // no-op: already there
	}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("update status %d", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, want := range []string{
		`dccs_update_batches_total 1`,
		`dccs_update_edges_total{op="insert"} 1`,
		`dccs_update_edges_total{op="delete"} 0`,
		`dccs_update_noops_total 1`,
		`dccs_graph_version{graph="fig1"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestUpdateSnapshotRestart pins mutable persistence: after updates and
// a snapshotting shutdown, a server restarted from the same directory
// and the ORIGINAL graph bytes resumes the mutated graph at the bumped
// version.
func TestUpdateSnapshotRestart(t *testing.T) {
	dir := t.TempDir()
	g, _ := datasets.FourLayerExample()
	s1, err := New(Config{SnapshotDir: dir}, GraphSpec{Name: "fig1", Graph: g, Mutable: true})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	if resp, out := postUpdates(t, ts1.URL, "fig1", UpdateRequest{Updates: []UpdateEdge{
		{Op: "insert", Layer: 0, U: 0, V: 9},
		{Op: "insert", Layer: 2, U: 1, V: 10},
	}}); resp.StatusCode != http.StatusOK || out.Version != 1 {
		t.Fatalf("update: status %d version %d", resp.StatusCode, out.Version)
	}
	wantEng, _ := s1.Engine("fig1")
	wantRes, err := wantEng.Search(context.Background(), dccs.Query{D: 3, S: 2, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	// Restart: the caller hands over the ORIGINAL (pre-update) graph, as
	// dccs-serve would after re-reading the unchanged .mlgb file; the
	// server must prefer its persisted live graph.
	g2, _ := datasets.FourLayerExample()
	s2, err := New(Config{SnapshotDir: dir}, GraphSpec{Name: "fig1", Graph: g2, Mutable: true})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s2.Shutdown(ctx); err != nil {
			t.Error(err)
		}
	}()
	eng, _ := s2.Engine("fig1")
	if eng.Version() != 1 {
		t.Fatalf("restarted version = %d, want 1", eng.Version())
	}
	if !eng.Graph().HasEdge(0, 0, 9) || !eng.Graph().HasEdge(2, 1, 10) {
		t.Fatal("restarted server lost the applied updates")
	}
	if m := eng.Metrics(); m.CorenessBuilds != 0 {
		t.Fatalf("restart not warm: %+v", m)
	}
	got, err := eng.Search(context.Background(), dccs.Query{D: 3, S: 2, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got.CoverSize != wantRes.CoverSize || len(got.Cores) != len(wantRes.Cores) {
		t.Fatal("restarted server answers differently")
	}
}

// TestConcurrentUpdateQueryStress is the -race smoke for the live-graph
// path: concurrent updaters and readers over a mutable server, with
// every response either a success or an admission-control status, and
// a final equivalence check against a cold engine.
func TestConcurrentUpdateQueryStress(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := testutil.RandomCorrelatedGraph(rng, 60, 4, 0.2, 0.85, 0.05)
	s, err := New(Config{}, GraphSpec{Name: "live", Graph: g, Mutable: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Error(err)
		}
	}()

	const writers, readers, rounds = 3, 5, 15
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < rounds; i++ {
				ups := make([]UpdateEdge, 0, 5)
				for len(ups) < 5 {
					u, v := rng.Intn(g.N()), rng.Intn(g.N())
					if u == v {
						continue
					}
					op := "insert"
					if rng.Intn(3) == 0 {
						op = "delete"
					}
					ups = append(ups, UpdateEdge{Op: op, Layer: rng.Intn(g.L()), U: u, V: v})
				}
				body, _ := json.Marshal(UpdateRequest{Updates: ups})
				resp, err := http.Post(ts.URL+"/v1/graphs/live/edges", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK, http.StatusTooManyRequests, http.StatusServiceUnavailable:
				default:
					errs <- fmt.Errorf("writer %d round %d: status %d", w, i, resp.StatusCode)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				body, _ := json.Marshal(SearchRequest{Graph: "live", D: 2, S: 2, K: 3, Seed: int64(r)})
				resp, err := http.Post(ts.URL+"/v1/search", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK, http.StatusTooManyRequests, http.StatusServiceUnavailable:
				default:
					errs <- fmt.Errorf("reader %d round %d: status %d", r, i, resp.StatusCode)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Quiesced equivalence: the final engine must answer exactly like a
	// cold engine over the final graph.
	eng, _ := s.Engine("live")
	cold, err := dccs.NewEngine(eng.Graph(), dccs.EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	q := dccs.Query{D: 2, S: 2, K: 3, Seed: 1}
	got, err := eng.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err := cold.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if got.CoverSize != wantRes.CoverSize || len(got.Cores) != len(wantRes.Cores) {
		t.Fatal("post-stress engine differs from cold rebuild")
	}
}

// TestSaveSnapshotsRacingUpdates races edge updates against the
// snapshot loop's save of a mutable graph. Every saved pair — the live
// graph file and the artifact snapshot — must restore: both files come
// from one pinned generation, so an update landing between the two
// writes cannot pair one generation's graph with the next one's
// artifacts, which the next boot would reject and build cold with its
// version counter reset.
func TestSaveSnapshotsRacingUpdates(t *testing.T) {
	dir := t.TempDir()
	const n = 3000
	g := datasets.Generate(datasets.Config{
		Name: "race", N: n, Layers: 6, Seed: 5,
		AvgDegree: 3, Gamma: 2.3, Correlation: 0.5,
		Communities: n / 500, MinSize: 12, MaxSize: 30,
		MinSupport: 3, MaxSupport: 6, PIn: 0.6,
		Persistent: 4, CrossLayerNoise: 0.05,
	}).Graph
	s, err := New(Config{SnapshotDir: dir}, GraphSpec{Name: "live", Graph: g, Mutable: true})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Error(err)
		}
	}()
	eng, _ := s.Engine("live")
	u, v := 0, 1
	for g.HasEdge(0, u, v) {
		v++
	}
	toggle := []dccs.EdgeUpdate{{Op: dccs.EdgeInsert, Layer: 0, U: u, V: v}}
	if _, err := eng.ApplyUpdates(context.Background(), toggle); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if toggle[0].Op == dccs.EdgeInsert {
				toggle[0].Op = dccs.EdgeDelete
			} else {
				toggle[0].Op = dccs.EdgeInsert
			}
			if _, err := eng.ApplyUpdates(context.Background(), toggle); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()

	for i := 0; i < 40; i++ {
		if err := s.saveSnapshots(); err != nil {
			t.Fatal(err)
		}
		saved, err := dccs.ReadGraphFile(s.liveGraphPath("live"))
		if err != nil {
			t.Fatal(err)
		}
		restored, err := dccs.NewMutableEngine(saved, dccs.EngineConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if err := restored.LoadSnapshot(s.snapshotPath("live")); err != nil {
			t.Fatalf("save %d: the saved pair does not restore: %v", i, err)
		}
		if restored.Version() == 0 {
			t.Fatalf("save %d: restored version 0, want the saved generation's", i)
		}
	}
}
