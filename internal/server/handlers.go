package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	dccs "repro"
)

// SearchRequest is the body of POST /v1/search. Graph may be omitted
// when the server serves exactly one graph. TimeoutMS bounds the
// computation (capped at the server's MaxTimeout; 0 means the server
// default); on expiry the accumulated partial result is returned with
// truncated=true rather than an error. NoCache skips the cache lookup
// (the fresh result still fills the cache); coalescing applies
// regardless.
type SearchRequest struct {
	Graph        string `json:"graph,omitempty"`
	D            int    `json:"d"`
	S            int    `json:"s"`
	K            int    `json:"k"`
	Seed         int64  `json:"seed,omitempty"`
	Algorithm    string `json:"algorithm,omitempty"`
	MaxTreeNodes int    `json:"max_tree_nodes,omitempty"`
	Workers      int    `json:"workers,omitempty"`
	TimeoutMS    int64  `json:"timeout_ms,omitempty"`
	NoCache      bool   `json:"no_cache,omitempty"`
}

// SearchCC is one core of a response.
type SearchCC struct {
	Layers   []int   `json:"layers"`
	Vertices []int32 `json:"vertices"`
}

// SearchStats mirrors dccs.Stats in wire form.
type SearchStats struct {
	Algorithm         string  `json:"algorithm"`
	PreprocessRemoved int     `json:"preprocess_removed"`
	TreeNodes         int     `json:"tree_nodes"`
	Candidates        int     `json:"candidates"`
	DCCCalls          int     `json:"dcc_calls"`
	Updates           int     `json:"updates"`
	Pruned            int     `json:"pruned"`
	EngineSecs        float64 `json:"engine_secs"`
}

// SearchResponse is the body of a successful POST /v1/search. Source
// records how the answer was produced: "engine" (this request ran the
// computation), "cache" (LRU hit), or "coalesced" (shared a concurrent
// identical request's computation). Truncated mirrors
// Stats.Truncated — the search stopped early (deadline, shutdown drain,
// or node budget) and the result is a valid partial answer.
type SearchResponse struct {
	Graph     string      `json:"graph"`
	Cores     []SearchCC  `json:"cores"`
	CoverSize int         `json:"cover_size"`
	Truncated bool        `json:"truncated"`
	Source    string      `json:"source"`
	ElapsedMS float64     `json:"elapsed_ms"`
	Stats     SearchStats `json:"stats"`
}

// ErrorResponse is the body of every non-200 response.
type ErrorResponse struct {
	Error string `json:"error"`
}

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// The status line is already out; nothing to do but log.
		s.cfg.Logf("server: response write: %v", err)
	}
}

func (s *Server) writeError(w http.ResponseWriter, code int, format string, args ...any) {
	s.metrics.countStatus(code)
	s.writeJSON(w, code, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// resolveGraph picks the handle a request addresses: its named graph,
// or the server's only graph when the name is omitted.
func (s *Server) resolveGraph(name string) (*graphHandle, int, error) {
	if name == "" {
		if len(s.names) == 1 {
			return s.graphs[s.names[0]], 0, nil
		}
		return nil, http.StatusBadRequest, fmt.Errorf("request must name one of the %d served graphs (see /v1/graphs)", len(s.names))
	}
	h, ok := s.graphs[name]
	if !ok {
		return nil, http.StatusNotFound, fmt.Errorf("unknown graph %q (see /v1/graphs)", name)
	}
	return h, 0, nil
}

// validAlgorithms gates request algorithm strings before they reach the
// engine, so typos come back as 400s, not 500s.
var validAlgorithms = map[dccs.Algorithm]bool{
	"":            true,
	dccs.AlgoAuto: true, dccs.AlgoGreedy: true,
	dccs.AlgoBottomUp: true, dccs.AlgoTopDown: true, dccs.AlgoExact: true,
}

// validate checks the request parameters against the target graph,
// mirroring the engine's own validation so failures map to 400.
func validate(req *SearchRequest, g *dccs.Graph) error {
	if req.D < 1 {
		return fmt.Errorf("degree threshold d = %d, want ≥ 1", req.D)
	}
	if req.S < 1 || req.S > g.L() {
		return fmt.Errorf("support threshold s = %d, want 1 ≤ s ≤ %d", req.S, g.L())
	}
	if req.K < 1 {
		return fmt.Errorf("result count k = %d, want ≥ 1", req.K)
	}
	if !validAlgorithms[dccs.Algorithm(req.Algorithm)] {
		return fmt.Errorf("unknown algorithm %q (want auto, greedy, bu, td, exact)", req.Algorithm)
	}
	if req.MaxTreeNodes < 0 {
		return fmt.Errorf("max_tree_nodes = %d, want ≥ 0", req.MaxTreeNodes)
	}
	if req.TimeoutMS < 0 {
		return fmt.Errorf("timeout_ms = %d, want ≥ 0", req.TimeoutMS)
	}
	return nil
}

// effectiveTimeout resolves the request's computation deadline.
func (s *Server) effectiveTimeout(req *SearchRequest) time.Duration {
	t := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		t = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if t > s.cfg.MaxTimeout {
		t = s.cfg.MaxTimeout
	}
	return t
}

// handleSearch answers POST /v1/search: decode and validate, then
// cache lookup → singleflight coalescing → bounded admission → engine
// computation, in that order, so a saturated server still answers
// cached and coalesced queries instantly.
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	if !s.beginRequest() {
		s.metrics.rejectedDraining.Add(1)
		s.writeError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	defer s.inflightWG.Done()

	start := time.Now()
	var req SearchRequest
	// A valid request is a few hundred bytes; bound the body before the
	// decoder buffers it, since this path runs ahead of admission
	// control and would otherwise allocate unboundedly.
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.writeError(w, http.StatusRequestEntityTooLarge, "search body exceeds %d bytes", tooLarge.Limit)
			return
		}
		s.writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	h, code, err := s.resolveGraph(req.Graph)
	if err != nil {
		s.writeError(w, code, "%v", err)
		return
	}
	if err := validate(&req, h.g); err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	q := dccs.Query{
		D: req.D, S: req.S, K: req.K, Seed: req.Seed,
		Algorithm:    dccs.Algorithm(req.Algorithm),
		MaxTreeNodes: req.MaxTreeNodes,
		Workers:      req.Workers,
	}
	// Pin one engine generation for the whole request: on a mutable
	// graph the cache key and the search must come from the same state,
	// or an update landing between the two could file a post-update
	// result under a pre-update key.
	view := h.eng.View()
	key := view.CacheKey(q)
	timeout := s.effectiveTimeout(&req)

	if !req.NoCache {
		if res := s.cache.Get(key); res != nil {
			s.respond(w, h, res, "cache", start)
			return
		}
	}

	// The coalescing key extends the cache key with the computation
	// deadline: a deadline can truncate the shared result, so only
	// requests with equal budgets may share a leader — otherwise a
	// 1 ms-timeout leader could hand its near-empty partial to a
	// follower that asked for a full minute (see DESIGN.md).
	flightKey := fmt.Sprintf("%s|t%d", key, timeout.Milliseconds())
	res, err, shared := s.flight.Do(r.Context(), flightKey, func() (*dccs.Result, error) {
		// Everything in the leader runs under the computation context —
		// server lifetime + request deadline, detached from the leader's
		// own connection — so a disconnecting leader cannot poison the
		// followers coalesced behind it, in the queue or in the search.
		ctx, cancel := context.WithTimeout(s.queryCtx, timeout)
		defer cancel()
		if err := s.acquire(ctx); err != nil {
			return nil, err
		}
		defer s.release()
		// A just-finished leader may have filled the cache between our
		// lookup and taking leadership; don't recompute what it stored.
		if !req.NoCache {
			if res := s.cache.Get(key); res != nil {
				return res, nil
			}
		}
		res, err := view.Search(ctx, q)
		if err != nil {
			return nil, err
		}
		// Deadline- or drain-truncated results depend on wall-clock
		// timing, not on the query; caching one would freeze an
		// arbitrarily small partial answer for future clients.
		if !res.Stats.Interrupted {
			s.cache.Put(key, res)
		}
		return res, nil
	})
	if err != nil {
		switch {
		case errors.Is(err, errBusy):
			w.Header().Set("Retry-After", "1")
			s.writeError(w, http.StatusTooManyRequests, "%v", err)
		case errors.Is(err, errDraining):
			s.writeError(w, http.StatusServiceUnavailable, "%v", err)
		case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
			// The request's own context expired while queued or while
			// waiting on a coalesced leader.
			s.writeError(w, http.StatusServiceUnavailable, "request expired before computation finished: %v", err)
		default:
			s.writeError(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}
	source := "engine"
	if shared {
		source = "coalesced"
		s.metrics.coalesced.Add(1)
	}
	s.respond(w, h, res, source, start)
}

// respond renders a successful search result and accounts it.
func (s *Server) respond(w http.ResponseWriter, h *graphHandle, res *dccs.Result, source string, start time.Time) {
	elapsed := time.Since(start)
	s.metrics.countSearch(source, elapsed)
	s.metrics.countStatus(http.StatusOK)
	resp := SearchResponse{
		Graph:     h.name,
		Cores:     make([]SearchCC, len(res.Cores)),
		CoverSize: res.CoverSize,
		Truncated: res.Stats.Truncated,
		Source:    source,
		ElapsedMS: float64(elapsed) / float64(time.Millisecond),
		Stats: SearchStats{
			Algorithm:         res.Stats.Algorithm,
			PreprocessRemoved: res.Stats.PreprocessRemoved,
			TreeNodes:         res.Stats.TreeNodes,
			Candidates:        res.Stats.Candidates,
			DCCCalls:          res.Stats.DCCCalls,
			Updates:           res.Stats.Updates,
			Pruned:            res.Stats.Pruned,
			EngineSecs:        res.Stats.Elapsed.Seconds(),
		},
	}
	for i, c := range res.Cores {
		resp.Cores[i] = SearchCC{Layers: c.Layers, Vertices: c.Vertices}
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// GraphInfo is one entry of GET /v1/graphs. Mutable graphs additionally
// report their update version; stats and fingerprint always describe
// the current generation of the graph.
type GraphInfo struct {
	Name            string `json:"name"`
	N               int    `json:"n"`
	Layers          int    `json:"layers"`
	TotalEdges      int    `json:"total_edges"`
	Fingerprint     string `json:"fingerprint"`
	Mutable         bool   `json:"mutable"`
	Version         uint64 `json:"version"`
	Queries         int64  `json:"queries"`
	CorenessBuilds  int64  `json:"coreness_builds"`
	HierarchyBuilds int64  `json:"hierarchy_builds"`
}

func (s *Server) handleGraphs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		s.writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	out := make([]GraphInfo, 0, len(s.names))
	for _, name := range s.names {
		h := s.graphs[name]
		view := h.eng.View()
		st := view.Graph().Stats()
		m := h.eng.Metrics()
		out = append(out, GraphInfo{
			Name: name, N: st.N, Layers: st.Layers, TotalEdges: st.TotalEdges,
			Fingerprint:     fmt.Sprintf("%016x", view.Fingerprint()),
			Mutable:         h.eng.Mutable(),
			Version:         view.Version(),
			Queries:         m.Queries,
			CorenessBuilds:  m.CorenessBuilds,
			HierarchyBuilds: m.HierarchyBuilds,
		})
	}
	s.metrics.countStatus(http.StatusOK)
	s.writeJSON(w, http.StatusOK, struct {
		Graphs []GraphInfo `json:"graphs"`
	}{out})
}

// graphHealth is one per-graph entry of GET /healthz: the graph's
// current update version and whether it was loaded through the mmap
// zero-copy path — the two facts an operator checks after a deploy
// ("did the replica resume where it left off, on the load path I
// asked for?").
type graphHealth struct {
	Name    string `json:"name"`
	Version uint64 `json:"version"`
	Mmap    bool   `json:"mmap"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	type health struct {
		Status      string        `json:"status"`
		UptimeS     float64       `json:"uptime_s"`
		Graphs      int           `json:"graphs"`
		GraphStatus []graphHealth `json:"graph_status"`
	}
	gs := make([]graphHealth, 0, len(s.names))
	for _, name := range s.names {
		h := s.graphs[name]
		gs = append(gs, graphHealth{Name: name, Version: h.eng.Version(), Mmap: h.mmap})
	}
	up := time.Since(s.start).Seconds()
	if s.draining.Load() {
		s.metrics.countStatus(http.StatusServiceUnavailable)
		s.writeJSON(w, http.StatusServiceUnavailable, health{Status: "draining", UptimeS: up, Graphs: len(s.names), GraphStatus: gs})
		return
	}
	s.metrics.countStatus(http.StatusOK)
	s.writeJSON(w, http.StatusOK, health{Status: "ok", UptimeS: up, Graphs: len(s.names), GraphStatus: gs})
}
