package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"
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

// writeJSON answers with v as JSON and counts its status, before the
// client can read the response.
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	s.metrics.countStatus(code)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// The status line is already out; nothing to do but log.
		s.cfg.Logf("server: response write: %v", err)
	}
}

func (s *Server) writeError(w http.ResponseWriter, code int, format string, args ...any) {
	s.writeJSON(w, code, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// decode reads a JSON body of at most limit bytes into v, rejecting
// unknown fields; when it cannot, it answers 413 or 400 itself and
// returns false. Bodies are bounded before the decoder buffers them,
// since decoding runs ahead of admission control.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, limit int64, what string, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooLarge):
		s.writeError(w, http.StatusRequestEntityTooLarge, "%s exceeds %d bytes", what, tooLarge.Limit)
	default:
		s.writeError(w, http.StatusBadRequest, "bad request body: %v", err)
	}
	return false
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

// handleSearch answers POST /v1/search as a batch of one: decode and
// validate, then the shared resolve stage — cache lookup, coalescing,
// bounded admission, engine computation, in that order, so a saturated
// server still answers cached and coalesced queries instantly.
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req SearchRequest
	// A valid request is a few hundred bytes.
	if !s.decode(w, r, 1<<20, "search body", &req) {
		return
	}
	h, code, err := s.resolveGraph(req.Graph)
	if err != nil {
		s.writeError(w, code, "%v", err)
		return
	}
	q := BatchQuery{
		D: req.D, S: req.S, K: req.K, Seed: req.Seed,
		Algorithm: req.Algorithm, MaxTreeNodes: req.MaxTreeNodes,
		Workers: req.Workers, TimeoutMS: req.TimeoutMS, NoCache: req.NoCache,
	}
	if err := validate(&q, h.g); err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	budget := s.effectiveTimeout(req.TimeoutMS)
	t := s.newTask(&q, budget)
	// One pinned engine generation for the whole request: on a mutable
	// graph the cache key and the search must come from the same state,
	// or an update landing between the two could file a post-update
	// result under a pre-update key.
	if _, err := s.resolve(r.Context(), h.eng.View(), budget, []*task{&t}); err != nil {
		s.writeFailure(w, err)
		return
	}
	if t.err != nil {
		s.writeFailure(w, t.err)
		return
	}
	elapsed := time.Since(start)
	s.metrics.countSearch(t.source, elapsed)
	cores, stats := wireResult(t.res)
	s.writeJSON(w, http.StatusOK, SearchResponse{
		Graph:     h.name,
		Cores:     cores,
		CoverSize: t.res.CoverSize,
		Truncated: t.res.Stats.Truncated,
		Source:    t.source,
		ElapsedMS: float64(elapsed) / float64(time.Millisecond),
		Stats:     stats,
	})
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
		s.writeJSON(w, http.StatusServiceUnavailable, health{Status: "draining", UptimeS: up, Graphs: len(s.names), GraphStatus: gs})
		return
	}
	s.writeJSON(w, http.StatusOK, health{Status: "ok", UptimeS: up, Graphs: len(s.names), GraphStatus: gs})
}
