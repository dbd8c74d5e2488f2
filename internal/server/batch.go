package server

import (
	"net/http"
	"time"
)

// BatchQuery is one query of a POST /v1/search/batch body: the same
// parameters as SearchRequest minus Graph (the batch names its graph
// once). TimeoutMS bounds this item's computation inside the whole-batch
// budget — the item's effective deadline is the earlier of the two; on
// expiry the item carries a valid truncated partial result, not an
// error. NoCache skips the cache lookup for this item only (the fresh
// result still fills the cache, and coalescing applies regardless).
type BatchQuery struct {
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

// BatchRequest is the body of POST /v1/search/batch: up to
// MaxBatchQueries queries against one graph. TimeoutMS is the
// whole-batch computation budget (capped at the server's MaxTimeout; 0
// means the server default).
type BatchRequest struct {
	Graph     string       `json:"graph,omitempty"`
	Queries   []BatchQuery `json:"queries"`
	TimeoutMS int64        `json:"timeout_ms,omitempty"`
}

// BatchItem is the result of one batch query, at the same position in
// Items as its query held in Queries. Exactly one of two shapes: a
// failed item carries Error and nothing else; a successful item carries
// the SearchResponse fields with Source recording how it was answered —
// "engine" (this item ran a computation), "cache" (LRU hit), or "dup"
// (shared an identical computation already in flight, started by this
// batch or by another request). Truncated items are successes: valid
// partial answers whose deadline expired.
type BatchItem struct {
	Index     int          `json:"index"`
	Error     string       `json:"error,omitempty"`
	Cores     []SearchCC   `json:"cores,omitempty"`
	CoverSize int          `json:"cover_size"`
	Truncated bool         `json:"truncated,omitempty"`
	Source    string       `json:"source,omitempty"`
	ElapsedMS float64      `json:"elapsed_ms"`
	Stats     *SearchStats `json:"stats,omitempty"`
}

// BatchResponse is the body of a successful POST /v1/search/batch. The
// summary counters partition the items: CacheHits + Coalesced +
// EngineRuns + Errors = len(Items). WarmedDs lists the distinct
// canonical degree thresholds the batch prepared in its one multi-d
// hierarchy pass (empty when everything was answered from cache).
type BatchResponse struct {
	Graph      string      `json:"graph"`
	Items      []BatchItem `json:"items"`
	CacheHits  int         `json:"cache_hits"`
	Coalesced  int         `json:"coalesced"`
	EngineRuns int         `json:"engine_runs"`
	Errors     int         `json:"errors"`
	WarmedDs   []int       `json:"warmed_ds,omitempty"`
	ElapsedMS  float64     `json:"elapsed_ms"`
}

// HandleSearchBatch answers POST /v1/search/batch: up to
// MaxBatchQueries queries through the same resolve stage a single
// search takes, so N queries cost far less than N times the single-query
// work:
//
//  1. Validate every item; an invalid item fails alone (its BatchItem
//     carries the error) — only a malformed body, an unknown graph, or
//     an oversized batch fails the whole request.
//  2. Resolve the rest together: cache hits answer at once, an item
//     whose identical computation is already in flight — started by
//     this batch or by another request — shares it ("dup"), and the
//     remaining leaders are admitted as one weight of
//     min(leaders, MaxInflight) tokens (429 + Retry-After when the queue
//     is full).
//  3. The leaders' distinct degree thresholds are warmed in ONE
//     hierarchy pass (one tracker raised across the nested d-core level
//     sets — see DESIGN.md § Batch serving), then their searches fan out over an
//     internal/pool worker set bounded by the admitted weight.
//
// Per-item deadlines are the batch budget intersected with the item's
// own timeout_ms; an expired item returns its valid truncated partial
// (not cached), and the whole-batch budget expiring truncates the
// still-running items the same way. The response is 200 whenever the
// batch itself was processable, regardless of per-item outcomes.
//
// Handler registers it behind the method check and the drain
// accounting. Exported as an errpanic root: like OpenMapped and the
// decoders, it parses untrusted input and must fail with errors, never
// panics.
func (s *Server) HandleSearchBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req BatchRequest
	// Batch bodies share the update-batch bound: both are materialized
	// before validation, so both need the same heap lever.
	if !s.decode(w, r, s.cfg.MaxUpdateBytes, "batch body", &req) {
		return
	}
	h, code, err := s.resolveGraph(req.Graph)
	if err != nil {
		s.writeError(w, code, "%v", err)
		return
	}
	if len(req.Queries) == 0 {
		s.writeError(w, http.StatusBadRequest, "empty batch: queries must carry at least one query")
		return
	}
	if len(req.Queries) > s.cfg.MaxBatchQueries {
		s.writeError(w, http.StatusRequestEntityTooLarge, "batch of %d queries exceeds the maximum of %d", len(req.Queries), s.cfg.MaxBatchQueries)
		return
	}
	if req.TimeoutMS < 0 {
		s.writeError(w, http.StatusBadRequest, "timeout_ms = %d, want ≥ 0", req.TimeoutMS)
		return
	}
	s.metrics.batchRequests.Add(1)

	budget := s.effectiveTimeout(req.TimeoutMS)
	items := make([]BatchItem, len(req.Queries))
	tasks := make([]task, len(req.Queries))
	valid := make([]*task, 0, len(req.Queries))
	for i := range req.Queries {
		items[i].Index = i
		if err := validate(&req.Queries[i], h.g); err != nil {
			items[i].Error = err.Error()
			continue
		}
		tasks[i] = s.newTask(&req.Queries[i], budget)
		valid = append(valid, &tasks[i])
	}
	// One pinned engine generation for the whole batch: every item's
	// cache key, the shared warm pass, and every search answer against
	// the same state even if updates land mid-batch.
	warmed, err := s.resolve(r.Context(), h.eng.View(), budget, valid)
	if err != nil {
		s.writeFailure(w, err)
		return
	}
	s.metrics.batchWarmedDs.Add(int64(len(warmed)))
	for i := range tasks {
		t, it := &tasks[i], &items[i]
		switch {
		case it.Error != "": // failed validation
		case t.err != nil:
			it.Error = t.err.Error()
		default:
			var stats SearchStats
			it.Cores, stats = wireResult(t.res)
			it.Stats = &stats
			it.CoverSize = t.res.CoverSize
			it.Truncated = t.res.Stats.Truncated
			it.Source = t.source
			if it.Source == "coalesced" {
				it.Source = "dup"
			}
			it.ElapsedMS = float64(t.elapsed) / float64(time.Millisecond)
		}
	}

	elapsed := time.Since(start)
	resp := BatchResponse{
		Graph:     h.name,
		Items:     items,
		WarmedDs:  warmed,
		ElapsedMS: float64(elapsed) / float64(time.Millisecond),
	}
	resp.CacheHits, resp.Coalesced, resp.EngineRuns, resp.Errors = s.metrics.countBatch(items, elapsed)
	s.writeJSON(w, http.StatusOK, resp)
}
