package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"time"

	dccs "repro"
)

// UpdateEdge is one edge mutation of POST /v1/graphs/{id}/edges.
type UpdateEdge struct {
	Op    string `json:"op"` // "insert" or "delete"
	Layer int    `json:"layer"`
	U     int    `json:"u"`
	V     int    `json:"v"`
}

// UpdateRequest is the body of POST /v1/graphs/{id}/edges. The whole
// batch is validated before anything is applied and then applied
// atomically with respect to queries: every search observes either the
// pre-batch or the post-batch graph, never a prefix.
type UpdateRequest struct {
	Updates []UpdateEdge `json:"updates"`
}

// UpdateResponse is the body of a successful update. Version is the
// graph version after the batch; a batch of pure no-ops leaves it
// unchanged. The hierarchy counts report what the incremental rebuild
// preserved (see DESIGN.md § Live graphs).
type UpdateResponse struct {
	Graph                  string  `json:"graph"`
	Version                uint64  `json:"version"`
	Applied                int     `json:"applied"`
	Inserted               int     `json:"inserted"`
	Deleted                int     `json:"deleted"`
	NoOps                  int     `json:"noops"`
	DirtyLayers            int     `json:"dirty_layers"`
	InvalidatedHierarchies int     `json:"invalidated_hierarchies"`
	RetainedHierarchies    int     `json:"retained_hierarchies"`
	RebuildMS              float64 `json:"rebuild_ms"` // freeze_ms + derive_ms
	FreezeMS               float64 `json:"freeze_ms"`
	DeriveMS               float64 `json:"derive_ms"`
}

// handleUpdateEdges answers POST /v1/graphs/{graph}/edges: decode and
// validate, then apply the batch through the engine under the same
// bounded admission as searches — an update occupies an inflight slot,
// so a flood of updates cannot starve queries past the configured
// concurrency, and vice versa.
func (s *Server) handleUpdateEdges(w http.ResponseWriter, r *http.Request) {
	if !s.beginRequest() {
		s.metrics.rejectedDraining.Add(1)
		s.writeError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	defer s.inflightWG.Done()

	name := r.PathValue("graph")
	h, ok := s.graphs[name]
	if !ok {
		s.writeError(w, http.StatusNotFound, "unknown graph %q (see /v1/graphs)", name)
		return
	}
	if !h.eng.Mutable() {
		s.writeError(w, http.StatusConflict, "graph %q is immutable; serve it as mutable to accept edge updates", name)
		return
	}

	var req UpdateRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxUpdateBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.writeError(w, http.StatusRequestEntityTooLarge, "update batch exceeds %d bytes", s.cfg.MaxUpdateBytes)
			return
		}
		s.writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if len(req.Updates) == 0 {
		s.writeError(w, http.StatusBadRequest, "empty update batch")
		return
	}
	ups := make([]dccs.EdgeUpdate, len(req.Updates))
	for i, u := range req.Updates {
		switch u.Op {
		case "insert":
			ups[i].Op = dccs.EdgeInsert
		case "delete":
			ups[i].Op = dccs.EdgeDelete
		default:
			s.writeError(w, http.StatusBadRequest, "update %d: unknown op %q (want insert or delete)", i, u.Op)
			return
		}
		ups[i].Layer, ups[i].U, ups[i].V = u.Layer, u.U, u.V
	}

	// Updates run under the server's default computation budget; the
	// context only bounds incremental watch maintenance and the wait for
	// an admission slot — an admitted batch always lands in full.
	ctx, cancel := context.WithTimeout(s.queryCtx, s.cfg.DefaultTimeout)
	defer cancel()
	if err := s.acquire(ctx); err != nil {
		switch {
		case errors.Is(err, errBusy):
			w.Header().Set("Retry-After", "1")
			s.writeError(w, http.StatusTooManyRequests, "%v", err)
		case errors.Is(err, errDraining):
			s.writeError(w, http.StatusServiceUnavailable, "%v", err)
		default:
			s.writeError(w, http.StatusServiceUnavailable, "update expired before admission: %v", err)
		}
		return
	}
	defer s.release()

	stats, err := h.eng.ApplyUpdates(ctx, ups)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			s.writeError(w, http.StatusServiceUnavailable, "update expired before application: %v", err)
			return
		}
		// ApplyUpdates pre-validates the whole batch; any remaining error
		// is the client's input.
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.metrics.countUpdate(stats)
	s.metrics.countStatus(http.StatusOK)
	s.writeJSON(w, http.StatusOK, UpdateResponse{
		Graph:                  name,
		Version:                stats.Version,
		Applied:                stats.Applied,
		Inserted:               stats.Inserted,
		Deleted:                stats.Deleted,
		NoOps:                  stats.NoOps,
		DirtyLayers:            stats.DirtyLayers,
		InvalidatedHierarchies: stats.InvalidatedHierarchies,
		RetainedHierarchies:    stats.RetainedHierarchies,
		RebuildMS:              float64(stats.RebuildElapsed) / float64(time.Millisecond),
		FreezeMS:               float64(stats.FreezeElapsed) / float64(time.Millisecond),
		DeriveMS:               float64(stats.DeriveElapsed) / float64(time.Millisecond),
	})
}
