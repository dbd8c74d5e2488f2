package server

import (
	"io"
	"net/http"

	dccs "repro"
)

// handleDocs answers GET /v1/docs with the API contract (the repo's
// API.md, embedded into the root package at build time) as markdown
// text, so every running server carries the exact documentation for the
// surface it serves — no version skew between a deployed binary and a
// docs site.
func (s *Server) handleDocs(w http.ResponseWriter, r *http.Request) {
	s.metrics.countStatus(http.StatusOK)
	w.Header().Set("Content-Type", "text/markdown; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	if _, err := io.WriteString(w, dccs.APIDoc); err != nil {
		s.cfg.Logf("server: docs write: %v", err)
	}
}
