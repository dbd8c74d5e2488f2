package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/datasets"
)

// FuzzHTTPBodies sends arbitrary bytes as the body of the three routes
// that parse one — search, batch and edge updates, picked by route — to
// a fresh mutable Fig 1 server. The contract: no panic, never a 5xx,
// and every non-200 answer is an ErrorResponse. The seed corpus in
// testdata/fuzz/FuzzHTTPBodies holds valid and malformed bodies for
// each route.
func FuzzHTTPBodies(f *testing.F) {
	paths := []string{"/v1/search", "/v1/search/batch", "/v1/graphs/fig1/edges"}
	f.Fuzz(func(t *testing.T, route byte, body []byte) {
		g, _ := datasets.FourLayerExample()
		s, err := New(Config{}, GraphSpec{Name: "fig1", Graph: g, Mutable: true})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Shutdown(context.Background())
		path := paths[int(route)%len(paths)]
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("POST %s answered %d: %s", path, rec.Code, rec.Body)
		}
		if rec.Code != http.StatusOK {
			var out ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || out.Error == "" {
				t.Fatalf("POST %s answered %d with %q, want an ErrorResponse", path, rec.Code, rec.Body)
			}
		}
	})
}
