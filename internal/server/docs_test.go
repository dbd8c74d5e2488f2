package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"sort"
	"strings"
	"testing"

	dccs "repro"
)

// docRouteRe matches the endpoint headings of API.md — each route is
// documented under a heading of the exact form:
//
//	### `POST /v1/search`
var docRouteRe = regexp.MustCompile("(?m)^### `(GET|POST|PUT|DELETE|PATCH) ([^`]+)`$")

// TestRoutesMatchAPIDoc diffs the server's route table against the
// embedded API.md: every registered route must be documented, and every
// documented route must exist. Adding an endpoint to Handler without
// documenting it (or vice versa) fails here.
func TestRoutesMatchAPIDoc(t *testing.T) {
	documented := map[string]bool{}
	for _, m := range docRouteRe.FindAllStringSubmatch(dccs.APIDoc, -1) {
		documented[m[1]+" "+m[2]] = true
	}
	served := map[string]bool{}
	for _, r := range Routes() {
		served[r] = true
	}
	diffDoc(t, "routes", served, documented)
}

// TestMetricsMatchAPIDoc diffs the families GET /metrics renders against
// the dccs_* names in the first column of API.md's GET /metrics table:
// every rendered family must be documented, and every documented one
// rendered.
func TestMetricsMatchAPIDoc(t *testing.T) {
	_, section, _ := strings.Cut(dccs.APIDoc, "### `GET /metrics`")
	documented := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		if cells := strings.Split(line, "|"); len(cells) > 2 {
			for _, m := range docMetricRe.FindAllStringSubmatch(cells[1], -1) {
				documented[m[1]] = true
			}
		}
	}
	s, _ := newTestServer(t, Config{})
	rendered := map[string]bool{}
	for _, f := range s.families() {
		rendered[f.name] = true
	}
	diffDoc(t, "metrics", rendered, documented)
}

// docMetricRe matches a backticked metric name in API.md's /metrics table.
var docMetricRe = regexp.MustCompile("`(dccs_[a-z_]+)")

// diffDoc fails the test with the names the server has that API.md
// does not document, and the ones it documents that the server lacks.
func diffDoc(t *testing.T, what string, have, documented map[string]bool) {
	t.Helper()
	if len(documented) == 0 {
		t.Fatalf("no %s found in the embedded API.md", what)
	}
	var missing, stale []string
	for r := range have {
		if !documented[r] {
			missing = append(missing, r)
		}
	}
	for r := range documented {
		if !have[r] {
			stale = append(stale, r)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	if len(missing) > 0 {
		t.Errorf("%s served but not documented in API.md: %v", what, missing)
	}
	if len(stale) > 0 {
		t.Errorf("%s documented in API.md but not served: %v", what, stale)
	}
}

// TestRoutesAreLive probes every route in Routes() against a running
// server and checks none of them falls through to the mux's plain-text
// 404 — i.e. Routes() describes patterns Handler actually registers —
// and that each answers the wrong method with a JSON 405 whose Allow
// header names the right one.
func TestRoutesAreLive(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, route := range Routes() {
		method, path, ok := strings.Cut(route, " ")
		if !ok {
			t.Fatalf("malformed route %q", route)
		}
		path = strings.ReplaceAll(path, "{graph}", "fig1")
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		// Our handlers answer JSON (or markdown/Prometheus text); the
		// mux's fallthrough 404 is text/plain. Any status is fine — 400s
		// for the stub bodies are expected — as long as a handler of ours
		// answered.
		ct := resp.Header.Get("Content-Type")
		if resp.StatusCode == http.StatusNotFound && strings.HasPrefix(ct, "text/plain") {
			t.Errorf("%s: fell through to the mux 404 — route not registered", route)
		}

		wrong := http.MethodPost
		if method == http.MethodPost {
			wrong = http.MethodGet
		}
		req, err = http.NewRequest(wrong, ts.URL+path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err = http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var out ErrorResponse
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed || err != nil || out.Error == "" {
			t.Errorf("%s %s: status %d, body decode %v, want a JSON 405", wrong, path, resp.StatusCode, err)
		}
		if allow := resp.Header.Get("Allow"); allow != method {
			t.Errorf("%s %s: Allow %q, want %q", wrong, path, allow, method)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	metrics, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf(`dccs_http_responses_total{code="405"} %d`, len(Routes())); !strings.Contains(string(metrics), want) {
		t.Errorf("metrics missing %q: every 405 must be counted", want)
	}
}

// TestDocsEndpoint checks GET /v1/docs serves the embedded API.md.
func TestDocsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/docs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/markdown") {
		t.Errorf("Content-Type %q, want text/markdown", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != dccs.APIDoc {
		t.Error("served docs differ from the embedded API.md")
	}

	post, err := http.Post(ts.URL+"/v1/docs", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/docs status %d, want 405", post.StatusCode)
	}
}
