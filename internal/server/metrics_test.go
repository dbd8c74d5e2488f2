package server

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/datasets"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/metrics_golden.txt from the current /metrics render")

func getMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	return string(body)
}

// TestRenderExact feeds a histogram fixed observations and compares the
// rendered bytes with the exposition written out by hand. 1 ms lies on a
// bound and counts in that bucket (le is inclusive); 12 s lies above the
// largest finite bound and counts in +Inf only. _sum is the summed
// duration's Seconds() in %g, as the summed *_seconds_total counters
// rendered it. Families come sorted by name and series by label string;
// a counter renders as an integer and a gauge with %g.
func TestRenderExact(t *testing.T) {
	for _, b := range bounds[:len(bounds)-1] {
		if d := time.Duration(math.Round(b * 1e9)); d.Seconds() != b {
			t.Fatalf("bound %g is not the Seconds() of %v, so an observation on it could miss its bucket", b, d)
		}
	}
	var h histogram
	for _, d := range []time.Duration{time.Millisecond, 3 * time.Millisecond, 12 * time.Second} {
		h.observe(d)
	}
	got := string(render([]family{
		{"t_total", "counter", []series{{labels: `op="y"`, v: 1234567}, {labels: `op="x"`, v: 1}}},
		{"t_seconds", "histogram", []series{{labels: `op="x"`, h: &h}}},
		{"t_bytes", "gauge", one(1234567)},
	}))
	want := `# TYPE t_bytes gauge
t_bytes 1.234567e+06
# TYPE t_seconds histogram
t_seconds_bucket{op="x",le="1e-05"} 0
t_seconds_bucket{op="x",le="2.5e-05"} 0
t_seconds_bucket{op="x",le="5e-05"} 0
t_seconds_bucket{op="x",le="0.0001"} 0
t_seconds_bucket{op="x",le="0.00025"} 0
t_seconds_bucket{op="x",le="0.0005"} 0
t_seconds_bucket{op="x",le="0.001"} 1
t_seconds_bucket{op="x",le="0.0025"} 1
t_seconds_bucket{op="x",le="0.005"} 2
t_seconds_bucket{op="x",le="0.01"} 2
t_seconds_bucket{op="x",le="0.025"} 2
t_seconds_bucket{op="x",le="0.05"} 2
t_seconds_bucket{op="x",le="0.1"} 2
t_seconds_bucket{op="x",le="0.25"} 2
t_seconds_bucket{op="x",le="0.5"} 2
t_seconds_bucket{op="x",le="1"} 2
t_seconds_bucket{op="x",le="2.5"} 2
t_seconds_bucket{op="x",le="5"} 2
t_seconds_bucket{op="x",le="10"} 2
t_seconds_bucket{op="x",le="+Inf"} 3
t_seconds_sum{op="x"} 12.004
t_seconds_count{op="x"} 3
# TYPE t_total counter
t_total{op="x"} 1
t_total{op="y"} 1234567
`
	if got != want {
		t.Errorf("render:\n%s\nwant:\n%s", got, want)
	}
}

// TestHistogramConcurrentScrapes observes from several goroutines while
// scrapes run; under -race it checks the request path's counters
// against the scrape. The scrape taken after every observation has
// finished counts each one.
func TestHistogramConcurrentScrapes(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	const workers, each = 4, 500
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range each {
				s.metrics.countSearch("engine", time.Duration(w*each+i)*time.Microsecond)
				s.metrics.countStatus(http.StatusTeapot)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	// Scrape until the observers are done; the last scrape starts after
	// they have finished.
	var body string
	for finished := false; !finished; {
		select {
		case <-done:
			finished = true
		default:
		}
		body = getMetrics(t, ts.URL)
	}
	for _, want := range []string{
		fmt.Sprintf(`dccs_search_seconds_count{source="engine"} %d`, workers*each),
		fmt.Sprintf(`dccs_search_seconds_bucket{source="engine",le="+Inf"} %d`, workers*each),
		fmt.Sprintf(`dccs_search_requests_total{source="engine"} %d`, workers*each),
		fmt.Sprintf(`dccs_http_responses_total{code="418"} %d`, workers*each),
	} {
		if !strings.Contains(body, want+"\n") {
			t.Errorf("final scrape misses %q", want)
		}
	}
}

// TestMetricsGolden replays a fixed request sequence on a mutable graph
// — an engine search, its cache hit, a batch with a duplicate and an
// invalid item, a 405 and an update batch — and compares the scrape
// with testdata/metrics_golden.txt. Values that depend on timing or
// scheduling are masked: the uptime, the histograms' _bucket and _sum
// values, and the space pool's builds and reuses (a sync.Pool, which
// misses across processors). Rewrite the file with -update-golden.
func TestMetricsGolden(t *testing.T) {
	_, ts := newMutableTestServer(t, Config{})
	for _, want := range []string{"engine", "cache"} {
		if resp, out := postSearch(t, ts.URL, SearchRequest{D: 3, S: 2, K: 2}); resp.StatusCode != http.StatusOK || out.Source != want {
			t.Fatalf("search: status %d, source %q, want 200 from %s", resp.StatusCode, out.Source, want)
		}
	}
	resp, out := postBatch(t, ts.URL, BatchRequest{Queries: []BatchQuery{{D: 2, S: 2, K: 1}, {D: 2, S: 2, K: 1}, {D: 0, S: 2, K: 1}}})
	if resp.StatusCode != http.StatusOK || out.EngineRuns != 1 || out.Coalesced != 1 || out.Errors != 1 {
		t.Fatalf("batch: status %d, %+v", resp.StatusCode, out)
	}
	if resp, err := http.Get(ts.URL + "/v1/search"); err != nil || resp.Body.Close() != nil || resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/search: %v, want a 405", err)
	}
	if resp, _ := postUpdates(t, ts.URL, "fig1", UpdateRequest{Updates: []UpdateEdge{{Op: "insert", Layer: 0, U: 0, V: 9}}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("update: status %d", resp.StatusCode)
	}

	var masked strings.Builder
	for _, line := range strings.SplitAfter(getMetrics(t, ts.URL), "\n") {
		name, _, _ := strings.Cut(line, " ")
		name, _, _ = strings.Cut(name, "{")
		switch {
		case name == "dccs_uptime_seconds", strings.HasSuffix(name, "_bucket"), strings.HasSuffix(name, "_sum"),
			name == "dccs_engine_space_builds_total", name == "dccs_engine_space_reuses_total":
			line = line[:strings.LastIndexByte(line, ' ')] + " *\n"
		}
		masked.WriteString(line)
	}
	path := filepath.Join("testdata", "metrics_golden.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(masked.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if masked.String() != string(want) {
		t.Errorf("scrape differs from %s:\n%s", path, masked.String())
	}
}

// TestMetricsExposition serves a graph whose name holds a quote, a
// backslash and a newline, drives every histogram, and parses each line
// of the scrape. Each family appears once, in sorted order, under one
// TYPE line that precedes its samples; its series come sorted by label
// string; the graph label unescapes back to the name; and each
// histogram's buckets do not decrease as le grows, with the +Inf bucket
// equal to _count.
func TestMetricsExposition(t *testing.T) {
	const name = "a\"b\\c\nd"
	g, _ := datasets.FourLayerExample()
	s, err := New(Config{}, GraphSpec{Name: name, Graph: g, Mutable: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		if err := s.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	for range 2 {
		if resp, _ := postSearch(t, ts.URL, SearchRequest{Graph: name, D: 3, S: 2, K: 2}); resp.StatusCode != http.StatusOK {
			t.Fatalf("search: status %d", resp.StatusCode)
		}
	}
	if resp, _ := postBatch(t, ts.URL, BatchRequest{Graph: name, Queries: []BatchQuery{{D: 2, S: 2, K: 1}}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d", resp.StatusCode)
	}
	if resp, _ := postUpdates(t, ts.URL, url.PathEscape(name), UpdateRequest{Updates: []UpdateEdge{{Op: "insert", Layer: 0, U: 0, V: 9}}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("update: status %d", resp.StatusCode)
	}

	type histSeries struct {
		lastLE, lastBucket float64
		inf, count         float64
		infSeen            bool
	}
	var fam, kind, lastLabels string
	seen := map[string]bool{}
	hists := map[string]*histSeries{}
	graphLabels := 0
	for i, line := range strings.Split(strings.TrimSuffix(getMetrics(t, ts.URL), "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			f, k, ok := strings.Cut(rest, " ")
			if !ok || seen[f] {
				t.Fatalf("line %d %q: malformed or repeated TYPE line", i, line)
			}
			if f < fam {
				t.Errorf("line %d: family %s after %s, want sorted names", i, f, fam)
			}
			fam, kind, lastLabels = f, k, ""
			seen[f] = true
			continue
		}
		metric, labels, value, err := parseSample(line)
		if err != nil {
			t.Fatalf("line %d %q: %v", i, line, err)
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("line %d %q: value: %v", i, line, err)
		}
		suffix, ok := strings.CutPrefix(metric, fam)
		if fam == "" || !ok || (kind != "histogram" && suffix != "") || (kind == "histogram" && suffix != "_bucket" && suffix != "_sum" && suffix != "_count") {
			t.Fatalf("line %d %q: sample outside its family %s (%s)", i, line, fam, kind)
		}
		if g, ok := labels["graph"]; ok {
			graphLabels++
			if g != name {
				t.Errorf("line %d: graph label unescapes to %q, want %q", i, g, name)
			}
		}
		if kind != "histogram" {
			if raw := line[len(metric):strings.LastIndexByte(line, ' ')]; raw < lastLabels {
				t.Errorf("line %d: series %s after %s, want sorted label strings", i, raw, lastLabels)
			} else {
				lastLabels = raw
			}
			continue
		}
		le := labels["le"]
		delete(labels, "le")
		key := fmt.Sprint(labels)
		h := hists[fam+key]
		if h == nil {
			h = &histSeries{lastLE: math.Inf(-1)}
			hists[fam+key] = h
		}
		switch suffix {
		case "_bucket":
			bound, err := strconv.ParseFloat(le, 64)
			if err != nil || bound <= h.lastLE || v < h.lastBucket {
				t.Errorf("line %d %q: le or bucket out of order after le %g, bucket %g", i, line, h.lastLE, h.lastBucket)
			}
			h.lastLE, h.lastBucket = bound, v
			if le == "+Inf" {
				h.inf, h.infSeen = v, true
			}
		case "_count":
			h.count = v
		}
	}
	if graphLabels == 0 {
		t.Fatal("no sample carries the graph label")
	}
	for _, f := range []string{"dccs_search_seconds", "dccs_batch_seconds", "dccs_update_rebuild_seconds"} {
		if !seen[f] {
			t.Errorf("family %s missing", f)
		}
	}
	for key, h := range hists {
		if !h.infSeen || h.inf != h.count {
			t.Errorf("histogram %s: +Inf bucket %g (seen %v), _count %g", key, h.inf, h.infSeen, h.count)
		}
	}
}

// parseSample splits one exposition sample line into its metric name,
// its unescaped labels and its value.
func parseSample(line string) (string, map[string]string, string, error) {
	labels := map[string]string{}
	i := strings.IndexAny(line, "{ ")
	if i <= 0 {
		return "", nil, "", fmt.Errorf("no metric name")
	}
	metric, rest := line[:i], line[i:]
	if rest[0] == '{' {
		rest = rest[1:]
		for !strings.HasPrefix(rest, "}") {
			key, after, ok := strings.Cut(rest, `="`)
			if !ok {
				return "", nil, "", fmt.Errorf("label without a quoted value")
			}
			var val strings.Builder
			j := 0
			for ; j < len(after) && after[j] != '"'; j++ {
				if after[j] == '\\' && j+1 < len(after) {
					j++
					switch after[j] {
					case 'n':
						val.WriteByte('\n')
					case '\\', '"':
						val.WriteByte(after[j])
					default:
						return "", nil, "", fmt.Errorf("bad escape \\%c", after[j])
					}
					continue
				}
				if after[j] == '\n' {
					return "", nil, "", fmt.Errorf("raw newline in a label value")
				}
				val.WriteByte(after[j])
			}
			if j == len(after) {
				return "", nil, "", fmt.Errorf("unterminated label value")
			}
			labels[key] = val.String()
			rest = strings.TrimPrefix(after[j+1:], ",")
		}
		rest = rest[1:]
	}
	value, ok := strings.CutPrefix(rest, " ")
	if !ok || value == "" || strings.Contains(value, " ") {
		return "", nil, "", fmt.Errorf("want one space and a value after the series")
	}
	return metric, labels, value, nil
}
