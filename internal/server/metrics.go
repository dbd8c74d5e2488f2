package server

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	dccs "repro"
)

// bounds are the inclusive upper bounds, in seconds, of the buckets of
// every latency histogram: from a cache hit's tens of microseconds to a
// long search's seconds in 1-2.5-5 steps, then +Inf. Each bound is the
// float64 a time.Duration of that length converts to, so an observation
// on a bound counts in its bucket.
var bounds = [...]float64{1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
	.01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10, math.Inf(1)}

// histogram counts durations into the buckets of bounds without a lock.
// A bucket holds only its own observations, so observe adds to one
// bucket and the sum, and render accumulates the buckets.
type histogram struct {
	buckets [len(bounds)]atomic.Int64
	sumNS   atomic.Int64
}

func (h *histogram) observe(d time.Duration) {
	i, _ := slices.BinarySearch(bounds[:], d.Seconds()) // the first bound ≥ d
	h.buckets[i].Add(1)
	h.sumNS.Add(int64(d))
}

// count returns the number of observations.
func (h *histogram) count() int64 {
	var n int64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// serverMetrics holds what the request path counts for GET /metrics.
// Values with another owner (the cache, the admission queue, the
// engines) are read from their owner at scrape time; see families.
type serverMetrics struct {
	// Handler latency of single searches by source, of batches, and of
	// update batches' rebuilds. Their counts are the request counts.
	searchEngine, searchCache, searchCoalesced histogram
	batch, updateRebuild                       histogram

	rejectedQueueFull   atomic.Int64
	rejectedDraining    atomic.Int64
	rejectedWaitTimeout atomic.Int64

	snapshotSaves atomic.Int64

	// Batches counted once body, graph, size and timeout are valid,
	// before admission (a 429 counts, a 400, 404 or 413 does not), and
	// the items of answered batches by how they were answered.
	batchRequests atomic.Int64
	batchItemsEng atomic.Int64
	batchItemsHit atomic.Int64
	batchItemsDup atomic.Int64
	batchItemsErr atomic.Int64
	batchWarmedDs atomic.Int64

	updateInserted    atomic.Int64
	updateDeleted     atomic.Int64
	updateNoOps       atomic.Int64
	updateInvalidated atomic.Int64

	status [500]atomic.Int64 // responses by HTTP status code, from 100
}

func (m *serverMetrics) countUpdate(stats *dccs.UpdateStats) {
	m.updateRebuild.observe(stats.RebuildElapsed)
	m.updateInserted.Add(int64(stats.Inserted))
	m.updateDeleted.Add(int64(stats.Deleted))
	m.updateNoOps.Add(int64(stats.NoOps))
	m.updateInvalidated.Add(int64(stats.InvalidatedHierarchies))
}

// countBatch accounts one completed batch — the handler latency plus
// every item by outcome — and returns the outcome counts, which
// partition the items: hits + dups + runs + errs = len(items).
func (m *serverMetrics) countBatch(items []BatchItem, elapsed time.Duration) (hits, dups, runs, errs int) {
	for i := range items {
		switch {
		case items[i].Error != "":
			errs++
		case items[i].Source == "cache":
			hits++
		case items[i].Source == "dup":
			dups++
		default:
			runs++
		}
	}
	m.batch.observe(elapsed)
	m.batchItemsHit.Add(int64(hits))
	m.batchItemsDup.Add(int64(dups))
	m.batchItemsEng.Add(int64(runs))
	m.batchItemsErr.Add(int64(errs))
	return hits, dups, runs, errs
}

func (m *serverMetrics) countSearch(source string, elapsed time.Duration) {
	switch source {
	case "cache":
		m.searchCache.observe(elapsed)
	case "coalesced":
		m.searchCoalesced.observe(elapsed)
	default:
		m.searchEngine.observe(elapsed)
	}
}

func (m *serverMetrics) countStatus(code int) {
	m.status[code-100].Add(1)
}

// promLabel renders one label pair with the value escaped per the
// Prometheus text exposition format (backslash, double quote and
// newline). Graph names come from the command line, so an unescaped
// quote would corrupt the whole scrape, not just one series.
func promLabel(name, value string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return fmt.Sprintf(`%s="%s"`, name, r.Replace(value))
}

// A family is one metric of GET /metrics: its name, its kind (counter,
// gauge or histogram) and its series.
type family struct {
	name, kind string
	series     []series
}

// series is one labelled sample of a counter or gauge, or one labelled
// histogram. labels is the rendered label set, "" for none.
type series struct {
	labels string
	v      float64
	h      *histogram
}

// one is the series of a family without labels.
func one(v float64) []series { return []series{{v: v}} }

// families reads every series of GET /metrics once, each graph's
// EngineMetrics included. API.md § GET /metrics is the catalog;
// TestMetricsMatchAPIDoc keeps the two equal.
func (s *Server) families() []family {
	m := &s.metrics
	n := func(c *atomic.Int64) float64 { return float64(c.Load()) }
	search := []series{
		{labels: `source="cache"`, h: &m.searchCache},
		{labels: `source="coalesced"`, h: &m.searchCoalesced},
		{labels: `source="engine"`, h: &m.searchEngine},
	}
	requests := make([]series, len(search))
	for i, hs := range search {
		requests[i] = series{labels: hs.labels, v: float64(hs.h.count())}
	}
	var codes []series
	for i := range m.status {
		if c := m.status[i].Load(); c > 0 {
			codes = append(codes, series{labels: fmt.Sprintf(`code="%d"`, 100+i), v: float64(c)})
		}
	}
	ems := make([]dccs.EngineMetrics, len(s.names))
	for i, name := range s.names {
		ems[i] = s.graphs[name].eng.Metrics()
	}
	perGraph := func(name, kind string, v func(i int) int64) family {
		f := family{name: name, kind: kind}
		for i, g := range s.names {
			f.series = append(f.series, series{labels: promLabel("graph", g), v: float64(v(i))})
		}
		return f
	}
	return []family{
		{"dccs_uptime_seconds", "gauge", one(time.Since(s.start).Seconds())},
		{"dccs_search_requests_total", "counter", requests},
		{"dccs_search_seconds", "histogram", search},
		{"dccs_coalesced_total", "counter", one(float64(m.searchCoalesced.count()))},
		{"dccs_batch_requests_total", "counter", one(n(&m.batchRequests))},
		{"dccs_batch_seconds", "histogram", []series{{h: &m.batch}}},
		{"dccs_batch_items_total", "counter", []series{
			{labels: `source="cache"`, v: n(&m.batchItemsHit)},
			{labels: `source="dup"`, v: n(&m.batchItemsDup)},
			{labels: `source="engine"`, v: n(&m.batchItemsEng)},
			{labels: `source="error"`, v: n(&m.batchItemsErr)},
		}},
		{"dccs_batch_warmed_ds_total", "counter", one(n(&m.batchWarmedDs))},
		{"dccs_cache_hits_total", "counter", one(n(&s.cache.hits))},
		{"dccs_cache_misses_total", "counter", one(n(&s.cache.misses))},
		{"dccs_cache_evictions_total", "counter", one(n(&s.cache.evictions))},
		{"dccs_cache_entries", "gauge", one(float64(s.cache.Len()))},
		{"dccs_cache_capacity", "gauge", one(float64(s.cache.capacity))},
		{"dccs_inflight", "gauge", one(n(&s.admission.inflight))},
		{"dccs_queued", "gauge", one(n(&s.admission.queued))},
		{"dccs_rejected_total", "counter", []series{
			{labels: `reason="draining"`, v: n(&m.rejectedDraining)},
			{labels: `reason="queue_full"`, v: n(&m.rejectedQueueFull)},
			{labels: `reason="wait_timeout"`, v: n(&m.rejectedWaitTimeout)},
		}},
		{"dccs_snapshot_saves_total", "counter", one(n(&m.snapshotSaves))},
		{"dccs_update_batches_total", "counter", one(float64(m.updateRebuild.count()))},
		{"dccs_update_edges_total", "counter", []series{
			{labels: `op="delete"`, v: n(&m.updateDeleted)},
			{labels: `op="insert"`, v: n(&m.updateInserted)},
		}},
		{"dccs_update_noops_total", "counter", one(n(&m.updateNoOps))},
		{"dccs_update_invalidated_hierarchies_total", "counter", one(n(&m.updateInvalidated))},
		{"dccs_update_rebuild_seconds", "histogram", []series{{h: &m.updateRebuild}}},
		perGraph("dccs_graph_version", "gauge", func(i int) int64 { return int64(s.graphs[s.names[i]].eng.Version()) }),
		{"dccs_http_responses_total", "counter", codes},
		perGraph("dccs_engine_queries_total", "counter", func(i int) int64 { return ems[i].Queries }),
		perGraph("dccs_engine_coreness_builds_total", "counter", func(i int) int64 { return ems[i].CorenessBuilds }),
		perGraph("dccs_engine_hierarchy_builds_total", "counter", func(i int) int64 { return ems[i].HierarchyBuilds }),
		perGraph("dccs_engine_memo_hits_total", "counter", func(i int) int64 { return ems[i].MemoHits }),
		perGraph("dccs_engine_memo_misses_total", "counter", func(i int) int64 { return ems[i].MemoMisses }),
		perGraph("dccs_engine_memo_carried_total", "counter", func(i int) int64 { return ems[i].MemoCarried }),
		perGraph("dccs_engine_memo_bytes", "gauge", func(i int) int64 { return ems[i].MemoBytes }),
		perGraph("dccs_engine_space_builds_total", "counter", func(i int) int64 { return ems[i].SpaceBuilds }),
		perGraph("dccs_engine_space_reuses_total", "counter", func(i int) int64 { return ems[i].SpaceReuses }),
	}
}

// render writes families in the Prometheus text format, version 0.0.4:
// families sorted by name, each under one TYPE line, and its series
// sorted by label string. Counters render as integers and gauges with
// %g. A histogram series renders its cumulative buckets, then _sum in
// seconds and _count.
func render(fams []family) []byte {
	var b bytes.Buffer
	sample := func(name, labels string, v any) {
		if labels != "" {
			labels = "{" + labels + "}"
		}
		fmt.Fprintf(&b, "%s%s %v\n", name, labels, v)
	}
	slices.SortFunc(fams, func(x, y family) int { return strings.Compare(x.name, y.name) })
	for _, f := range fams {
		slices.SortFunc(f.series, func(x, y series) int { return strings.Compare(x.labels, y.labels) })
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range f.series {
			switch f.kind {
			case "counter":
				sample(f.name, s.labels, int64(s.v))
			case "gauge":
				sample(f.name, s.labels, s.v)
			case "histogram":
				var cum int64
				for i, le := range bounds {
					cum += s.h.buckets[i].Load()
					// le follows the series' own labels, if any.
					sample(f.name+"_bucket", strings.TrimPrefix(fmt.Sprintf(`%s,le="%g"`, s.labels, le), ","), cum)
				}
				sample(f.name+"_sum", s.labels, time.Duration(s.h.sumNS.Load()).Seconds())
				sample(f.name+"_count", s.labels, cum)
			}
		}
	}
	return b.Bytes()
}

// handleMetrics answers GET /metrics. API.md § GET /metrics is the
// catalog.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// Count the scrape before rendering so dccs_http_responses_total
	// includes it: the catalog promises responses by status for every
	// endpoint, not just the search path.
	s.metrics.countStatus(http.StatusOK)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if _, err := w.Write(render(s.families())); err != nil {
		s.cfg.Logf("server: metrics write: %v", err)
	}
}
