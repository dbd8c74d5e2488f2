package server

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	dccs "repro"
)

// serverMetrics aggregates the server-side counters exported by GET
// /metrics. Everything is a plain atomic — no external metrics
// dependency — rendered on scrape in the Prometheus text exposition
// format. Engine- and cache-level counters live with their owners and
// are folded in at render time.
type serverMetrics struct {
	// Per-outcome search accounting: count and total handler latency.
	searchEngine, searchCache, searchCoalesced       atomic.Int64
	searchEngineNS, searchCacheNS, searchCoalescedNS atomic.Int64

	coalesced atomic.Int64 // requests that shared another's computation

	inflight            atomic.Int64 // admission tokens held
	rejectedQueueFull   atomic.Int64
	rejectedDraining    atomic.Int64
	rejectedWaitTimeout atomic.Int64

	snapshotSaves atomic.Int64

	// Batch search accounting (POST /v1/search/batch): whole-batch count
	// and latency, plus per-item outcomes by how they were answered.
	batchRequests atomic.Int64
	batchNS       atomic.Int64
	batchItemsEng atomic.Int64
	batchItemsHit atomic.Int64
	batchItemsDup atomic.Int64
	batchItemsErr atomic.Int64
	batchWarmedDs atomic.Int64

	// Live-graph update accounting (POST /v1/graphs/{id}/edges).
	updateBatches     atomic.Int64
	updateInserted    atomic.Int64
	updateDeleted     atomic.Int64
	updateNoOps       atomic.Int64
	updateInvalidated atomic.Int64
	updateRebuildNS   atomic.Int64

	// HTTP status counts, keyed by numeric code.
	statusMu sync.Mutex
	status   map[int]int64
}

func (m *serverMetrics) countUpdate(stats *dccs.UpdateStats) {
	m.updateBatches.Add(1)
	m.updateInserted.Add(int64(stats.Inserted))
	m.updateDeleted.Add(int64(stats.Deleted))
	m.updateNoOps.Add(int64(stats.NoOps))
	m.updateInvalidated.Add(int64(stats.InvalidatedHierarchies))
	m.updateRebuildNS.Add(int64(stats.RebuildElapsed))
}

// countBatch accounts one completed batch — the handler latency plus
// every item by outcome — and returns the outcome counts, which
// partition the items: hits + dups + runs + errs = len(items).
// batchRequests is counted by the handler before resolving (so rejected
// batches still show up in the request count).
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
	m.batchNS.Add(int64(elapsed))
	m.batchItemsHit.Add(int64(hits))
	m.batchItemsDup.Add(int64(dups))
	m.batchItemsEng.Add(int64(runs))
	m.batchItemsErr.Add(int64(errs))
	return hits, dups, runs, errs
}

func (m *serverMetrics) countSearch(source string, elapsed time.Duration) {
	switch source {
	case "cache":
		m.searchCache.Add(1)
		m.searchCacheNS.Add(int64(elapsed))
	case "coalesced":
		m.searchCoalesced.Add(1)
		m.searchCoalescedNS.Add(int64(elapsed))
	default:
		m.searchEngine.Add(1)
		m.searchEngineNS.Add(int64(elapsed))
	}
}

func (m *serverMetrics) countStatus(code int) {
	m.statusMu.Lock()
	if m.status == nil {
		m.status = map[int]int64{}
	}
	m.status[code]++
	m.statusMu.Unlock()
}

// promLabel renders one label pair with the value escaped per the
// Prometheus text exposition format (backslash, double quote and
// newline). Graph names come from the command line, so an unescaped
// quote would corrupt the whole scrape, not just one series.
func promLabel(name, value string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return fmt.Sprintf(`%s="%s"`, name, r.Replace(value))
}

// promWriter accumulates Prometheus text-format lines with one-shot
// TYPE headers.
type promWriter struct {
	w   http.ResponseWriter
	err error
}

func (p *promWriter) typ(name, kind string) {
	p.printf("# TYPE %s %s\n", name, kind)
}

func (p *promWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

func (p *promWriter) counter(name, labels string, v int64) {
	p.sample(name, labels, fmt.Sprintf("%d", v))
}

func (p *promWriter) gauge(name, labels string, v float64) {
	p.sample(name, labels, fmt.Sprintf("%g", v))
}

func (p *promWriter) sample(name, labels, v string) {
	if labels != "" {
		labels = "{" + labels + "}"
	}
	p.printf("%s%s %s\n", name, labels, v)
}

// handleMetrics renders GET /metrics. The catalog is documented in
// README.md; keep the two in sync.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := &s.metrics
	// Count the scrape before rendering so dccs_http_responses_total
	// includes it — the catalog promises responses by status for every
	// endpoint, not just the search path.
	m.countStatus(http.StatusOK)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := &promWriter{w: w}

	p.typ("dccs_uptime_seconds", "gauge")
	p.gauge("dccs_uptime_seconds", "", time.Since(s.start).Seconds())

	p.typ("dccs_search_requests_total", "counter")
	p.counter("dccs_search_requests_total", `source="engine"`, m.searchEngine.Load())
	p.counter("dccs_search_requests_total", `source="cache"`, m.searchCache.Load())
	p.counter("dccs_search_requests_total", `source="coalesced"`, m.searchCoalesced.Load())

	p.typ("dccs_search_seconds_total", "counter")
	p.gauge("dccs_search_seconds_total", `source="engine"`, time.Duration(m.searchEngineNS.Load()).Seconds())
	p.gauge("dccs_search_seconds_total", `source="cache"`, time.Duration(m.searchCacheNS.Load()).Seconds())
	p.gauge("dccs_search_seconds_total", `source="coalesced"`, time.Duration(m.searchCoalescedNS.Load()).Seconds())

	p.typ("dccs_coalesced_total", "counter")
	p.counter("dccs_coalesced_total", "", m.coalesced.Load())

	p.typ("dccs_cache_hits_total", "counter")
	p.counter("dccs_cache_hits_total", "", s.cache.hits.Load())
	p.typ("dccs_cache_misses_total", "counter")
	p.counter("dccs_cache_misses_total", "", s.cache.misses.Load())
	p.typ("dccs_cache_evictions_total", "counter")
	p.counter("dccs_cache_evictions_total", "", s.cache.evictions.Load())
	p.typ("dccs_cache_entries", "gauge")
	p.gauge("dccs_cache_entries", "", float64(s.cache.Len()))
	p.typ("dccs_cache_capacity", "gauge")
	p.gauge("dccs_cache_capacity", "", float64(s.cache.capacity))

	p.typ("dccs_inflight", "gauge")
	p.gauge("dccs_inflight", "", float64(m.inflight.Load()))
	p.typ("dccs_queued", "gauge")
	p.gauge("dccs_queued", "", float64(s.queued.Load()))
	p.typ("dccs_rejected_total", "counter")
	p.counter("dccs_rejected_total", `reason="queue_full"`, m.rejectedQueueFull.Load())
	p.counter("dccs_rejected_total", `reason="draining"`, m.rejectedDraining.Load())
	p.counter("dccs_rejected_total", `reason="wait_timeout"`, m.rejectedWaitTimeout.Load())

	p.typ("dccs_snapshot_saves_total", "counter")
	p.counter("dccs_snapshot_saves_total", "", m.snapshotSaves.Load())

	p.typ("dccs_batch_requests_total", "counter")
	p.counter("dccs_batch_requests_total", "", m.batchRequests.Load())
	p.typ("dccs_batch_seconds_total", "counter")
	p.gauge("dccs_batch_seconds_total", "", time.Duration(m.batchNS.Load()).Seconds())
	p.typ("dccs_batch_items_total", "counter")
	p.counter("dccs_batch_items_total", `source="engine"`, m.batchItemsEng.Load())
	p.counter("dccs_batch_items_total", `source="cache"`, m.batchItemsHit.Load())
	p.counter("dccs_batch_items_total", `source="dup"`, m.batchItemsDup.Load())
	p.counter("dccs_batch_items_total", `source="error"`, m.batchItemsErr.Load())
	p.typ("dccs_batch_warmed_ds_total", "counter")
	p.counter("dccs_batch_warmed_ds_total", "", m.batchWarmedDs.Load())

	p.typ("dccs_update_batches_total", "counter")
	p.counter("dccs_update_batches_total", "", m.updateBatches.Load())
	p.typ("dccs_update_edges_total", "counter")
	p.counter("dccs_update_edges_total", `op="insert"`, m.updateInserted.Load())
	p.counter("dccs_update_edges_total", `op="delete"`, m.updateDeleted.Load())
	p.typ("dccs_update_noops_total", "counter")
	p.counter("dccs_update_noops_total", "", m.updateNoOps.Load())
	p.typ("dccs_update_invalidated_hierarchies_total", "counter")
	p.counter("dccs_update_invalidated_hierarchies_total", "", m.updateInvalidated.Load())
	p.typ("dccs_update_rebuild_seconds_total", "counter")
	p.gauge("dccs_update_rebuild_seconds_total", "", time.Duration(m.updateRebuildNS.Load()).Seconds())

	p.typ("dccs_graph_version", "gauge")
	for _, name := range s.names {
		p.gauge("dccs_graph_version", promLabel("graph", name), float64(s.graphs[name].eng.Version()))
	}

	p.typ("dccs_http_responses_total", "counter")
	m.statusMu.Lock()
	codes := make([]int, 0, len(m.status))
	for c := range m.status {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	for _, c := range codes {
		p.counter("dccs_http_responses_total", fmt.Sprintf(`code="%d"`, c), m.status[c])
	}
	m.statusMu.Unlock()

	// Engine series: one row per series, each graph's Metrics read once.
	ems := make([]dccs.EngineMetrics, len(s.names))
	for i, name := range s.names {
		ems[i] = s.graphs[name].eng.Metrics()
	}
	for _, row := range []struct {
		name, kind string
		value      func(*dccs.EngineMetrics) int64
	}{
		{"dccs_engine_queries_total", "counter", func(m *dccs.EngineMetrics) int64 { return m.Queries }},
		{"dccs_engine_coreness_builds_total", "counter", func(m *dccs.EngineMetrics) int64 { return m.CorenessBuilds }},
		{"dccs_engine_hierarchy_builds_total", "counter", func(m *dccs.EngineMetrics) int64 { return m.HierarchyBuilds }},
		{"dccs_engine_memo_hits_total", "counter", func(m *dccs.EngineMetrics) int64 { return m.MemoHits }},
		{"dccs_engine_memo_misses_total", "counter", func(m *dccs.EngineMetrics) int64 { return m.MemoMisses }},
		{"dccs_engine_memo_bytes", "gauge", func(m *dccs.EngineMetrics) int64 { return m.MemoBytes }},
		{"dccs_engine_space_builds_total", "counter", func(m *dccs.EngineMetrics) int64 { return m.SpaceBuilds }},
		{"dccs_engine_space_reuses_total", "counter", func(m *dccs.EngineMetrics) int64 { return m.SpaceReuses }},
	} {
		p.typ(row.name, row.kind)
		for i, name := range s.names {
			if v := row.value(&ems[i]); row.kind == "counter" {
				p.counter(row.name, promLabel("graph", name), v)
			} else {
				p.gauge(row.name, promLabel("graph", name), float64(v))
			}
		}
	}
	if p.err != nil {
		s.cfg.Logf("server: metrics write: %v", p.err)
	}
}
