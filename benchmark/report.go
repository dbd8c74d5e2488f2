package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	dccs "repro"
	"repro/internal/server"
)

// setUp starts the workload's program r.size.setups times from a
// collected heap, stopping each instance before the next and keeping the
// last; setup_s is the median start time.
func setUp[T any](r *runner, start func() (T, error), stop func(T)) (T, float64, error) {
	var cur T
	var times []float64
	for k := 0; k < r.size.setups; k++ {
		if k > 0 {
			stop(cur)
		}
		runtime.GC()
		t := time.Now()
		v, err := start()
		if err != nil {
			return cur, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t).Seconds())
		cur = v
	}
	return cur, median(times), nil
}

// item is one answered query of a search or batch op. Workloads drop its
// cores once no check needs them.
type item struct {
	num int
	reply
}

// rec is what a workload keeps of one HTTP op: its sample without the
// body, the decoded reply, and the first thing found wrong with it.
type rec struct {
	sample
	kind      string // "search", "batch" or "update"
	size      int
	handlerMS float64
	items     []item
	update    server.UpdateResponse
	bad       string
}

// record decodes the reply to o. A 200 whose body does not decode, or
// whose batch answers a different number of queries, is marked bad.
func record(s sample, o op) rec {
	rc := rec{sample: s, kind: "update", size: len(s.body)}
	body := s.body
	rc.body = nil
	switch o.path {
	case "/v1/search":
		rc.kind = "search"
	case "/v1/search/batch":
		rc.kind = "batch"
	}
	if !s.ok() {
		return rc
	}
	var err error
	switch rc.kind {
	case "search":
		var rp reply
		err = json.Unmarshal(body, &rp)
		rc.handlerMS = rp.ElapsedMS
		rc.items = []item{{num: o.items[0], reply: rp}}
	case "batch":
		var br batchReply
		if err = json.Unmarshal(body, &br); err == nil && len(br.Items) != len(o.items) {
			err = fmt.Errorf("%d items for %d queries", len(br.Items), len(o.items))
		}
		rc.handlerMS = br.ElapsedMS
		for k, rp := range br.Items[:min(len(br.Items), len(o.items))] {
			rc.items = append(rc.items, item{num: o.items[k], reply: rp})
		}
	default:
		err = json.Unmarshal(body, &rc.update)
	}
	if err != nil {
		rc.bad = fmt.Sprintf("op %d: %s reply: %v", s.op, rc.kind, err)
	}
	return rc
}

// checkItems marks rc bad when an item failed, was truncated, or came
// from a source other than the allowed ones.
func checkItems(rc *rec, sources ...string) {
	for _, it := range rc.items {
		if rc.bad != "" {
			return
		}
		switch {
		case it.Error != "":
			rc.bad = fmt.Sprintf("op %d: query %d failed: %s", rc.op, it.num, it.Error)
		case it.Truncated:
			rc.bad = fmt.Sprintf("op %d: query %d truncated", rc.op, it.num)
		default:
			rc.bad = fmt.Sprintf("op %d: query %d answered from %q, want one of %v", rc.op, it.num, it.Source, sources)
			for _, src := range sources {
				if it.Source == src {
					rc.bad = ""
				}
			}
		}
	}
}

// tally counts the ops, records gate failures, and returns the latencies
// of the successful main and side ops with the rate of main ops completed
// per second since start. A refused or failed op counts against
// attempted and has no latency.
func tally(o *outcome, start time.Time, recs []rec) (main, side []float64, mainPerS float64) {
	last := start
	for i := range recs {
		rc := &recs[i]
		o.attempted++
		if rc.bad != "" {
			o.fail("%s", rc.bad)
		}
		if !rc.ok() {
			o.failed++
			continue
		}
		if rc.side {
			side = append(side, rc.latency())
		} else {
			main = append(main, rc.latency())
		}
		if rc.done.After(last) {
			last = rc.done
		}
	}
	if d := last.Sub(start).Seconds(); d > 0 {
		mainPerS = float64(len(main)) / d
	}
	return main, side, mainPerS
}

// endToEnd fills in the end-to-end metrics.
func (r *runner) endToEnd(o *outcome, setupS, heapMB float64, main, side []float64, mainPerS float64) error {
	mt, err := tail(main, r.mainTail)
	if err != nil {
		return fmt.Errorf("main op: %w", err)
	}
	st, err := tail(side, r.sideTail)
	if err != nil {
		return fmt.Errorf("side op: %w", err)
	}
	m := o.metrics
	m["setup_s"] = setupS
	m["setup_heap_mb"] = heapMB
	m["main_p50_ms"] = median(main)
	m["main_tail_ms"] = mt
	m["main_per_s"] = mainPerS
	m["side_p50_ms"] = median(side)
	m["side_tail_ms"] = st
	r.logf("ops: %d main, %d side; main_tail is p%g, side_tail is p%g", len(main), len(side), 100*r.mainTail, 100*r.sideTail)
	return nil
}

// traceHTTP adds the spans of a served op: the op as the client timed it,
// the handler time from the response's elapsed_ms (rebuild_ms for an
// update), and the engine time of each item the engine computed.
func (t *tracer) traceHTTP(rc *rec) {
	if t == nil || !rc.ok() {
		return
	}
	t.add(rc.op, rc.kind, "", rc.sent, rc.rtt())
	if rc.kind == "update" {
		t.add(rc.op, "live.rebuild", "update", rc.sent, msDur(rc.update.RebuildMS))
		return
	}
	handler := "server.handler"
	if rc.kind == "batch" {
		handler = "server.batch_handler"
	}
	t.add(rc.op, handler, rc.kind, rc.sent, msDur(rc.handlerMS))
	for _, it := range rc.items {
		if it.Source == "engine" {
			t.add(rc.op, "core.search", handler, rc.sent, time.Duration(it.Stats.EngineSecs*float64(time.Second)))
		}
	}
}

func msDur(x float64) time.Duration { return time.Duration(x * float64(time.Millisecond)) }

// zeroLayers starts a traced run's per-layer metrics at 0, the value of
// every layer the workload does not enter.
func zeroLayers(o *outcome) {
	for _, d := range perLayer {
		o.metrics[d.name] = 0
	}
}

// measureServed fills in the metrics of a served workload once its window
// has closed: start is when the window opened, builds the engine's
// artifact builds during it, and qs the queries the cache-key probe
// canonicalizes.
func (r *runner) measureServed(o *outcome, setupS, heapMB float64, start time.Time, recs []rec, svc *service, builds int64, qs []dccs.Query) error {
	main, side, perS := tally(o, start, recs)
	if len(o.wrong) > 0 {
		return nil
	}
	if err := r.endToEnd(o, setupS, heapMB, main, side, perS); err != nil {
		return err
	}
	if r.trace == nil {
		return nil
	}
	for i := range recs {
		r.trace.traceHTTP(&recs[i])
	}
	o.metrics["loadgen.main_p50_ms"] = o.metrics["main_p50_ms"]
	o.metrics["dccs.artifact_builds"] = float64(builds)
	return r.httpLayers(o, recs, svc, qs)
}

// httpLayers fills in the per-layer metrics of a served workload from its
// records and spans.
func (r *runner) httpLayers(o *outcome, recs []rec, svc *service, qs []dccs.Query) error {
	m := o.metrics
	spans := r.trace.spans
	if hs := selfTimes(spans, "server.handler"); len(hs) > 0 {
		m["server.handler_self_p50_ms"] = median(hs)
		ht, err := tail(hs, r.mainTail)
		if err != nil {
			return fmt.Errorf("server.handler self time: %w", err)
		}
		m["server.handler_self_tail_ms"] = ht
	}
	m["server.wire_p50_ms"] = median(selfTimes(spans, "search"))
	m["server.batch_handler_p50_ms"] = median(durations(spans, "server.batch_handler"))

	var bytes, lags, bu, td, rebuild, dirty, invalidated, retained []float64
	var engine []server.SearchStats
	var items, cached, coalesced, refused int
	for i := range recs {
		rc := &recs[i]
		lags = append(lags, rc.lag())
		if rc.refused() {
			refused++
		}
		if !rc.ok() {
			continue
		}
		if rc.kind == "search" {
			bytes = append(bytes, float64(rc.size))
		}
		if up := rc.update; rc.kind == "update" {
			rebuild = append(rebuild, up.RebuildMS)
			dirty = append(dirty, float64(up.DirtyLayers))
			invalidated = append(invalidated, float64(up.InvalidatedHierarchies))
			retained = append(retained, float64(up.RetainedHierarchies))
		}
		for _, it := range rc.items {
			items++
			switch it.Source {
			case "cache":
				cached++
			case "coalesced", "dup":
				coalesced++
			case "engine":
				if len(engine) < r.size.prefix {
					engine = append(engine, it.Stats)
				}
				if it.Stats.Algorithm == string(dccs.AlgoTopDown) {
					td = append(td, 1000*it.Stats.EngineSecs)
				} else {
					bu = append(bu, 1000*it.Stats.EngineSecs)
				}
			}
		}
	}
	m["server.response_bytes"] = mean(bytes)
	if items > 0 {
		m["server.cache_hit_ratio"] = float64(cached) / float64(items)
		m["server.coalesced_ratio"] = float64(coalesced) / float64(items)
	}
	m["server.refused"] = float64(refused)
	m["core.search_bu_p50_ms"] = median(bu)
	m["core.search_td_p50_ms"] = median(td)
	coreCounts(m, engine)
	m["loadgen.lag_p50_ms"] = median(lags)
	lt, err := tail(lags, r.mainTail)
	if err != nil {
		return fmt.Errorf("generator lag: %w", err)
	}
	m["loadgen.lag_tail_ms"] = lt
	if len(rebuild) > 0 {
		m["live.rebuild_p50_ms"] = median(rebuild)
		rt, err := tail(rebuild, r.sideTail)
		if err != nil {
			return fmt.Errorf("live rebuild: %w", err)
		}
		m["live.rebuild_tail_ms"] = rt
		m["live.update_self_p50_ms"] = median(selfTimes(spans, "update"))
		m["live.dirty_layers"] = mean(dirty)
		m["live.invalidated_hierarchies"] = mean(invalidated)
		m["live.retained_hierarchies"] = mean(retained)
	}
	m["dccs.cachekey_p50_us"] = cacheKeyUS(svc.eng.View(), qs)
	m["dccs.fingerprint_p50_ms"] = fingerprintMS(svc.eng.Graph())
	return nil
}

// coreCounts fills in the per-query means of the engine's work counters.
// Over a fixed query stream they repeat exactly from run to run.
func coreCounts(m map[string]float64, stats []server.SearchStats) {
	if len(stats) == 0 {
		return
	}
	var tree, cand, dcc, upd, pruned, removed float64
	for _, s := range stats {
		tree += float64(s.TreeNodes)
		cand += float64(s.Candidates)
		dcc += float64(s.DCCCalls)
		upd += float64(s.Updates)
		pruned += float64(s.Pruned)
		removed += float64(s.PreprocessRemoved)
	}
	n := float64(len(stats))
	m["core.tree_nodes"] = tree / n
	m["core.candidates"] = cand / n
	m["core.dcc_calls"] = dcc / n
	m["core.topk_updates"] = upd / n
	m["core.pruned"] = pruned / n
	m["core.preprocess_removed"] = removed / n
}

// cacheKeyUS is the median time of one View.CacheKey call, in µs, timed
// over whole passes of qs because one call is too short to time alone.
func cacheKeyUS(v dccs.View, qs []dccs.Query) float64 {
	var xs []float64
	for pass := 0; pass < 50; pass++ {
		t := time.Now()
		for _, q := range qs {
			_ = v.CacheKey(q)
		}
		xs = append(xs, float64(time.Since(t).Nanoseconds())/1e3/float64(len(qs)))
	}
	return median(xs)
}

// fingerprintMS is the median time of Graph.Fingerprint, the hash the
// first cache key of every new generation pays for.
func fingerprintMS(g *dccs.Graph) float64 {
	var xs []float64
	for k := 0; k < 5; k++ {
		t := time.Now()
		_ = g.Fingerprint()
		xs = append(xs, ms(time.Since(t)))
	}
	return median(xs)
}
