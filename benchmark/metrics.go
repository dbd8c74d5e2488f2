package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// metricDef is one metric the benchmark reports, as BENCHMARK.json lists
// it. TestMetricTablesMatchBenchmarkJSON keeps the two in lockstep.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the numbers a user of the service sees. Every workload
// reports all of them: "main" is the operation the workload is about and
// "side" the one that runs next to it (the README has the table).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"setup_heap_mb", "MiB", "lower"},
	{"main_p50_ms", "ms", "lower"},
	{"main_tail_ms", "ms", "lower"},
	{"main_per_s", "1/s", "higher"},
	{"side_p50_ms", "ms", "lower"},
	{"side_tail_ms", "ms", "lower"},
}

// perLayer are the traced run's numbers, named <layer>.<quantity> after
// the repository module they measure. A workload that never enters a layer
// reports 0 for it.
var perLayer = []metricDef{
	{"server.handler_self_p50_ms", "ms", "lower"},
	{"server.handler_self_tail_ms", "ms", "lower"},
	{"server.wire_p50_ms", "ms", "lower"},
	{"server.response_bytes", "bytes", "lower"},
	{"server.batch_handler_p50_ms", "ms", "lower"},
	{"server.cache_hit_ratio", "ratio", "higher"},
	{"server.coalesced_ratio", "ratio", "higher"},
	{"server.refused", "count", "lower"},
	{"dccs.cachekey_p50_us", "us", "lower"},
	{"dccs.fingerprint_p50_ms", "ms", "lower"},
	{"dccs.artifact_builds", "count", "lower"},
	{"core.search_bu_p50_ms", "ms", "lower"},
	{"core.search_td_p50_ms", "ms", "lower"},
	{"core.tree_nodes", "count", "lower"},
	{"core.candidates", "count", "lower"},
	{"core.dcc_calls", "count", "lower"},
	{"core.topk_updates", "count", "lower"},
	{"core.pruned", "count", "higher"},
	{"core.preprocess_removed", "count", "higher"},
	{"core.hierarchy_p50_ms", "ms", "lower"},
	{"core.first_search_p50_ms", "ms", "lower"},
	{"core.snapshot_restore_p50_ms", "ms", "lower"},
	{"core.snapshot_bytes", "bytes", "lower"},
	{"kcore.coreness_p50_ms", "ms", "lower"},
	{"multilayer.decode_p50_ms", "ms", "lower"},
	{"multilayer.mmap_open_p50_ms", "ms", "lower"},
	{"multilayer.file_bytes", "bytes", "lower"},
	{"cli.encode_p50_ms", "ms", "lower"},
	{"live.rebuild_p50_ms", "ms", "lower"},
	{"live.rebuild_tail_ms", "ms", "lower"},
	{"live.update_self_p50_ms", "ms", "lower"},
	{"live.dirty_layers", "count", "lower"},
	{"live.invalidated_hierarchies", "count", "lower"},
	{"live.retained_hierarchies", "count", "higher"},
	{"loadgen.main_p50_ms", "ms", "lower"},
	{"loadgen.lag_p50_ms", "ms", "lower"},
	{"loadgen.lag_tail_ms", "ms", "lower"},
	{"loadgen.probe_ms", "ms", "lower"},
}

// minBeyond is how many samples must lie above a reported percentile: a
// tail read from fewer is one or two outliers, not a percentile.
const minBeyond = 10

// tail returns the nearest-rank p-quantile of xs, refusing one with fewer
// than minBeyond samples beyond it.
func tail(xs []float64, p float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 || n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", 100*p, n, n-rank, minBeyond)
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rank-1], nil
}

// median is the middle of xs (the mean of the two middle values for an
// even count), 0 for no samples. It applies no sample-count rule: use it
// for per-layer values and for medians over runs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
