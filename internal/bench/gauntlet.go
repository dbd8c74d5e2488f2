package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	dccs "repro"
	"repro/internal/datasets"
	"repro/internal/mimag"
	"repro/internal/multilayer"
	"repro/internal/quality"
)

// The scale gauntlet is the repo's proof-at-scale protocol: for each
// dataset it streams a planted-community graph to disk (datasets.Stream
// — never materialized in RAM), opens it through the mmap zero-copy
// path, then runs DCCS (engine path) and MiMAG under matched wall-clock
// budgets and scores both against the planted ground truth. Latency is
// reported as p50/p99 per query; quality as precision/recall/F1 under
// the Jaccard ≥ 0.5 matching rule of internal/quality, after splitting
// every output into connected components on its supporting layers (see
// splitOnLayers). The run fails — after writing the artifact — unless
// DCCS scores at least MiMAG's F1 AND a strictly lower p50 on every
// dataset.

// gauntletDataset couples a generator config with the query parameters
// and the per-invocation wall budget both algorithms get.
type gauntletDataset struct {
	cfg     datasets.Config
	d, s, k int
	budget  time.Duration
}

// gauntletQuick is the PR-CI tier: seconds per dataset, small enough
// that MiMAG's enumeration has a fighting chance. MinSupport is kept at
// or above s so every planted community is recoverable by both sides.
func gauntletQuick(seed int64) []gauntletDataset {
	return []gauntletDataset{
		{cfg: datasets.Config{Name: "gq-base", N: 1200, Layers: 6, Seed: seed,
			AvgDegree: 2.5, Gamma: 2.5, Correlation: 0.3,
			Communities: 5, MinSize: 10, MaxSize: 14, MinSupport: 3, MaxSupport: 4,
			PIn: 0.92, Persistent: 1, CrossLayerNoise: 0.05},
			d: 4, s: 3, k: 12, budget: 2 * time.Second},
		{cfg: datasets.Config{Name: "gq-wide", N: 2000, Layers: 8, Seed: seed + 1,
			AvgDegree: 2.2, Gamma: 2.4, Correlation: 0.4,
			Communities: 6, MinSize: 11, MaxSize: 15, MinSupport: 3, MaxSupport: 5,
			PIn: 0.92, Persistent: 1, CrossLayerNoise: 0.05},
			d: 4, s: 3, k: 14, budget: 2 * time.Second},
		{cfg: datasets.Config{Name: "gq-dense", N: 1500, Layers: 6, Seed: seed + 2,
			AvgDegree: 3.0, Gamma: 2.5, Correlation: 0.3,
			Communities: 6, MinSize: 12, MaxSize: 16, MinSupport: 3, MaxSupport: 4,
			PIn: 0.95, Persistent: 1, CrossLayerNoise: 0.03},
			d: 5, s: 3, k: 14, budget: 2 * time.Second},
	}
}

// gauntletFull is the nightly tier: an order of magnitude more vertices
// and tens of seconds of budget per invocation, where MiMAG's
// exponential enumeration falls behind and the engine's amortization
// shows.
func gauntletFull(seed int64) []gauntletDataset {
	return []gauntletDataset{
		{cfg: datasets.Config{Name: "gf-base", N: 12000, Layers: 8, Seed: seed,
			AvgDegree: 2.5, Gamma: 2.5, Correlation: 0.3,
			Communities: 12, MinSize: 12, MaxSize: 18, MinSupport: 3, MaxSupport: 5,
			PIn: 0.92, Persistent: 1, CrossLayerNoise: 0.05},
			d: 4, s: 3, k: 26, budget: 20 * time.Second},
		{cfg: datasets.Config{Name: "gf-wide", N: 20000, Layers: 10, Seed: seed + 1,
			AvgDegree: 2.2, Gamma: 2.4, Correlation: 0.4,
			Communities: 15, MinSize: 12, MaxSize: 18, MinSupport: 3, MaxSupport: 6,
			PIn: 0.92, Persistent: 1, CrossLayerNoise: 0.05},
			d: 4, s: 3, k: 32, budget: 25 * time.Second},
		{cfg: datasets.Config{Name: "gf-dense", N: 15000, Layers: 8, Seed: seed + 2,
			AvgDegree: 3.0, Gamma: 2.5, Correlation: 0.3,
			Communities: 14, MinSize: 14, MaxSize: 20, MinSupport: 3, MaxSupport: 5,
			PIn: 0.95, Persistent: 1, CrossLayerNoise: 0.03},
			d: 5, s: 3, k: 30, budget: 25 * time.Second},
	}
}

const (
	gauntletDCCSIters  = 7 // engine queries per dataset (first one cold)
	gauntletMimagIters = 2 // full Mine invocations per dataset
	gauntletMinJaccard = 0.5
)

// gauntletEntry is the per-dataset record of BENCH_scale.json. Field
// names carry no meaning for the regression gate: the values benchdiff
// compares are listed, with their direction, in gauntletReport.Metrics.
type gauntletEntry struct {
	N           int   `json:"n"`
	Layers      int   `json:"layers"`
	TotalEdges  int   `json:"total_edges"`
	GraphBytes  int64 `json:"graph_bytes"`
	StreamPeak  int64 `json:"stream_peak_resident_bytes"`
	Communities int   `json:"communities"`

	DCCSP50MS  float64 `json:"dccs_p50_ms"`
	DCCSP99MS  float64 `json:"dccs_p99_ms"`
	MimagP50MS float64 `json:"mimag_p50_ms"`
	MimagP99MS float64 `json:"mimag_p99_ms"`
	P50Speedup float64 `json:"p50_speedup"`

	DCCSPrecision  float64 `json:"dccs_precision"`
	DCCSRecall     float64 `json:"dccs_recall"`
	DCCSF1         float64 `json:"dccs_f1"`
	MimagPrecision float64 `json:"mimag_precision"`
	MimagRecall    float64 `json:"mimag_recall"`
	MimagF1        float64 `json:"mimag_f1"`

	DCCSGroups     int   `json:"dccs_groups"`
	MimagGroups    int   `json:"mimag_groups"`
	MimagTruncated bool  `json:"mimag_truncated"`
	BudgetMS       int64 `json:"budget_ms"`
}

// gauntletReport is the BENCH_scale.json artifact. Datasets holds the
// full per-dataset records; Metrics repeats the gated values as rows
// that state their own unit and direction, which is all benchdiff reads.
type gauntletReport struct {
	Mode     string                   `json:"mode"`
	Datasets map[string]gauntletEntry `json:"datasets"`
	Metrics  []metricRow              `json:"metrics"`
}

// metricRow is one gated value of BENCH_scale.json, named and directed
// in the words of the repository benchmark: better is "lower" or
// "higher".
type metricRow struct {
	Dataset string  `json:"dataset"`
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Better  string  `json:"better"`
	Value   float64 `json:"value"`
}

// gauntletMetrics derives the gated rows from the per-dataset entries,
// ordered by dataset name: the four latency percentiles (lower is
// better) and the MiMAG-over-DCCS p50 ratio (higher is better).
func gauntletMetrics(datasets map[string]gauntletEntry) []metricRow {
	names := make([]string, 0, len(datasets))
	for name := range datasets {
		names = append(names, name)
	}
	slices.Sort(names)
	var rows []metricRow
	for _, name := range names {
		e := datasets[name]
		rows = append(rows,
			metricRow{name, "dccs_p50_ms", "ms", "lower", e.DCCSP50MS},
			metricRow{name, "dccs_p99_ms", "ms", "lower", e.DCCSP99MS},
			metricRow{name, "mimag_p50_ms", "ms", "lower", e.MimagP50MS},
			metricRow{name, "mimag_p99_ms", "ms", "lower", e.MimagP99MS},
			metricRow{name, "p50_speedup", "ratio", "higher", e.P50Speedup},
		)
	}
	return rows
}

// splitOnLayers splits one algorithm output (a DCCS core or a MiMAG
// cluster) into the connected components of the subgraph induced by its
// vertex set, keeping only coherent edges: pairs adjacent on EVERY
// supporting layer. Two properties make this the right matching
// granularity. First, a d-CC over a layer subset is by definition the
// union of every group dense there — one core routinely contains
// several planted communities plus the persistent backbone — so
// matching unsplit cores against individual communities would fail
// Jaccard ≥ 0.5 spuriously. Second, connectivity on the *union* of the
// layers is too loose the other way: a single background edge on one
// layer would glue two otherwise unrelated communities back together.
// Coherent edges are exactly the structure both algorithms certify
// (per-layer density on every supporting layer), persist inside planted
// communities (whose internal edges are replicated across supporting
// layers), and essentially never occur between them, since a background
// pair would have to be sampled on all s layers at once.
func splitOnLayers(g *multilayer.Graph, vertices []int32, layers []int) [][]int32 {
	if len(vertices) == 0 || len(layers) == 0 {
		return nil
	}
	idx := make(map[int32]int, len(vertices))
	for i, v := range vertices {
		idx[v] = i
	}
	coherent := func(u int, w int32) bool {
		for _, layer := range layers[1:] {
			if !g.HasEdge(layer, u, int(w)) {
				return false
			}
		}
		return true
	}
	comp := make([]int, len(vertices))
	for i := range comp {
		comp[i] = -1
	}
	var out [][]int32
	stack := make([]int, 0, len(vertices))
	for i := range vertices {
		if comp[i] >= 0 {
			continue
		}
		id := len(out)
		comp[i] = id
		stack = append(stack[:0], i)
		members := []int32{vertices[i]}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range g.Neighbors(layers[0], int(vertices[u])) {
				j, ok := idx[w]
				if !ok || comp[j] >= 0 || !coherent(int(vertices[u]), w) {
					continue
				}
				comp[j] = id
				stack = append(stack, j)
				members = append(members, w)
			}
		}
		slices.Sort(members)
		out = append(out, members)
	}
	return out
}

// gauntletTruth converts the planted communities into the scorer's
// sorted-[]int32 form.
func gauntletTruth(comms []datasets.Community) [][]int32 {
	out := make([][]int32, len(comms))
	for i, c := range comms {
		vs := make([]int32, len(c.Vertices))
		for j, v := range c.Vertices {
			vs[j] = int32(v)
		}
		slices.Sort(vs)
		out[i] = vs
	}
	return out
}

// gauntletPercentiles reduces per-query latencies to (p50, p99) in ms.
func gauntletPercentiles(lat []time.Duration) (p50, p99 float64) {
	slices.Sort(lat)
	n := len(lat)
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return ms(lat[n/2]), ms(lat[(99*n-1)/100])
}

// runGauntletDataset streams gd's graph to dir, opens it mapped, and
// runs both sides under gd.budget per invocation.
func (s *Suite) runGauntletDataset(gd gauntletDataset, dir string) (gauntletEntry, error) {
	var e gauntletEntry
	path := filepath.Join(dir, gd.cfg.Name+".mlgb")
	f, err := os.Create(path)
	if err != nil {
		return e, err
	}
	sr, err := datasets.Stream(gd.cfg, f)
	if err != nil {
		f.Close()
		return e, err
	}
	if err := f.Close(); err != nil {
		return e, err
	}
	mg, err := multilayer.OpenMapped(path)
	if err != nil {
		return e, err
	}
	defer mg.Close()
	g := mg.Graph

	e.N, e.Layers, e.TotalEdges = g.N(), g.L(), g.MTotal()
	e.GraphBytes = sr.Stats.EncodedBytes
	e.StreamPeak = sr.Stats.PeakResidentBytes
	e.Communities = len(sr.Communities)
	e.BudgetMS = gd.budget.Milliseconds()
	truth := gauntletTruth(sr.Communities)

	// DCCS side: one engine, gauntletDCCSIters queries under the budget
	// each. The first query pays artifact construction (cold); the
	// percentiles include it, which is the honest serving story.
	eng, err := dccs.NewEngine(g, dccs.EngineConfig{})
	if err != nil {
		return e, err
	}
	var dccsPreds [][]int32
	dccsLat := make([]time.Duration, 0, gauntletDCCSIters)
	for i := 0; i < gauntletDCCSIters; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), gd.budget)
		start := time.Now()
		res, err := eng.Search(ctx, dccs.Query{D: gd.d, S: gd.s, K: gd.k, Seed: s.Seed})
		cancel()
		if err != nil {
			return e, fmt.Errorf("gauntlet %s: dccs: %w", gd.cfg.Name, err)
		}
		dccsLat = append(dccsLat, time.Since(start))
		if i == 0 {
			for _, cc := range res.Cores {
				dccsPreds = append(dccsPreds, splitOnLayers(g, cc.Vertices, cc.Layers)...)
			}
		}
	}
	e.DCCSP50MS, e.DCCSP99MS = gauntletPercentiles(dccsLat)
	e.DCCSGroups = len(dccsPreds)
	dq := quality.Score(dccsPreds, truth, gauntletMinJaccard)
	e.DCCSPrecision, e.DCCSRecall, e.DCCSF1 = dq.Precision, dq.Recall, dq.F1

	// MiMAG side: same wall budget per invocation; the node limit is set
	// high enough (1<<30, still safe on 32-bit int) that the deadline is
	// the binding constraint, making the budgets genuinely matched.
	mopts := mimag.Options{Gamma: 0.8, MinSize: gd.d + 1, S: gd.s, NodeLimit: 1 << 30}
	var mimagPreds [][]int32
	mimagLat := make([]time.Duration, 0, gauntletMimagIters)
	for i := 0; i < gauntletMimagIters; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), gd.budget)
		res, err := mimag.Mine(ctx, g, mopts)
		cancel()
		if err != nil {
			return e, fmt.Errorf("gauntlet %s: mimag: %w", gd.cfg.Name, err)
		}
		mimagLat = append(mimagLat, res.Elapsed)
		if i == 0 {
			e.MimagTruncated = res.Truncated
			for _, c := range res.Clusters {
				mimagPreds = append(mimagPreds, splitOnLayers(g, c.Vertices, c.Layers)...)
			}
		}
	}
	e.MimagP50MS, e.MimagP99MS = gauntletPercentiles(mimagLat)
	e.MimagGroups = len(mimagPreds)
	mq := quality.Score(mimagPreds, truth, gauntletMinJaccard)
	e.MimagPrecision, e.MimagRecall, e.MimagF1 = mq.Precision, mq.Recall, mq.F1

	if e.MimagP50MS > 0 {
		e.P50Speedup = e.MimagP50MS / e.DCCSP50MS
	}
	return e, nil
}

// Gauntlet runs the scale comparison over the quick or full dataset
// tier (Suite.Quick selects) and returns the tables plus the artifact
// report. The superiority gate — DCCS F1 ≥ MiMAG F1 and DCCS p50 <
// MiMAG p50 on every dataset — is checked by RunGauntlet after the
// artifact is written, so a failing run still leaves the evidence.
func (s *Suite) Gauntlet() ([]*Table, *gauntletReport, error) {
	sets := gauntletFull(s.Seed)
	mode := "full"
	if s.Quick {
		sets = gauntletQuick(s.Seed)
		mode = "quick"
	}
	dir, err := os.MkdirTemp("", "dccs-gauntlet-*")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)

	report := &gauntletReport{Mode: mode, Datasets: map[string]gauntletEntry{}}
	lat := &Table{Title: "Scale gauntlet: latency under matched budgets (" + mode + ")",
		Header: []string{"dataset", "n", "edges", "DCCS p50 ms", "DCCS p99 ms", "MiMAG p50 ms", "MiMAG p99 ms", "speedup"}}
	qual := &Table{Title: "Scale gauntlet: quality vs planted ground truth (Jaccard ≥ 0.5)",
		Header: []string{"dataset", "DCCS P", "DCCS R", "DCCS F1", "MiMAG P", "MiMAG R", "MiMAG F1", "MiMAG trunc"}}
	for _, gd := range sets {
		e, err := s.runGauntletDataset(gd, dir)
		if err != nil {
			return nil, nil, err
		}
		report.Datasets[gd.cfg.Name] = e
		lat.Rows = append(lat.Rows, []string{gd.cfg.Name,
			fmt.Sprintf("%d", e.N), fmt.Sprintf("%d", e.TotalEdges),
			formatFloat(e.DCCSP50MS), formatFloat(e.DCCSP99MS),
			formatFloat(e.MimagP50MS), formatFloat(e.MimagP99MS),
			formatFloat(e.P50Speedup) + "x"})
		qual.Rows = append(qual.Rows, []string{gd.cfg.Name,
			formatFloat(e.DCCSPrecision), formatFloat(e.DCCSRecall), formatFloat(e.DCCSF1),
			formatFloat(e.MimagPrecision), formatFloat(e.MimagRecall), formatFloat(e.MimagF1),
			fmt.Sprintf("%v", e.MimagTruncated)})
	}
	return []*Table{lat, qual}, report, nil
}

// gauntletGate returns an error naming every dataset where DCCS fails
// the superiority criteria.
func gauntletGate(report *gauntletReport) error {
	var bad []string
	for name, e := range report.Datasets {
		if e.DCCSF1 < e.MimagF1 {
			bad = append(bad, fmt.Sprintf("%s: DCCS F1 %.3f < MiMAG F1 %.3f", name, e.DCCSF1, e.MimagF1))
		}
		if e.DCCSP50MS >= e.MimagP50MS {
			bad = append(bad, fmt.Sprintf("%s: DCCS p50 %.3fms ≥ MiMAG p50 %.3fms", name, e.DCCSP50MS, e.MimagP50MS))
		}
	}
	if len(bad) == 0 {
		return nil
	}
	slices.Sort(bad)
	return fmt.Errorf("bench: gauntlet gate failed: %v", bad)
}

// RunGauntlet executes the scale gauntlet, prints its tables, writes the
// BENCH_scale.json artifact when OutDir is set, and then enforces the
// superiority gate.
func (s *Suite) RunGauntlet() error {
	if s.W == nil {
		return fmt.Errorf("bench: no output writer")
	}
	start := time.Now()
	tables, report, err := s.Gauntlet()
	if err != nil {
		return err
	}
	for _, t := range tables {
		t.Fprint(s.W)
	}
	if s.OutDir != "" {
		if err := os.MkdirAll(s.OutDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(s.OutDir, "BENCH_scale.json")
		report.Metrics = gauntletMetrics(report.Datasets)
		blob, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(s.W, "artifact: %s\n", path)
	}
	fmt.Fprintf(s.W, "[gauntlet done in %v]\n\n", time.Since(start).Round(time.Millisecond))
	return gauntletGate(report)
}
