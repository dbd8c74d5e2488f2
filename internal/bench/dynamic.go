package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"time"

	dccs "repro"
	"repro/internal/datasets"
)

// dynamicBenchReport is the BENCH_dynamic.json artifact: live-graph
// update throughput and the payoff of incremental artifact derivation —
// post-update query latency on the mutated engine versus a cold engine
// built from scratch over the same final graph.
type dynamicBenchReport struct {
	N          int `json:"n"`
	Layers     int `json:"layers"`
	TotalEdges int `json:"total_edges"`

	Batches    int `json:"batches"`
	BatchEdges int `json:"batch_edges"`
	Inserted   int `json:"inserted"`
	Deleted    int `json:"deleted"`

	RetainedHierarchies    int    `json:"retained_hierarchies"`
	InvalidatedHierarchies int    `json:"invalidated_hierarchies"`
	FinalVersion           uint64 `json:"final_version"`

	UpdateQPS  float64 `json:"update_qps"` // edges applied per second
	ApplyP50MS float64 `json:"apply_p50_ms"`
	ApplyP99MS float64 `json:"apply_p99_ms"`

	PostUpdateFirstQueryMS float64 `json:"post_update_first_query_ms"`
	PostUpdateQueryP50MS   float64 `json:"post_update_query_p50_ms"`
	ColdQueryMS            float64 `json:"cold_query_ms"`
	WarmOverColdSpeedup    float64 `json:"warm_over_cold_speedup"`

	ResultsMatch int `json:"results_match"` // 1 iff mutated == cold-rebuild answers
}

// Dynamic runs the live-graph benchmark: warm a mutable engine, push a
// deterministic insert/delete stream through ApplyUpdates, then compare
// query latency on the mutated engine against a cold engine built from
// the same final graph.
func (s *Suite) Dynamic() ([]*Table, *dynamicBenchReport, error) {
	n := 20000
	batches, batchEdges := 20, 100
	if s.Quick {
		n = 8000
		batches, batchEdges = 10, 50
	}
	g := datasets.Generate(datasets.Config{
		Name: "dynamic", N: n, Layers: 8, Seed: s.Seed,
		AvgDegree: 2.2, Gamma: 2.3, Correlation: 0.5,
		Communities: n / 500, MinSize: 12, MaxSize: 30,
		MinSupport: 3, MaxSupport: 6, PIn: 0.6,
		Persistent: 4, CrossLayerNoise: 0.05,
	}).Graph
	st := g.Stats()

	eng, err := dccs.NewMutableEngine(g, dccs.EngineConfig{})
	if err != nil {
		return nil, nil, err
	}
	// Warm several thresholds so the update stream has artifacts to
	// retain or invalidate — the interesting axis of the bench.
	if err := eng.Warm(2, 3, defaultD, defaultD+1); err != nil {
		return nil, nil, err
	}
	q := dccs.Query{D: defaultD, S: defaultS, K: defaultK, Seed: s.Seed}
	if _, err := eng.Search(context.Background(), q); err != nil {
		return nil, nil, err
	}

	report := &dynamicBenchReport{
		N: st.N, Layers: st.Layers, TotalEdges: st.TotalEdges,
		Batches: batches, BatchEdges: batchEdges,
	}

	// Update stream: even batches insert fresh random edges, odd batches
	// delete exactly the edges the preceding batch inserted — both
	// directions exercised, every update guaranteed effective.
	rng := rand.New(rand.NewSource(s.Seed + 7))
	var lastInserted []dccs.EdgeUpdate
	lat := make([]time.Duration, 0, batches)
	wallStart := time.Now()
	for b := 0; b < batches; b++ {
		var ups []dccs.EdgeUpdate
		if b%2 == 0 {
			ups = make([]dccs.EdgeUpdate, 0, batchEdges)
			for len(ups) < batchEdges {
				u, v := rng.Intn(n), rng.Intn(n)
				if u == v {
					continue
				}
				ups = append(ups, dccs.EdgeUpdate{Op: dccs.EdgeInsert, Layer: rng.Intn(g.L()), U: u, V: v})
			}
			lastInserted = ups
		} else {
			ups = make([]dccs.EdgeUpdate, len(lastInserted))
			for i, e := range lastInserted {
				ups[i] = dccs.EdgeUpdate{Op: dccs.EdgeDelete, Layer: e.Layer, U: e.U, V: e.V}
			}
		}
		// Re-warm before each timed apply (a serving engine has warm
		// artifacts when updates arrive); the apply then reports how many
		// of them the batch's coreness bound let Derive keep.
		if err := eng.Warm(2, 3, defaultD, defaultD+1); err != nil {
			return nil, nil, err
		}
		start := time.Now()
		stats, err := eng.ApplyUpdates(context.Background(), ups)
		if err != nil {
			return nil, nil, err
		}
		lat = append(lat, time.Since(start))
		report.Inserted += stats.Inserted
		report.Deleted += stats.Deleted
		report.RetainedHierarchies += stats.RetainedHierarchies
		report.InvalidatedHierarchies += stats.InvalidatedHierarchies
	}
	wall := time.Since(wallStart)
	slices.Sort(lat)
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	report.ApplyP50MS = ms(lat[len(lat)/2])
	report.ApplyP99MS = ms(lat[(99*len(lat)-1)/100])
	report.UpdateQPS = float64(report.Inserted+report.Deleted) / wall.Seconds()
	report.FinalVersion = eng.Version()

	// Post-update queries on the mutated engine: the first pays any lazy
	// hierarchy rebuild the last batch caused, the rest run fully warm.
	start := time.Now()
	warmRes, err := eng.Search(context.Background(), q)
	if err != nil {
		return nil, nil, err
	}
	report.PostUpdateFirstQueryMS = ms(time.Since(start))
	qlat := make([]time.Duration, 0, 10)
	for i := 0; i < 10; i++ {
		start := time.Now()
		if _, err := eng.Search(context.Background(), q); err != nil {
			return nil, nil, err
		}
		qlat = append(qlat, time.Since(start))
	}
	slices.Sort(qlat)
	report.PostUpdateQueryP50MS = ms(qlat[len(qlat)/2])

	// Cold rebuild: a fresh engine over the same final graph pays the
	// full preprocessing on its first query.
	cold, err := dccs.NewEngine(eng.Graph(), dccs.EngineConfig{})
	if err != nil {
		return nil, nil, err
	}
	start = time.Now()
	coldRes, err := cold.Search(context.Background(), q)
	if err != nil {
		return nil, nil, err
	}
	report.ColdQueryMS = ms(time.Since(start))
	if report.PostUpdateFirstQueryMS > 0 {
		report.WarmOverColdSpeedup = report.ColdQueryMS / report.PostUpdateFirstQueryMS
	}
	if warmRes.CoverSize == coldRes.CoverSize && len(warmRes.Cores) == len(coldRes.Cores) {
		report.ResultsMatch = 1
	}

	t := &Table{
		Title:  "Dynamic: live-graph update throughput and post-update query latency",
		Header: []string{"metric", "value"},
		Notes: []string{
			fmt.Sprintf("benchmark graph: n=%d l=%d Σ|E|=%d; %d batches × %d edges (alternating insert/delete)",
				st.N, st.Layers, st.TotalEdges, batches, batchEdges),
			fmt.Sprintf("incremental derivation retained %d and invalidated %d per-d hierarchies across the stream",
				report.RetainedHierarchies, report.InvalidatedHierarchies),
			fmt.Sprintf("post-update first query is %.1fx faster than a cold rebuild", report.WarmOverColdSpeedup),
		},
	}
	t.Add("update throughput (edges/s)", fmt.Sprintf("%.0f", report.UpdateQPS))
	t.Add("apply p50 ms", formatFloat(report.ApplyP50MS))
	t.Add("apply p99 ms", formatFloat(report.ApplyP99MS))
	t.Add("post-update first query ms", formatFloat(report.PostUpdateFirstQueryMS))
	t.Add("post-update query p50 ms", formatFloat(report.PostUpdateQueryP50MS))
	t.Add("cold rebuild query ms", formatFloat(report.ColdQueryMS))
	t.Add("results match cold rebuild", fmt.Sprintf("%d", report.ResultsMatch))
	return []*Table{t}, report, nil
}

// RunDynamic executes the live-graph benchmark, prints its table, and —
// when OutDir is set — writes the BENCH_dynamic.json artifact.
func (s *Suite) RunDynamic() error {
	if s.W == nil {
		return fmt.Errorf("bench: no output writer")
	}
	start := time.Now()
	tables, report, err := s.Dynamic()
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
		path := filepath.Join(s.OutDir, "BENCH_dynamic.json")
		blob, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(s.W, "artifact: %s\n", path)
	}
	fmt.Fprintf(s.W, "[dynamic done in %v]\n\n", time.Since(start).Round(time.Millisecond))
	return nil
}
