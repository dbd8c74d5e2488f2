// Benchmarks: one per table/figure of the paper's evaluation (§VI,
// Figs 12–32), each running the corresponding experiment end to end on a
// reduced-scale dataset, plus micro-benchmarks of the core primitives.
// The dccs-bench command runs the same experiments at full scale.
package dccs_test

import (
	"context"
	"io"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"
	"time"

	dccs "repro"
	"repro/internal/bench"
	"repro/internal/bitset"
	"repro/internal/coverage"
	"repro/internal/datasets"
	"repro/internal/kcore"
)

// benchSuite returns a suite sized for testing.B iteration counts.
func benchSuite() *bench.Suite {
	return &bench.Suite{Scale: 0.05, Seed: 1, Quick: true, W: io.Discard}
}

func runFig(b *testing.B, fig int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		if err := s.Run(fig); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12DatasetStats(b *testing.B)     { runFig(b, 12) }
func BenchmarkFig13Parameters(b *testing.B)       { runFig(b, 13) }
func BenchmarkFig14TimeSmallS(b *testing.B)       { runFig(b, 14) }
func BenchmarkFig15TimeLargeS(b *testing.B)       { runFig(b, 15) }
func BenchmarkFig16CoverSmallS(b *testing.B)      { runFig(b, 16) }
func BenchmarkFig17CoverLargeS(b *testing.B)      { runFig(b, 17) }
func BenchmarkFig18TimeVaryDSmallS(b *testing.B)  { runFig(b, 18) }
func BenchmarkFig19TimeVaryDLargeS(b *testing.B)  { runFig(b, 19) }
func BenchmarkFig20CoverVaryDSmallS(b *testing.B) { runFig(b, 20) }
func BenchmarkFig21CoverVaryDLargeS(b *testing.B) { runFig(b, 21) }
func BenchmarkFig22TimeVaryKSmallS(b *testing.B)  { runFig(b, 22) }
func BenchmarkFig23TimeVaryKLargeS(b *testing.B)  { runFig(b, 23) }
func BenchmarkFig24CoverVaryKSmallS(b *testing.B) { runFig(b, 24) }
func BenchmarkFig25CoverVaryKLargeS(b *testing.B) { runFig(b, 25) }
func BenchmarkFig26ScaleVertices(b *testing.B)    { runFig(b, 26) }
func BenchmarkFig27ScaleLayers(b *testing.B)      { runFig(b, 27) }
func BenchmarkFig28Preprocessing(b *testing.B)    { runFig(b, 28) }
func BenchmarkFig29MiMAGComparison(b *testing.B)  { runFig(b, 29) }
func BenchmarkFig30Containment(b *testing.B)      { runFig(b, 30) }
func BenchmarkFig31InducedSubgraphs(b *testing.B) { runFig(b, 31) }
func BenchmarkFig32ProteinComplexes(b *testing.B) { runFig(b, 32) }

// --- Micro-benchmarks of the substrates -------------------------------

func benchGraph(b *testing.B) *datasets.Dataset {
	b.Helper()
	return datasets.Author(1)
}

func BenchmarkCoreDecomposition(b *testing.B) {
	g := benchGraph(b).Graph
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kcore.Coreness(g, i%g.L())
	}
}

func BenchmarkDCCQueuePeel(b *testing.B) {
	g := benchGraph(b).Graph
	full := bitset.NewFull(g.N())
	layers := []int{0, 1, 2, 3, 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kcore.DCC(g, full, layers, 3)
	}
}

func BenchmarkDCCBinSort(b *testing.B) {
	g := benchGraph(b).Graph
	full := bitset.NewFull(g.N())
	layers := []int{0, 1, 2, 3, 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kcore.DCCBin(g, full, layers, 3)
	}
}

// BenchmarkCoverageUpdate times the top-k bookkeeping on 64 overlapping
// 500-vertex candidates over 10,000 vertices at k = 10: "update" offers
// every candidate to a fresh R, "eq1" asks Eq. (1) of every candidate
// against an R filled by that stream.
func BenchmarkCoverageUpdate(b *testing.B) {
	n := 10000
	sets := make([]*bitset.Set, 64)
	for i := range sets {
		start := (i * 137) % (n - 600)
		sets[i] = bitset.New(n)
		for v := start; v < start+500; v++ {
			sets[i].Add(v)
		}
	}
	b.Run("update", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tk := coverage.New(n, 10)
			for _, s := range sets {
				tk.Update(s, nil)
			}
		}
	})
	b.Run("eq1", func(b *testing.B) {
		tk := coverage.New(n, 10)
		for _, s := range sets {
			tk.Update(s, nil)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, s := range sets {
				eq1Sink = tk.SatisfiesEq1(s)
			}
		}
	})
}

// eq1Sink keeps BenchmarkCoverageUpdate's Eq. (1) calls from being
// optimized away.
var eq1Sink bool

// --- Algorithm benchmarks on the two small paper datasets -------------

func benchAlgo(b *testing.B, algo func(*dccs.Graph, dccs.Options) (*dccs.Result, error), opts dccs.Options) {
	b.Helper()
	g := benchGraph(b).Graph
	if opts.S == 0 {
		opts.S = g.L() / 2
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := algo(g, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGreedyAuthor(b *testing.B) {
	benchAlgo(b, dccs.Greedy, dccs.Options{D: 3, K: 10, Seed: 1})
}

func BenchmarkBottomUpAuthor(b *testing.B) {
	benchAlgo(b, dccs.BottomUp, dccs.Options{D: 3, K: 10, Seed: 1})
}

func BenchmarkTopDownAuthor(b *testing.B) {
	benchAlgo(b, dccs.TopDown, dccs.Options{D: 3, K: 10, Seed: 1})
}

// Ablation benches for the design choices called out in DESIGN.md: the
// index-based RefineC vs the plain dCC refinement inside TD-DCCS, and the
// pruning lemmas inside BU-DCCS.
func BenchmarkTopDownIndexRefine(b *testing.B) {
	benchAlgo(b, dccs.TopDown, dccs.Options{D: 3, K: 10, Seed: 1})
}

func BenchmarkTopDownDCCRefine(b *testing.B) {
	benchAlgo(b, dccs.TopDown, dccs.Options{D: 3, K: 10, Seed: 1, UseDCCRefine: true})
}

func BenchmarkBottomUpPruned(b *testing.B) {
	benchAlgo(b, dccs.BottomUp, dccs.Options{D: 3, S: 3, K: 10, Seed: 1})
}

func BenchmarkBottomUpNoPruning(b *testing.B) {
	benchAlgo(b, dccs.BottomUp, dccs.Options{
		D: 3, S: 3, K: 10, Seed: 1,
		NoEq1Pruning: true, NoOrderPruning: true, NoLayerPruning: true,
	})
}

func BenchmarkPreprocessOnVsOff(b *testing.B) {
	b.Run("with-preprocessing", func(b *testing.B) {
		benchAlgo(b, dccs.BottomUp, dccs.Options{D: 3, S: 3, K: 10, Seed: 1})
	})
	b.Run("no-preprocessing", func(b *testing.B) {
		benchAlgo(b, dccs.BottomUp, dccs.Options{
			D: 3, S: 3, K: 10, Seed: 1,
			NoVertexDeletion: true, NoSortLayers: true, NoInitResult: true,
		})
	})
}

// serveGraph returns the serve-shaped planted graph (n = 20,000,
// l = 10) of the cold-search and cold-start workloads.
func serveGraph() *dccs.Graph {
	const n = 20000
	return datasets.Generate(datasets.Config{
		Name: "serve", N: n, Layers: 10, Seed: 1,
		AvgDegree: 2.2, Gamma: 2.3, Correlation: 0.5,
		Communities: n / 500, MinSize: 12, MaxSize: 30,
		MinSupport: 3, MaxSupport: 6, PIn: 0.6,
		Persistent: 4, CrossLayerNoise: 0.05,
	}).Graph
}

// BenchmarkEngineSearch times the per-query kernel of a warm Engine —
// the vertex-deletion view, the search tree, refine and top-k — on the
// serve-shaped graph with the cold-search query shapes: bottom-up at
// s = 3, top-down at s = l−2, d alternating 3 and 4, k = 10, a fresh
// seed per iteration. Both hierarchies are built before the clock
// starts, so only search work is timed.
func BenchmarkEngineSearch(b *testing.B) {
	g := serveGraph()
	e, err := dccs.NewEngine(g, dccs.EngineConfig{})
	if err != nil {
		b.Fatal(err)
	}
	if err := e.Warm(3, 4); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		algo dccs.Algorithm
		s    int
	}{
		{"bu", dccs.AlgoBottomUp, 3},
		{"td", dccs.AlgoTopDown, g.L() - 2},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q := dccs.Query{D: 3 + i%2, S: c.s, K: 10, Seed: int64(i + 1), Algorithm: c.algo}
				if _, err := e.Search(context.Background(), q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineSearchNoReuse times the four cold-search query shapes
// of BenchmarkEngineSearch with nothing to reuse between queries: each
// iteration builds a fresh engine and warms d = 3 and 4 with the timer
// stopped, then runs bottom-up at s = 3 and top-down at s = l−2 at both
// d once each, so no query shares its (d, s) with another. Next to
// BenchmarkEngineSearch it tells the d-CC memo's reuse across queries
// apart from a faster kernel.
func BenchmarkEngineSearchNoReuse(b *testing.B) {
	g := serveGraph()
	var shapes []dccs.Query
	for _, d := range []int{3, 4} {
		shapes = append(shapes,
			dccs.Query{D: d, S: 3, K: 10, Algorithm: dccs.AlgoBottomUp},
			dccs.Query{D: d, S: g.L() - 2, K: 10, Algorithm: dccs.AlgoTopDown})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e, err := dccs.NewEngine(g, dccs.EngineConfig{})
		if err != nil {
			b.Fatal(err)
		}
		if err := e.Warm(3, 4); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, q := range shapes {
			q.Seed = int64(i + 1)
			if _, err := e.Search(context.Background(), q); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkEngineFirstSearch times a fresh engine's first query on the
// serve-shaped graph, the cold-start workload's query (d = 4, s = 3,
// k = 10): per-layer coreness, the d = 4 hierarchy and the search. Only
// the graph is generated before the clock starts.
func BenchmarkEngineFirstSearch(b *testing.B) {
	g := serveGraph()
	q := dccs.Query{D: 4, S: 3, K: 10, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := dccs.NewEngine(g, dccs.EngineConfig{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Search(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineRestart times a restarted process's first answer on the
// serve-shaped graph, the cold-start workload's side op without the
// benchmark harness: map the .mlgb, create an engine, restore a d = 4
// snapshot (its checksum, the graph fingerprint gate, the coreness range
// checks and the memo entry checks), run the cold-start query (d = 4,
// s = 3, k = 10) and close the mapping. The files are written before the
// clock starts; the snapshot is saved right after answering that query,
// so its memo answers every d-CC the restarted query looks up.
func BenchmarkEngineRestart(b *testing.B) {
	graphPath, snapPath := restartFiles(b)
	benchRestart(b, graphPath, snapPath, restartQuery, true)
}

// BenchmarkEngineRestartUncovered is BenchmarkEngineRestart with a query
// whose space the restored memo does not hold: top-down at d = 4,
// s = l − 2, k = 10, after restoring the same snapshot. Next to
// BenchmarkEngineRestart it shows what a restore costs a query that
// gains nothing from the memo.
func BenchmarkEngineRestartUncovered(b *testing.B) {
	graphPath, snapPath := restartFiles(b)
	q := dccs.Query{D: 4, S: 8, K: 10, Seed: 1, Algorithm: dccs.AlgoTopDown}
	benchRestart(b, graphPath, snapPath, q, false)
}

// restartQuery is the cold-start workload's query.
var restartQuery = dccs.Query{D: 4, S: 3, K: 10, Seed: 1}

// restartFiles writes the serve-shaped graph's .mlgb and the snapshot an
// engine saves right after answering restartQuery, and returns their
// paths.
func restartFiles(b *testing.B) (graphPath, snapPath string) {
	g := serveGraph()
	dir := b.TempDir()
	graphPath, snapPath = filepath.Join(dir, "serve.mlgb"), filepath.Join(dir, "serve.mlgs")
	if err := g.WriteBinaryFile(graphPath); err != nil {
		b.Fatal(err)
	}
	e, err := dccs.NewEngine(g, dccs.EngineConfig{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := e.Search(context.Background(), restartQuery); err != nil {
		b.Fatal(err)
	}
	if err := e.SaveSnapshot(snapPath); err != nil {
		b.Fatal(err)
	}
	return graphPath, snapPath
}

// benchRestart times, per op, mapping graphPath, restoring snapPath into
// a new engine, answering q and closing the mapping. The restored engine
// must build no artifact, and with covered set look up no d-CC its
// memo lacks.
func benchRestart(b *testing.B, graphPath, snapPath string, q dccs.Query, covered bool) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mg, err := dccs.OpenMappedGraphFile(graphPath)
		if err != nil {
			b.Fatal(err)
		}
		e, err := dccs.NewEngine(mg.Graph, dccs.EngineConfig{})
		if err != nil {
			b.Fatal(err)
		}
		if err := e.LoadSnapshot(snapPath); err != nil {
			b.Fatal(err)
		}
		if _, err := e.Search(context.Background(), q); err != nil {
			b.Fatal(err)
		}
		if m := e.Metrics(); m.CorenessBuilds != 0 || m.HierarchyBuilds != 0 || (covered && m.MemoMisses != 0) {
			b.Fatalf("restored engine was not warm: %+v", m)
		}
		if err := mg.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkApplyUpdates times one live-graph update batch end to end —
// apply, freeze, derive and the eager rebuild of every invalidated
// hierarchy — on the live-mixed shape: a mutable engine over a planted
// graph (n = 20,000, l = 12) with d 2..5 warm. Batches alternate between
// inserting 100 edges absent from the graph on one layer and deleting
// them again, so the graph returns to its start after every pair; pair p
// edits layer p mod l. retained/op and invalidated/op report the
// hierarchies the batch's retention bound kept and dropped.
func BenchmarkApplyUpdates(b *testing.B) {
	e, batches := liveUpdateBench(b)
	benchApplyUpdates(b, e, batches)
}

// BenchmarkApplyUpdatesWatched is BenchmarkApplyUpdates with two watches
// attached, {0, 1, 2} at d = 2 and {3, 4} at d = 4, so each batch also
// brings the watches it can have changed up to date. insert-ns/op and
// delete-ns/op split the batch time by kind.
func BenchmarkApplyUpdatesWatched(b *testing.B) {
	e, batches := liveUpdateBench(b)
	for _, w := range []struct {
		layers []int
		d      int
	}{{[]int{0, 1, 2}, 2}, {[]int{3, 4}, 4}} {
		cw, err := e.Watch(context.Background(), w.layers, w.d)
		if err != nil {
			b.Fatal(err)
		}
		defer cw.Close()
	}
	mean := benchApplyUpdates(b, e, batches)
	for op, unit := range []string{dccs.EdgeInsert: "insert-ns/op", dccs.EdgeDelete: "delete-ns/op"} {
		if mean[op] > 0 { // at -benchtime=1x no delete batch runs
			b.ReportMetric(mean[op], unit)
		}
	}
}

// BenchmarkSearchAfterUpdate times the first searches on each new live
// generation, live-mixed's query shapes on BenchmarkApplyUpdates' engine
// and batch stream: each iteration applies the next batch with the timer
// stopped, then times bottom-up at d = 4, k = 10 for s = 2 and s = 3 on
// the new generation. carried/op reports the d-CC memo entries each
// batch carried into its generation, misses/op the memo lookups the two
// searches had to compute.
func BenchmarkSearchAfterUpdate(b *testing.B) {
	e, batches := liveUpdateBench(b)
	ctx := context.Background()
	search := func(i int) {
		for _, s := range []int{2, 3} {
			q := dccs.Query{D: 4, S: s, K: 10, Seed: int64(i%4 + 1), Algorithm: dccs.AlgoBottomUp}
			if _, err := e.Search(ctx, q); err != nil {
				b.Fatal(err)
			}
		}
	}
	search(0) // fills the first generation's memo for the first batch
	start := e.Metrics()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if _, err := e.ApplyUpdates(ctx, batches[i%len(batches)]); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		search(i)
	}
	b.StopTimer()
	m := e.Metrics()
	b.ReportMetric(float64(m.MemoCarried-start.MemoCarried)/float64(b.N), "carried/op")
	b.ReportMetric(float64(m.MemoMisses-start.MemoMisses)/float64(b.N), "misses/op")
}

// liveUpdateBench returns the mutable engine and the batch stream of
// BenchmarkApplyUpdates: batch 2p inserts 100 edges absent from the graph
// on layer p, batch 2p+1 deletes them again.
func liveUpdateBench(b *testing.B) (*dccs.Engine, [][]dccs.EdgeUpdate) {
	const n, layers, edges = 20000, 12, 100
	g := datasets.Generate(datasets.Config{
		Name: "live", N: n, Layers: layers, Seed: 1,
		AvgDegree: 2.2, Gamma: 2.3, Correlation: 0.5,
		Communities: n / 500, MinSize: 12, MaxSize: 30,
		MinSupport: 3, MaxSupport: 6, PIn: 0.6,
		Persistent: 4, CrossLayerNoise: 0.05,
	}).Graph
	e, err := dccs.NewMutableEngine(g, dccs.EngineConfig{})
	if err != nil {
		b.Fatal(err)
	}
	if err := e.Warm(2, 3, 4, 5); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var batches [][]dccs.EdgeUpdate
	for p := 0; p < layers; p++ {
		ins := make([]dccs.EdgeUpdate, 0, edges)
		seen := map[[2]int]bool{}
		for len(ins) < edges {
			u, v := rng.Intn(n), rng.Intn(n)
			key := [2]int{min(u, v), max(u, v)}
			if u == v || seen[key] || g.HasEdge(p, u, v) {
				continue
			}
			seen[key] = true
			ins = append(ins, dccs.EdgeUpdate{Op: dccs.EdgeInsert, Layer: p, U: key[0], V: key[1]})
		}
		del := slices.Clone(ins)
		for i := range del {
			del[i].Op = dccs.EdgeDelete
		}
		batches = append(batches, ins, del)
	}
	return e, batches
}

// benchApplyUpdates applies batches round robin, one per iteration,
// reports the retention split, and returns the mean nanoseconds of an
// insert batch and of a delete batch, indexed by EdgeOp; a kind that
// did not run reads 0.
func benchApplyUpdates(b *testing.B, e *dccs.Engine, batches [][]dccs.EdgeUpdate) (mean [2]float64) {
	retained, invalidated := 0, 0
	var count [2]int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := batches[i%len(batches)]
		start := time.Now()
		st, err := e.ApplyUpdates(context.Background(), batch)
		mean[batch[0].Op] += float64(time.Since(start).Nanoseconds())
		count[batch[0].Op]++
		if err != nil {
			b.Fatal(err)
		}
		if st.Inserted+st.Deleted != len(batch) {
			b.Fatalf("batch %d changed %d edges, want %d", i, st.Inserted+st.Deleted, len(batch))
		}
		retained += st.RetainedHierarchies
		invalidated += st.InvalidatedHierarchies
	}
	b.ReportMetric(float64(retained)/float64(b.N), "retained/op")
	b.ReportMetric(float64(invalidated)/float64(b.N), "invalidated/op")
	for op := range mean {
		mean[op] /= float64(max(count[op], 1))
	}
	return mean
}

func BenchmarkSearchStatsOverhead(b *testing.B) {
	// End-to-end Search on the PPI graph: the public-API entry point.
	ds := datasets.PPI(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dccs.Search(ds.Graph, dccs.Options{D: 4, S: 4, K: 10, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// Property-3 sanity inside a benchmark loop: coverage is monotone
// non-increasing in s. Behavioural benches double as cheap invariant
// checks because b.N loops re-run the full pipeline.
func BenchmarkCoverMonotoneInS(b *testing.B) {
	ds := datasets.PPI(1)
	for i := 0; i < b.N; i++ {
		prev := 1 << 30
		for s := 1; s <= 4; s++ {
			res, err := dccs.BottomUp(ds.Graph, dccs.Options{D: 3, S: s, K: 5, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			if res.CoverSize > prev {
				b.Fatalf("coverage grew with s: %d > %d", res.CoverSize, prev)
			}
			prev = res.CoverSize
		}
	}
}
