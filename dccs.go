// Package dccs is a Go implementation of diversified coherent core search
// on multi-layer graphs, reproducing "Diversified Coherent Core Search on
// Multi-Layer Graphs" (Zhu, Zou, Li — ICDE 2018).
//
// A multi-layer graph shares one vertex set across l layers of edges. The
// d-coherent core (d-CC) of a layer subset L is the unique maximal vertex
// set whose induced subgraph has minimum degree ≥ d on every layer in L.
// Given thresholds d and s and a count k, the DCCS problem asks for k
// d-CCs — over layer subsets of size s — that together cover as many
// vertices as possible. The problem is NP-complete; this package provides
// the paper's three approximation algorithms:
//
//   - Greedy: materializes all C(l, s) candidates, then greedy
//     max-k-cover. Ratio 1 − 1/e. Baseline; not scalable in l.
//   - BottomUp: search over growing layer subsets with interleaved top-k
//     maintenance and pruning. Ratio 1/4. Fastest when s < l/2.
//   - TopDown: search over shrinking layer subsets with potential-vertex-
//     set refinement over a removal-hierarchy index. Ratio 1/4. Fastest
//     when s ≥ l/2.
//
// # Quickstart
//
//	b := dccs.NewBuilder(numVertices, numLayers)
//	b.MustAddEdge(layer, u, v) // for each undirected edge
//	g := b.Build()
//	eng, err := dccs.NewEngine(g, dccs.EngineConfig{})
//	res, err := eng.Search(ctx, dccs.Query{D: 4, S: 3, K: 10})
//	for _, core := range res.Cores {
//		fmt.Println(core.Layers, core.Vertices)
//	}
//
// An Engine is the serving-path entry point: it caches the expensive
// per-graph preparation (per-layer coreness, vertex-deletion survivors,
// the top-down removal-hierarchy index) so that only the first query per
// degree threshold d pays for it, and every query is cancellable through
// its context and streamable through Query.OnCandidate. Search and the
// per-algorithm free functions remain as one-shot wrappers over a
// throwaway Engine for scripts and tests.
//
// The auto algorithm selection follows the paper's crossover rule
// (s < l/2 → bottom-up); Result.Stats.Algorithm records what actually
// ran. All algorithms are deterministic for a fixed seed.
//
// # Parallelism
//
// Options.Workers selects the execution engine. The layer subsets the
// algorithms enumerate are independent, so the work parallelizes at the
// subtree level: greedy candidate materialization and preprocessing's
// per-layer core decompositions shard across the pool with bit-for-bit
// identical output, and with an explicit Workers > 1 the first level of
// the bottom-up/top-down search trees fans out too, each subtree
// searching against a local top-k merged at a barrier. Workers = 1
// forces the serial path; 0 (the default) parallelizes only the
// deterministic stages, so zero-value runs reproduce serial results
// exactly. See DESIGN.md for the merge correctness argument.
package dccs

import (
	"context"
	"fmt"
	"io"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/kcore"
	"repro/internal/multilayer"
)

// Graph is an immutable multi-layer graph. Construct one with NewBuilder
// or load one with ReadGraph/ReadGraphFile.
type Graph = multilayer.Graph

// Builder accumulates edges for a Graph.
type Builder = multilayer.Builder

// GraphStats summarizes a graph in the format of the paper's Fig 12.
type GraphStats = multilayer.Stats

// Options configures a DCCS run; see the field documentation in the core
// package. D, S and K are the problem parameters, Seed fixes the run's
// random choices, and the remaining toggles disable individual
// preprocessing or pruning techniques for ablation studies.
type Options = core.Options

// Result is the output of a DCCS run: up to k diversified d-CCs, the
// number of vertices they cover, and search-effort statistics.
type Result = core.Result

// CC is a single d-coherent core of a result.
type CC = core.CC

// Stats reports the search effort of a run.
type Stats = core.Stats

// NewBuilder returns a Builder for a graph with n vertices and the given
// number of layers.
func NewBuilder(n, layers int) *Builder { return multilayer.NewBuilder(n, layers) }

// ReadGraph parses a graph from the text edge-list format:
//
//	mlg <n> <layers>
//	<layer> <u> <v>
//	...
func ReadGraph(r io.Reader) (*Graph, error) { return multilayer.Decode(r) }

// ReadGraphFile loads a graph from a file in either supported format,
// sniffing the magic bytes: .mlgb binary images (Graph.WriteBinaryFile)
// load by slurping the CSR sections directly — no per-edge parsing —
// and anything else parses as the text edge-list format. Binary loading
// is the serving-path choice: see BENCH_format.json for the measured
// gap.
func ReadGraphFile(path string) (*Graph, error) { return multilayer.OpenFile(path) }

// MappedGraph is a Graph whose CSR arrays alias a read-only memory
// mapping of a .mlgb file: opening costs no decode-time copies (pages
// fault in on demand), so even multi-GB graphs start in milliseconds
// and replicas serving the same file share one physical copy through
// the page cache. Close releases the mapping; the graph (and any Engine
// built on it) must be discarded first, while earlier query results —
// which never alias the mapping — stay valid. See the multilayer.Mapped
// doc for the validation trust model (O(n) eager checks, Verify for the
// full O(m) scan).
type MappedGraph = multilayer.Mapped

// OpenMappedGraphFile opens a .mlgb file as a memory-mapped MappedGraph
// (dccs-serve -mmap uses this path). Unlike ReadGraphFile it accepts
// only the binary format, validates lazily under the documented trust
// model, and returns a handle that must be Closed when the graph is
// retired.
func OpenMappedGraphFile(path string) (*MappedGraph, error) { return multilayer.OpenMapped(path) }

// ErrNotBinaryGraph is returned (wrapped) by OpenMappedGraphFile when
// the file lacks the .mlgb magic — only binary images can be mapped.
// Callers that treat mapping as an optimization (dccs-serve -mmap) test
// for it with errors.Is and fall back to ReadGraphFile.
var ErrNotBinaryGraph = multilayer.ErrNotBinaryGraph

// Greedy runs the GD-DCCS algorithm (approximation ratio 1 − 1/e) as a
// one-shot call: all preprocessing is recomputed per invocation.
//
// Deprecated: serving paths should hold a long-lived Engine and call
// Engine.Search with Query.Algorithm = AlgoGreedy, which amortizes
// preprocessing across queries and supports cancellation. Greedy remains
// supported for scripts and tests.
func Greedy(g *Graph, opts Options) (*Result, error) { return core.GreedyDCCS(g, opts) }

// BottomUp runs the BU-DCCS algorithm (approximation ratio 1/4),
// preferred when s < l/2, as a one-shot call.
//
// Deprecated: serving paths should hold a long-lived Engine and call
// Engine.Search with Query.Algorithm = AlgoBottomUp; see Greedy.
func BottomUp(g *Graph, opts Options) (*Result, error) { return core.BottomUpDCCS(g, opts) }

// TopDown runs the TD-DCCS algorithm (approximation ratio 1/4),
// preferred when s ≥ l/2, as a one-shot call that rebuilds the removal-
// hierarchy index per invocation. It supports at most 64 layers.
//
// Deprecated: serving paths should hold a long-lived Engine and call
// Engine.Search with Query.Algorithm = AlgoTopDown, which builds the
// index once per degree threshold; see Greedy.
func TopDown(g *Graph, opts Options) (*Result, error) { return core.TopDownDCCS(g, opts) }

// Search runs the search algorithm the paper recommends for the given
// support threshold: bottom-up when s < l/2, top-down otherwise (falling
// back to bottom-up when the graph exceeds the top-down layer limit).
// Result.Stats.Algorithm records which one ran.
//
// Deprecated: serving paths should hold a long-lived Engine and call
// Engine.Search, which applies the same crossover rule under AlgoAuto
// while amortizing preprocessing across queries; see Greedy.
func Search(g *Graph, opts Options) (*Result, error) {
	if err := opts.Validate(g); err != nil {
		return nil, err
	}
	if autoAlgorithm(g, opts.S) == AlgoTopDown {
		return core.TopDownDCCS(g, opts)
	}
	return core.BottomUpDCCS(g, opts)
}

// Exact solves the DCCS problem optimally by exhaustive subset search
// with branch-and-bound. NP-complete in general; it returns an error when
// the instance has more than core.ExactLimit distinct non-empty
// candidates. Useful as ground truth on small graphs. Engine.Search with
// Query.Algorithm = AlgoExact is the cancellable, amortized equivalent.
func Exact(g *Graph, opts Options) (*Result, error) { return core.ExactDCCS(g, opts) }

// Validate checks that a Result is consistent with the graph and options:
// every core is exactly the d-CC of its size-s layer set, layer sets are
// distinct, and CoverSize matches the union of the cores.
func Validate(g *Graph, opts Options, res *Result) error {
	return core.ValidateResult(g, opts, res)
}

// CoherentCore computes the single d-CC of the given layer subset: the
// maximal vertex set whose induced subgraph has minimum degree ≥ d on
// every listed layer. It returns the sorted vertex ids.
func CoherentCore(g *Graph, layers []int, d int) ([]int, error) {
	if g == nil {
		return nil, fmt.Errorf("dccs: nil graph")
	}
	if d < 1 {
		return nil, fmt.Errorf("dccs: degree threshold d = %d, want ≥ 1", d)
	}
	if len(layers) == 0 {
		return nil, fmt.Errorf("dccs: empty layer set")
	}
	for _, layer := range layers {
		if layer < 0 || layer >= g.L() {
			return nil, fmt.Errorf("dccs: layer %d out of range [0,%d)", layer, g.L())
		}
	}
	return kcore.DCC(g, bitset.NewFull(g.N()), layers, d).Slice(), nil
}

// Coreness computes the core decomposition of a single layer: the largest
// d for which each vertex belongs to the layer's d-core.
func Coreness(g *Graph, layer int) ([]int, error) {
	if g == nil {
		return nil, fmt.Errorf("dccs: nil graph")
	}
	if layer < 0 || layer >= g.L() {
		return nil, fmt.Errorf("dccs: layer %d out of range [0,%d)", layer, g.L())
	}
	return kcore.Coreness(g, layer, nil), nil
}

// CoherentCoreness computes, for a fixed layer subset, each vertex's
// coherent coreness: the largest d such that the vertex belongs to the
// d-CC of those layers. By the hierarchy property the d-CC for any d is
// the level set {v : coreness[v] ≥ d}.
func CoherentCoreness(g *Graph, layers []int) ([]int, error) {
	if err := checkLayers(g, layers); err != nil {
		return nil, err
	}
	return kcore.CoherentCoreness(g, layers, nil), nil
}

// Degeneracy returns the multi-layer degeneracy of a layer subset: the
// largest d for which the d-CC is non-empty (-1 for an empty graph).
func Degeneracy(g *Graph, layers []int) (int, error) {
	if err := checkLayers(g, layers); err != nil {
		return 0, err
	}
	return kcore.Degeneracy(g, layers, nil), nil
}

func checkLayers(g *Graph, layers []int) error {
	if g == nil {
		return fmt.Errorf("dccs: nil graph")
	}
	if len(layers) == 0 {
		return fmt.Errorf("dccs: empty layer set")
	}
	for _, layer := range layers {
		if layer < 0 || layer >= g.L() {
			return fmt.Errorf("dccs: layer %d out of range [0,%d)", layer, g.L())
		}
	}
	return nil
}

// DynamicGraph is a mutable multi-layer graph, the streaming companion
// of Graph, stored as a copy-on-write CSR. An edge update costs O(deg):
// a binary search and a sorted insert or delete in the two endpoint
// rows. Freeze exports an immutable Graph, rebuilding only the layers
// edited since the previous Freeze and sharing the others.
type DynamicGraph = dynamic.Graph

// CoreMaintainer tracks the d-CC of a fixed layer subset while its
// DynamicGraph changes, with exact incremental updates in both
// directions. Updates take a context under the engine-wide cancellation
// contract: a cancelled update still applies the graph mutation and
// leaves a valid, Truncated-flagged core that Repair (or the next
// update) makes exact again.
type CoreMaintainer = dynamic.Maintainer

// NewDynamicGraph returns an empty mutable multi-layer graph.
func NewDynamicGraph(n, layers int) *DynamicGraph { return dynamic.NewGraph(n, layers) }

// NewCoreMaintainer wraps a DynamicGraph and keeps the d-CC of the given
// layer subset current; route all edge updates through the maintainer.
func NewCoreMaintainer(ctx context.Context, g *DynamicGraph, layers []int, d int) (*CoreMaintainer, error) {
	return dynamic.NewMaintainer(ctx, g, layers, d)
}
