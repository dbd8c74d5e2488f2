package dccs

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/leio"
)

// Algorithm selects which DCCS algorithm an Engine query runs.
type Algorithm string

// The available algorithms. AlgoAuto (or the empty string) applies the
// paper's crossover rule: bottom-up when s < l/2, top-down otherwise,
// falling back to bottom-up when the graph exceeds the top-down layer
// limit of 64. The algorithm that actually ran is recorded in
// Result.Stats.Algorithm.
const (
	AlgoAuto     Algorithm = "auto"
	AlgoGreedy   Algorithm = core.AlgoNameGreedy
	AlgoBottomUp Algorithm = core.AlgoNameBU
	AlgoTopDown  Algorithm = core.AlgoNameTD
	AlgoExact    Algorithm = core.AlgoNameExact
)

// EngineConfig carries the graph-lifetime configuration of an Engine:
// settings that shape the cached preprocessing artifacts or apply
// uniformly to every query, as opposed to the per-request parameters in
// Query. The zero value selects the paper's default behaviour.
type EngineConfig struct {
	// Workers bounds the parallelism of artifact construction and is the
	// default worker count for queries that leave Query.Workers at 0.
	// 0 means GOMAXPROCS for the deterministic stages and a serial tree
	// search, exactly like Options.Workers.
	Workers int
}

// Query carries the per-request parameters of one Engine search. Unlike
// Options — which conflates graph-lifetime and request-lifetime settings
// for the legacy one-shot entry points — a Query is cheap to vary:
// nothing in it invalidates the engine's cached artifacts, and only a
// previously unseen D triggers (one-time) artifact construction.
type Query struct {
	// D is the minimum degree threshold d ≥ 1. Artifacts are cached per
	// distinct D.
	D int
	// S is the minimum support threshold, 1 ≤ S ≤ l(G).
	S int
	// K is the number of diversified d-CCs to return, K ≥ 1.
	K int
	// Seed fixes the query's random choices (Lemma 7 descendant
	// selection); queries with equal parameters and seeds are
	// deterministic.
	Seed int64
	// Algorithm selects the algorithm; empty means AlgoAuto.
	Algorithm Algorithm
	// MaxTreeNodes, when positive, bounds the search-tree size, turning
	// the query into an anytime search (see Options.MaxTreeNodes).
	MaxTreeNodes int
	// Workers overrides the engine's worker default for this query; see
	// Options.Workers for the semantics of 0, 1 and N > 1.
	Workers int
	// OnCandidate, when non-nil, streams every improvement of the
	// temporary top-k set to the caller as it happens — incremental
	// results for servers that push partial answers. With Workers > 1 it
	// is called concurrently from worker goroutines; see
	// Options.OnCandidate.
	OnCandidate func(CC)
}

// EngineMetrics reports an engine's lifetime counters: how many queries
// it served and how often each artifact tier was actually (re)built. A
// healthy engine shows CorenessBuilds ≤ 1 and HierarchyBuilds equal to
// the number of distinct D values queried, independent of Queries.
//
// MemoHits and MemoMisses count the lookups of the d-CC memo, which
// reuses exact coherent cores across queries sharing (D, S); they are
// lifetime counters like the build counters. MemoCarried counts, over
// the engine's life, the memo entries an update batch carried into the
// next generation because the batch provably left them unchanged.
// MemoBytes is what the current generation's memo holds, bounded by a
// budget the size of the graph's per-layer coreness arrays (at least
// 64 KiB); after LoadSnapshot it includes the restored entries.
//
// SpaceBuilds and SpaceReuses count the queries that built their compact
// search space and those that reused the space an earlier query sharing
// (D, S) left pooled; they are lifetime counters too. Every query that
// searches counts in exactly one of them; one answered as trivially
// empty (S above the layer count, or D beyond the maximum coreness)
// searches no space.
type EngineMetrics struct {
	Queries         int64
	CorenessBuilds  int64
	HierarchyBuilds int64
	MemoHits        int64
	MemoMisses      int64
	MemoCarried     int64
	MemoBytes       int64
	SpaceBuilds     int64
	SpaceReuses     int64
}

// Engine is a long-lived, context-aware handle on one immutable Graph
// that amortizes the expensive per-graph preparation phase across
// queries. The DCCS algorithms share preprocessing that is independent
// of the query parameters (§IV-C vertex deletion, per-layer core
// decompositions, the §V-C removal-hierarchy index); a one-shot call
// like Search recomputes all of it per invocation, while an Engine
// computes each artifact at most once — the d-independent per-layer
// coreness once per engine, the removal hierarchy once per distinct
// Query.D — and serves every subsequent query from the cache (see
// DESIGN.md for why the cache stays valid across s, k and Seed). The
// per-d cache is bounded by the graph, not by the queries: every d
// beyond the graph's maximum coreness shares one sentinel entry, since
// all its d-cores are empty.
//
// An Engine is safe for concurrent use by multiple goroutines; queries
// only read the cache, and artifact construction is guarded so
// concurrent first queries build each artifact exactly once.
//
// An Engine created by NewEngine is immutable: its graph and artifacts
// never change, and its version stays 0. NewMutableEngine (see
// engine_mutable.go) produces a live-graph engine whose ApplyUpdates
// swaps in a fresh (graph, artifacts, version) state atomically —
// queries in flight keep the state they started with, new queries see
// the new one, and nothing is ever observed half-applied.
type Engine struct {
	cfg     EngineConfig
	queries atomic.Int64
	st      atomic.Pointer[engineState]

	// Mutable-mode fields; nil/zero on immutable engines. mu serializes
	// ApplyUpdates, mutable LoadSnapshot and every CoreWatch method.
	mutable bool
	mu      sync.Mutex
	dyn     *dynamic.Graph // the copy-on-write graph ApplyUpdates edits
	watches []*CoreWatch   // slice, not a map: deterministic refresh order
}

// engineState is one immutable (graph, artifacts, version) generation of
// an Engine. Every query runs against exactly one state, so a search
// never mixes a pre-update graph with post-update artifacts.
type engineState struct {
	g       *Graph
	pr      *core.Prepared
	version uint64

	fpOnce sync.Once
	fp     uint64
}

// fingerprint returns the state's cache-key fingerprint: the plain graph
// fingerprint at version 0 (an immutable engine's key is its graph's),
// the leio.Checksum of (graph fingerprint, version) afterwards. The
// version is folded in even though a mutated graph already hashes
// differently, so an update cycle that restores a previous edge set
// still retires every cache entry of the intermediate versions.
func (st *engineState) fingerprint() uint64 {
	st.fpOnce.Do(func() {
		fp := st.g.Fingerprint()
		if st.version > 0 {
			var sum leio.Checksum
			var buf [16]byte
			binary.LittleEndian.PutUint64(buf[:8], fp)
			binary.LittleEndian.PutUint64(buf[8:], st.version)
			sum.Write(buf[:])
			fp = sum.Sum64()
		}
		st.fp = fp
	})
	return st.fp
}

// NewEngine returns an immutable Engine serving queries against g. The
// graph must not be modified afterwards (Graph is immutable by
// construction). Artifacts are built lazily on first use, so NewEngine
// itself is cheap; call Warm to prepay the per-d construction.
func NewEngine(g *Graph, cfg EngineConfig) (*Engine, error) {
	if g == nil {
		return nil, errors.New("dccs: nil graph")
	}
	opts := Options{Workers: cfg.Workers}
	e := &Engine{cfg: cfg}
	e.st.Store(&engineState{g: g, pr: core.NewPrepared(g, opts.MaterializeWorkers())})
	return e, nil
}

// View captures one consistent engine state. All of its methods answer
// against that single state: a cache key computed from a View matches
// the result its Search produces even if ApplyUpdates lands in between,
// which is why the server takes one View per request instead of calling
// the Engine's convenience delegates twice.
type View struct {
	e  *Engine
	st *engineState
}

// View returns the engine's current state. On immutable engines it is
// the one state forever; on mutable engines it pins the generation
// current at call time.
func (e *Engine) View() View { return View{e: e, st: e.st.Load()} }

// Graph returns the graph this view serves.
func (v View) Graph() *Graph { return v.st.g }

// Version returns the view's graph version (0 for immutable engines).
func (v View) Version() uint64 { return v.st.version }

// Graph returns the graph the engine currently serves.
func (e *Engine) Graph() *Graph { return e.View().Graph() }

// Version returns the engine's current graph version: 0 until the first
// successful ApplyUpdates, then the number of applied (non-no-op)
// update batches across the engine's history, including batches
// recovered from a version-stamped snapshot.
func (e *Engine) Version() uint64 { return e.View().Version() }

// Fingerprint returns the engine's graph fingerprint: a 64-bit CRC pair
// over the graph's canonical .mlgb encoding (see Graph.Fingerprint).
// Result caches layered above an Engine key on it so that entries
// computed for one graph can never answer queries against another — the
// same gate the .mlgs snapshot format uses. The hash reads every edge
// (about 0.5 ms for a 20,000-vertex, 10-layer graph of 3.5 MB on a
// 2-vCPU VM), so each generation computes it once and serves it from
// memory: it sits on the per-request cache-key path. On mutable engines
// the current graph version is folded into the hash (see
// engineState.fingerprint), so every update batch retires all
// previously issued cache keys.
func (e *Engine) Fingerprint() uint64 { return e.View().Fingerprint() }

// Fingerprint returns the view's cache-key fingerprint; see
// Engine.Fingerprint.
func (v View) Fingerprint() uint64 { return v.st.fingerprint() }

// CanonicalQuery maps q to a canonical representative of its
// result-equivalence class: two queries with equal canonical forms are
// guaranteed to produce equal results from this engine, so the
// canonical form (together with the graph fingerprint) is a sound cache
// key. Three normalizations apply, each justified by a determinism
// contract documented on the field it folds away (see DESIGN.md):
//
//   - Algorithm: "" and AlgoAuto resolve to the crossover-rule choice,
//     which depends only on S and the graph — a query asking for "auto"
//     and one asking for the algorithm auto would pick are the same
//     query.
//   - Workers: collapsed to the two result classes. An effective worker
//     count ≤ 1 (including 0, whose parallel stages are bit-for-bit
//     identical to serial) reproduces the serial search exactly →
//     canonical 1; any N > 1 produces one N-independent parallel result
//     for a fixed Seed → canonical 2. The engine-default substitution
//     for Workers == 0 happens first, so the canonical form is stable
//     against Query-vs-EngineConfig placement of the same setting.
//   - D: clamped at max coreness + 1, beyond which every d-core is
//     empty and all results are identical (the per-d artifact cache
//     applies the same clamp).
//
// OnCandidate is dropped: it observes the search but never changes the
// result. Seed, S, K and MaxTreeNodes are result-relevant and pass
// through unchanged. The first call may compute the per-layer coreness
// (needed for the D clamp); that artifact is cached and shared with
// queries. Note one caveat inherited from Options.Workers: a parallel
// run with a MaxTreeNodes budget truncates at a scheduling-dependent
// point, so for Workers > 1 && MaxTreeNodes > 0 equal canonical forms
// guarantee equally *valid* results rather than equal ones — a cache
// returns one representative.
func (e *Engine) CanonicalQuery(q Query) Query { return e.View().CanonicalQuery(q) }

// CanonicalQuery canonicalizes q against the view's graph and
// artifacts; see Engine.CanonicalQuery.
func (v View) CanonicalQuery(q Query) Query {
	q.OnCandidate = nil
	if q.Algorithm == "" || q.Algorithm == AlgoAuto {
		q.Algorithm = autoAlgorithm(v.st.g, q.S)
	}
	workers := q.Workers
	if workers == 0 {
		workers = v.e.cfg.Workers
	}
	if workers <= 1 {
		q.Workers = 1
	} else {
		q.Workers = 2
	}
	if maxD := v.st.pr.MaxCoreness() + 1; q.D > maxD {
		q.D = maxD
	}
	return q
}

// CacheKey renders the canonical form of q, prefixed with the graph
// fingerprint, as a flat string — a ready-made map key for result
// caches. Queries with equal keys are interchangeable: same graph, same
// result (modulo the Workers>1+MaxTreeNodes caveat on CanonicalQuery).
func (e *Engine) CacheKey(q Query) string { return e.View().CacheKey(q) }

// CacheKey renders the view's cache key for q; see Engine.CacheKey.
func (v View) CacheKey(q Query) string {
	c := v.CanonicalQuery(q)
	return fmt.Sprintf("%016x|d%d|s%d|k%d|x%d|a%s|m%d|w%d",
		v.Fingerprint(), c.D, c.S, c.K, c.Seed, c.Algorithm, c.MaxTreeNodes, c.Workers)
}

// Metrics returns the engine's lifetime counters. On mutable engines
// the build and memo counters carry across update generations (Derive
// inherits them), so they keep measuring amortization over the engine's
// life; MemoBytes restarts with every generation at the charges of the
// entries the batch carried into it. After LoadSnapshot, MemoBytes
// holds the restored memo entries; restored artifacts and entries count
// as neither builds nor memo lookups.
func (e *Engine) Metrics() EngineMetrics {
	c := e.st.Load().pr.Counters()
	return EngineMetrics{
		Queries:         e.queries.Load(),
		CorenessBuilds:  c.CorenessBuilds,
		HierarchyBuilds: c.HierarchyBuilds,
		MemoHits:        c.MemoHits,
		MemoMisses:      c.MemoMisses,
		MemoCarried:     c.MemoCarried,
		MemoBytes:       c.MemoBytes,
		SpaceBuilds:     c.SpaceBuilds,
		SpaceReuses:     c.SpaceReuses,
	}
}

// Warm builds the cached artifacts for the given degree thresholds ahead
// of traffic, so the first query per d does not pay construction
// latency. The thresholds are all validated before any artifact is
// built: an invalid d errors out without leaving the engine half-warmed.
// The requested hierarchies are built in one pass that initializes one
// tracker and raises it from threshold to threshold (the d-core level
// sets are nested), so only the initialization is shared: each d still
// pays its own peel. On the live-mixed benchmark graph (n = 20,000,
// l = 12) at 2 workers on a 2-vCPU VM, d 2..5 took 13.5 ms this way and
// 14.6 ms as independent builds.
func (e *Engine) Warm(ds ...int) error { return e.View().Warm(context.Background(), ds...) }

// Warm builds the cached artifacts for the given degree thresholds
// against this view's pinned generation; see Engine.Warm. Unlike the
// engine-level method it is cancellable: cancelling ctx stops the pass
// early, keeping exactly the hierarchies already completed. This is the
// batch-serving entry point — the server warms every distinct d a batch
// needs in one pass before fanning the per-query searches out.
func (v View) Warm(ctx context.Context, ds ...int) error {
	if ctx == nil {
		ctx = context.Background()
	}
	for _, d := range ds {
		if d < 1 {
			return fmt.Errorf("dccs: degree threshold d = %d, want ≥ 1", d)
		}
	}
	return v.st.pr.PrepareDs(ctx, ds...)
}

// WarmAll builds every distinct hierarchy the engine's graph admits — d
// from 1 through MaxCoreness()+1, the sentinel every larger threshold
// maps to — in one pass like Warm's, fully prepaying per-d construction
// for any query mix. Cancelling ctx stops the pass early, keeping
// exactly the hierarchies that were fully completed; ctx == nil behaves
// like context.Background().
func (e *Engine) WarmAll(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	return e.st.Load().pr.PrepareAll(ctx)
}

// SaveSnapshot persists the engine's cached artifacts — the per-layer
// coreness, every fully built per-d removal hierarchy and the d-CC memo
// entries its queries stored on it — to path in the versioned .mlgs
// binary format (version 5), so a future process can skip their
// construction and the d-CC peels of repeated queries entirely (see
// LoadSnapshot). The file is replaced through
// a temporary file and a rename (leio.WriteFileAtomic): a failed save
// never leaves a truncated snapshot behind. Snapshotting a live engine
// is safe; hierarchies still being built are skipped, not awaited. The
// graph itself is not part of the snapshot — persist it separately
// (Graph.WriteBinaryFile) and the embedded fingerprint ties the two
// files together. On a mutable engine, take one View and save both
// files from it (View.Graph and View.SaveSnapshot): an update landing
// between two engine-level calls would pair one generation's graph with
// the next one's artifacts.
func (e *Engine) SaveSnapshot(path string) error { return e.View().SaveSnapshot(path) }

// SaveSnapshot persists the artifacts of this view's pinned generation;
// see Engine.SaveSnapshot. The snapshot matches v.Graph() and carries
// v.Version(), whatever updates land while it is written.
func (v View) SaveSnapshot(path string) error {
	return leio.WriteFileAtomic(path, 0o644, v.st.pr.WriteSnapshot)
}

// LoadSnapshot restores artifacts saved by SaveSnapshot into this
// engine: the per-layer coreness, the per-d removal hierarchies and the
// d-CC memo, so the first query per snapshotted degree threshold skips
// their builds, the bulk of a cold first query, and a query the saving
// engine had answered also skips its d-CC peels. It still pays for what
// a snapshot does not carry: the compact search space of its (D, S).
// The restored memo entries are charged against the memo budget like
// entries a query stores; Metrics().MemoBytes includes them. The
// snapshot must have been saved for a graph equal to this engine's; a
// snapshot of any other graph (or a corrupt file) is rejected with an
// error and the engine is left unchanged, free to build its artifacts
// from scratch as usual. So is a snapshot in a format version written
// by an earlier release; SaveSnapshot then writes the current format.
// Restored artifacts do not count as builds in Metrics. Loading over
// artifacts the engine already built keeps the built ones, with their
// memo (the two are identical by determinism).
func (e *Engine) LoadSnapshot(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if e.mutable {
		// Serialize with ApplyUpdates: restore installs artifacts into the
		// current generation and may advance the version below.
		e.mu.Lock()
		defer e.mu.Unlock()
	}
	st := e.st.Load()
	if err := st.pr.RestoreSnapshot(data); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if e.mutable {
		// A version-stamped snapshot of a previously mutated engine resumes
		// the update counter, so cache keys issued before the restart can
		// never alias keys issued after it. Immutable engines ignore the
		// stamp — their version is pinned at 0 and their fingerprint stays
		// the plain graph fingerprint.
		if v := st.pr.Version(); v > st.version {
			e.st.Store(&engineState{g: st.g, pr: st.pr, version: v})
		}
	}
	return nil
}

// autoAlgorithm applies the paper's crossover rule — bottom-up when
// s < l/2, top-down otherwise — with the bottom-up fallback for graphs
// beyond the top-down layer limit. Shared by Engine.Search (AlgoAuto)
// and the legacy Search wrapper so the two can never diverge.
func autoAlgorithm(g *Graph, s int) Algorithm {
	if 2*s >= g.L() && g.L() <= 64 {
		return AlgoTopDown
	}
	return AlgoBottomUp
}

// options lowers a Query onto the engine's config into the core Options
// form the algorithms consume.
func (e *Engine) options(q Query) Options {
	workers := q.Workers
	if workers == 0 {
		workers = e.cfg.Workers
	}
	return Options{
		D:            q.D,
		S:            q.S,
		K:            q.K,
		Seed:         q.Seed,
		Workers:      workers,
		MaxTreeNodes: q.MaxTreeNodes,
		OnCandidate:  q.OnCandidate,
	}
}

// Search answers one DCCS query. Cancelling ctx (or exceeding its
// deadline) stops the search at the next tree-node expansion and returns
// the valid partial result accumulated so far, with Stats.Truncated and
// Stats.Interrupted set; ctx == nil behaves like context.Background().
// The algorithm that ran — auto-selected or explicit — is recorded in
// Result.Stats.Algorithm.
func (e *Engine) Search(ctx context.Context, q Query) (*Result, error) {
	return e.View().Search(ctx, q)
}

// Search answers one DCCS query against this view's pinned state; see
// Engine.Search. On a mutable engine the query runs entirely on the
// generation the view captured, even if updates land concurrently.
func (v View) Search(ctx context.Context, q Query) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opts := v.e.options(q)
	algo := q.Algorithm
	if algo == "" || algo == AlgoAuto {
		algo = autoAlgorithm(v.st.g, q.S)
	}
	if res, ok := v.trivialResult(q, algo); ok {
		v.e.queries.Add(1)
		return res, nil
	}
	var res *Result
	var err error
	switch algo {
	case AlgoGreedy:
		res, err = v.st.pr.Greedy(ctx, opts)
	case AlgoBottomUp:
		res, err = v.st.pr.BottomUp(ctx, opts)
	case AlgoTopDown:
		res, err = v.st.pr.TopDown(ctx, opts)
	case AlgoExact:
		res, err = v.st.pr.Exact(ctx, opts)
	default:
		return nil, fmt.Errorf("dccs: unknown algorithm %q (want auto, greedy, bu, td, exact)", algo)
	}
	if err == nil {
		v.e.queries.Add(1)
	}
	return res, err
}

// trivialResult short-circuits queries that are provably empty before
// any per-d artifact is built: a support threshold above the layer count
// can never be met, and a degree threshold beyond the graph's maximum
// coreness empties every per-layer d-core — the same structural fact
// behind the cache key's sentinel clamp, so all queries sharing a
// canonical key take the same path and stay interchangeable. Only
// queries every downstream check would accept are admitted (parameter
// and algorithm validation still speak first), which keeps the error
// surface unchanged. The returned Stats reports the preprocessing the
// full search would have observed — every vertex deleted — with zero
// search effort; no hierarchy is built and no arena is touched.
func (v View) trivialResult(q Query, algo Algorithm) (*Result, bool) {
	g := v.st.g
	if q.D < 1 || q.S < 1 || q.K < 1 {
		return nil, false // let Options.Validate produce the error
	}
	switch algo {
	case AlgoGreedy, AlgoBottomUp, AlgoExact:
	case AlgoTopDown:
		if g.L() > 64 {
			return nil, false // preserve the top-down layer-limit error
		}
	default:
		return nil, false // unknown algorithm: fall through to the error
	}
	if q.S <= g.L() && q.D <= v.st.pr.MaxCoreness() {
		return nil, false
	}
	start := time.Now()
	// With s > l no vertex reaches the support threshold, and beyond the
	// maximum coreness every d-core is empty from the start — either way
	// the §IV-C fixpoint deletes the whole graph.
	res := &Result{}
	res.Stats.PreprocessRemoved = g.N()
	res.Stats.Algorithm = string(algo)
	res.Stats.Elapsed = time.Since(start)
	return res, true
}
