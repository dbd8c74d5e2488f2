// Prepared graph handles: the context-aware engine substrate.
//
// The DCCS algorithms share an expensive per-graph preparation phase that
// is independent of the query parameters (s, k, Seed) and depends on d
// only through the removal hierarchy: per-layer coreness (d-independent),
// and per d the full-graph removal hierarchy of §V-C, from which the
// §IV-C vertex-deletion survivors and reduced per-layer cores for EVERY
// support threshold s fall out as level-set scans. A Prepared caches
// both tiers and serves concurrent, cancellable queries, each on its own
// compact survivor subgraph (newPrep); the free functions (GreedyDCCS &
// co.) remain as thin wrappers over a throwaway Prepared.
package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/kcore"
	"repro/internal/multilayer"
	"repro/internal/pool"
)

// Prepared is a long-lived handle on one immutable graph that amortizes
// preprocessing across queries. It is safe for concurrent use: artifact
// construction is guarded, queries only read the cache.
type Prepared struct {
	g       *multilayer.Graph
	workers int

	corenessOnce sync.Once
	coreness     [][]int32 // per layer: full core decomposition (d-independent)
	maxCoreness  int       // max over layers and vertices; set with coreness

	mu  sync.Mutex
	byD map[int]*dArtifact

	corenessBuilds  atomic.Int64
	hierarchyBuilds atomic.Int64

	// The d-CC memos of the per-d slots share one byte budget, derived
	// from the graph (memoBudget). Hits, misses and the entries Derive
	// carried into a new generation are lifetime counters that Derive
	// carries; memoBytes covers this handle's entries only.
	memoBytes   atomic.Int64
	memoHits    atomic.Int64
	memoMisses  atomic.Int64
	memoCarried atomic.Int64

	// Compact search spaces built and checked out again (see newPrep);
	// lifetime counters that Derive carries, like the memo's.
	spaceBuilds atomic.Int64
	spaceReuses atomic.Int64

	// version is the graph version these artifacts were computed for: 0
	// for a freshly constructed handle, the batch counter for handles
	// produced by Derive on the live-graph update path. It is stamped
	// into snapshots so a warm start of a mutated engine resumes its
	// version sequence. Atomic only because RestoreSnapshot may adopt a
	// persisted version while a snapshot loop reads it.
	version atomic.Uint64
}

// dArtifact is the lazily built per-d cache slot. PrepareDs holds buildMu
// while it builds hier, so each d is built once while distinct d values
// build independently; a cancelled build leaves hier nil for the next
// caller to build. done flips after a successful build: queries and the
// snapshot writer read it without blocking on in-flight builds. memo holds the exact d-CCs and potential
// sets queries computed on hier; it belongs to the slot, not to hier, and
// Derive copies into the next generation's slot for the same d only the
// entries its batch provably left unchanged (carryMemo), retained
// hierarchies included, while a snapshot persists it next to hier and a
// restore refills it. spaces
// pools, per space key, the arenas holding compact search spaces built
// on hier (see queryArena); like the memo they belong to the slot and
// hence to one graph.
type dArtifact struct {
	buildMu sync.Mutex
	hier    *hierarchy
	done    atomic.Bool
	memo    dccMemo

	spaceMu sync.Mutex
	spaces  map[spaceKey]*sync.Pool
}

// PreparedCounters reports how often each artifact tier was actually
// built — the observable half of the amortization contract: after any
// number of queries, CorenessBuilds is at most 1 and HierarchyBuilds is
// at most the number of distinct d values queried. MemoHits and
// MemoMisses count memo lookups over the handle's lineage (Derive
// carries them like the build counters), and MemoCarried the entries
// Derive copied into a new generation over it; MemoBytes is what this
// handle's memo entries, carried ones included, are charged against its
// budget. SpaceBuilds and
// SpaceReuses count, over the lineage too, the queries that built their
// compact search space and those that checked out one an earlier query
// of the same (d, s) built; every query with a hierarchy counts in
// exactly one of them.
type PreparedCounters struct {
	CorenessBuilds  int64
	HierarchyBuilds int64
	MemoHits        int64
	MemoMisses      int64
	MemoCarried     int64
	MemoBytes       int64
	SpaceBuilds     int64
	SpaceReuses     int64
}

// NewPrepared returns a prepared handle on g. workers bounds the
// parallelism of artifact construction (≤ 0 means serial). Artifacts are
// built lazily on first use; NewPrepared itself is cheap.
func NewPrepared(g *multilayer.Graph, workers int) *Prepared {
	if workers < 1 {
		workers = 1
	}
	return &Prepared{g: g, workers: workers, byD: map[int]*dArtifact{}}
}

// Graph returns the underlying graph.
func (pr *Prepared) Graph() *multilayer.Graph { return pr.g }

// Counters returns the artifact-build counters.
func (pr *Prepared) Counters() PreparedCounters {
	return PreparedCounters{
		CorenessBuilds:  pr.corenessBuilds.Load(),
		HierarchyBuilds: pr.hierarchyBuilds.Load(),
		MemoHits:        pr.memoHits.Load(),
		MemoMisses:      pr.memoMisses.Load(),
		MemoCarried:     pr.memoCarried.Load(),
		MemoBytes:       pr.memoBytes.Load(),
		SpaceBuilds:     pr.spaceBuilds.Load(),
		SpaceReuses:     pr.spaceReuses.Load(),
	}
}

// MaxCoreness returns the graph's maximum coreness over all layers and
// vertices, computing the (d-independent, cached) per-layer coreness on
// first use. Every degree threshold beyond it yields empty d-cores, so
// d values above MaxCoreness()+1 are interchangeable — the fact the
// per-d cache clamp and the engine's cache-key canonicalization share.
func (pr *Prepared) MaxCoreness() int {
	pr.layerCoreness()
	return pr.maxCoreness
}

// PrepareDs builds the per-d removal hierarchies of the listed degree
// thresholds (each ≥ 1; duplicates and thresholds beyond the
// maxCoreness+1 sentinel clamp coalesce) that are not built yet, in one
// buildHierarchies pass. It is the only way a per-d slot gets built; a
// query's first use of d calls it with that d (builtArtifact).
//
// It takes the buildMu of each listed slot in ascending d, skips the
// slots already built and builds the rest under their locks, so each d
// is built once: a caller that wants a d another is building waits and
// then skips it. A holder only ever waits for the lock of a larger d,
// and never while holding pr.mu, so the locks cannot deadlock. Each slot
// is installed and unlocked as its hierarchy is emitted, so a query
// waiting for one d resumes while larger ones build.
//
// Cancelling ctx returns ctx.Err() after caching only the thresholds
// whose hierarchies were fully completed; the other slots are unlocked
// empty, for the next call to build.
func (pr *Prepared) PrepareDs(ctx context.Context, ds ...int) error {
	pr.layerCoreness() // resolves maxCoreness
	want := make([]int, 0, len(ds))
	for _, d := range ds {
		if d < 1 {
			return fmt.Errorf("core: degree threshold d = %d, want ≥ 1", d)
		}
		want = append(want, min(d, pr.maxCoreness+1))
	}
	slices.Sort(want)
	want = slices.Compact(want)
	pending := want[:0]
	var slots []*dArtifact
	for _, d := range want {
		a := pr.artifact(d)
		a.buildMu.Lock()
		if a.done.Load() {
			a.buildMu.Unlock()
			continue
		}
		pending = append(pending, d)
		slots = append(slots, a)
	}
	if len(pending) == 0 {
		return nil
	}
	err := buildHierarchies(ctx, pr.g, pending, pr.coreness, pr.workers, func(d int, hr *hierarchy) {
		j, _ := slices.BinarySearch(pending, d)
		a := slots[j]
		a.hier = hr
		pr.hierarchyBuilds.Add(1)
		a.done.Store(true)
		a.buildMu.Unlock()
	})
	for _, a := range slots {
		if !a.done.Load() { // left empty by a cancelled pass
			a.buildMu.Unlock()
		}
	}
	return err
}

// PrepareAll builds every distinct hierarchy the graph admits — d from 1
// to maxCoreness+1, the sentinel serving all larger thresholds — in one
// PrepareDs pass.
func (pr *Prepared) PrepareAll(ctx context.Context) error {
	ds := make([]int, 0, pr.MaxCoreness()+1)
	for d := 1; d <= pr.maxCoreness+1; d++ {
		ds = append(ds, d)
	}
	return pr.PrepareDs(ctx, ds...)
}

// artifact returns (creating if needed) the cache slot for d. The caller
// is responsible for the d clamp.
func (pr *Prepared) artifact(d int) *dArtifact {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	a := pr.byD[d]
	if a == nil {
		a = &dArtifact{}
		pr.byD[d] = a
	}
	return a
}

// layerCoreness returns the d-independent per-layer coreness arrays,
// computing them on first use (sharded across layers).
func (pr *Prepared) layerCoreness() [][]int32 {
	pr.corenessOnce.Do(func() {
		pr.coreness = make([][]int32, pr.g.L())
		pool.Run(pr.workers, pr.g.L(), func(i int) {
			pr.coreness[i] = kcore.Coreness(pr.g, i)
		})
		pr.maxCoreness = maxOf(pr.coreness)
		pr.corenessBuilds.Add(1)
	})
	return pr.coreness
}

// CoreIntersection returns the Lemma 1 scope of a layer subset: the
// vertices whose cached coreness is at least d on every listed layer,
// ∩_{i∈layers} C^d(G_i). It contains the d-CC of the layers, the maximal
// vertex set that is d-dense on each of them, so kcore.DCC seeded with
// it returns that d-CC exactly.
func (pr *Prepared) CoreIntersection(layers []int, d int) *bitset.Set {
	coreness := pr.layerCoreness()
	s := bitset.NewFull(pr.g.N())
	for _, i := range layers {
		s.And(kcore.CoreFromCoreness(coreness[i], d))
	}
	return s
}

// maxOf returns the largest coreness entry over all layers, 0 when there
// is none.
func maxOf(coreness [][]int32) int {
	m := int32(0)
	for _, cn := range coreness {
		for _, c := range cn {
			m = max(m, c)
		}
	}
	return int(m)
}

// builtArtifact returns the cache slot for d with its hierarchy built,
// building it through PrepareDs on first use for that d, or nil when ctx
// cancelled the build; a cancelled first query never poisons the slot.
// A built slot is found by a lock-free done check. The cache key is
// clamped at maxCoreness+1: for every d beyond the graph's maximum
// coreness all per-layer d-cores are empty, so one sentinel entry serves
// them all, and distinct cache entries are bounded by the graph's
// structure, never by the (query-controlled) range of D values seen.
func (pr *Prepared) builtArtifact(ctx context.Context, d int) *dArtifact {
	pr.layerCoreness() // resolves maxCoreness
	a := pr.artifact(min(d, pr.maxCoreness+1))
	if !a.done.Load() && pr.PrepareDs(ctx, d) != nil {
		return nil
	}
	return a
}

// newPrep derives the query's compact search space from the cached
// artifacts (see DESIGN.md § Compact search space). The space is a
// function of the per-d hierarchy and the space key (spaceKeyOf) alone,
// so each slot pools the arenas holding its spaces by key: the query
// checks one out and reuses its space as it stands, and only when the
// pool is empty does it build the space into a new arena (buildSpace).
// With index set (the top-down search) the arena also needs the index
// view with its union rows and refine scratch, which the first top-down
// query on an arena adds (indexView).
//
// An arena is checked out for this query alone (and released by
// prep.release after result assembly), so concurrent queries never
// share mutable state; the hierarchy is shared read-only. A hierarchy
// build cancelled by ctx leaves no survivors: the search space is empty
// (n′ = 0), built into an arena that is dropped afterwards, and every
// algorithm drains it at once with the truncated flags set. Such a query
// gets no memo — its empty cores must never be stored — and neither do
// graphs beyond the 64-layer bitmask key.
func (pr *Prepared) newPrep(ctx context.Context, opts Options, index bool) *prep {
	var hr *hierarchy
	slot := pr.builtArtifact(ctx, opts.D)
	if slot != nil {
		hr = slot.hier
	}
	key := spaceKeyOf(opts)
	var a *queryArena
	if hr != nil {
		space := slot.spacePool(key)
		if a, _ = space.Get().(*queryArena); a != nil {
			pr.spaceReuses.Add(1)
		} else {
			a = pr.buildSpace(hr, key)
			a.space = space
			pr.spaceBuilds.Add(1)
		}
	} else {
		a = pr.buildSpace(nil, key)
	}
	if index && !a.rows {
		a.indexView(hr)
	}
	p := &prep{
		g:     a.g,
		verts: a.verts,
		opts:  opts,
		ctx:   ctx,
		alive: a.alive,
		cores: a.cores,
		owner: pr,
		arena: a,
	}
	if index {
		p.idx = &a.idx
	}
	switch {
	case hr == nil:
		// No survivors, so nothing read the missing hierarchy.
		p.stats.truncated.Store(true)
		p.stats.interrupted.Store(true)
	case !key.nvd:
		p.stats.preprocessRemoved.Add(int64(pr.g.N() - len(a.verts)))
	}
	if hr != nil && pr.g.L() <= 64 {
		p.memo = &slot.memo
	}
	p.order = make([]int, pr.g.L())
	for i := range p.order {
		p.order[i] = i
	}
	return p
}

// buildSpace returns a new arena holding the compact space of key on
// hr, or the empty space when hr is nil. For the key's threshold s the
// vertex-deletion survivors and reduced per-layer d-cores are the level
// sets {h(v) ≥ s} and {coreh_i(v) ≥ s} of the per-d hierarchy:
//
//   - one O(n) scan of h lists the survivors, renumbered 0..n′−1 in
//     ascending original order, and fills the original-to-compact index;
//     under NoVertexDeletion every vertex survives;
//   - per layer, an O(n′) scan of coreh_i builds the reduced d-core over
//     compact ids, and the compact graph keeps only the layer's edges
//     inside it.
func (pr *Prepared) buildSpace(hr *hierarchy, key spaceKey) *queryArena {
	index := make([]int32, pr.g.N()) // original id → compact id, -1 if deleted
	var verts []int32
	switch {
	case hr == nil:
	case key.nvd:
		// Fig 28's No-VD ablation: every vertex stays, the cores are the
		// initial d-cores (membership outlived threshold 0).
		verts = make([]int32, len(index))
		for v := range index {
			index[v] = int32(v)
			verts[v] = int32(v)
		}
	default:
		for v, h := range hr.h {
			if h >= key.s {
				index[v] = int32(len(verts))
				verts = append(verts, int32(v))
			} else {
				index[v] = -1
			}
		}
	}
	n := len(verts)
	a := &queryArena{
		verts: verts,
		alive: bitset.NewFull(n),
		cores: make([]*bitset.Set, pr.g.L()),
	}
	for i := range a.cores {
		core := bitset.New(n)
		for c, v := range verts {
			if hr.coreh[i][v] >= key.s {
				core.Add(c)
			}
		}
		a.cores[i] = core
	}
	a.g = pr.g.Compact(verts, index, a.cores)
	return a
}

// indexView restricts the removal hierarchy to the arena's survivors, in
// compact ids — h and the seed mask L̃(v) = {i : coreh_i(v) ≥ h(v)} per
// survivor — builds the index edges the flood walks from the compact
// graph, and sizes the top-down refine scratch for n′. The view lives in
// the arena, which keeps it with the space (rows).
//
// A survivor's index edges are the deduplicated union of its rows on
// every layer of the compact graph, in no particular order. That is all
// the flood needs: C^d_{L′} lies inside each reduced d-core of L′, so
// every layer edge among its members is a compact edge (DESIGN.md
// § RefineC). Rows are deduplicated here, once per space, because
// planted edges repeat across layers and the flood would otherwise
// re-test them per layer.
func (a *queryArena) indexView(hr *hierarchy) {
	g := a.g
	n := len(a.verts)
	x := &a.idx
	x.h = make([]int32, n)
	x.seeds = make([]uint64, n)
	x.unionAdj = make([][]int32, n)
	for c, v := range a.verts {
		h := hr.h[v]
		x.h[c] = h
		for i, row := range hr.coreh {
			if row[v] >= h {
				x.seeds[c] |= 1 << uint(i)
			}
		}
	}
	nbrs := make([]int32, 0, 2*g.MTotal()) // never reallocates: it bounds every row
	// stamp[u] == c+1 marks u as already in row c.
	stamp := make([]int32, n)
	for c := int32(0); c < int32(n); c++ {
		start := len(nbrs)
		for i := 0; i < g.L(); i++ {
			for _, u := range g.Neighbors(i, int(c)) {
				if stamp[u] != c+1 {
					stamp[u] = c + 1
					nbrs = append(nbrs, u)
				}
			}
		}
		x.unionAdj[c] = nbrs[start:len(nbrs):len(nbrs)]
	}

	a.state = make([]uint8, n)
	a.counts = make([]int32, n)
	a.dplus = make([][]int32, g.L())
	for i := range a.dplus {
		a.dplus[i] = make([]int32, n)
	}
	a.z = bitset.New(n)
	a.rows = true
}

// preprocess runs the §IV-C preprocessing through a throwaway Prepared,
// with the top-down index view, for tests that drive the search
// internals directly.
func preprocess(g *multilayer.Graph, opts Options) *prep {
	return NewPrepared(g, opts.MaterializeWorkers()).newPrep(context.Background(), opts, true)
}
