package core

import (
	"context"
	"math/bits"
	"sync"

	"repro/internal/kcore"
	"repro/internal/multilayer"
)

// tdIndex is the removal-hierarchy index of §V-C. Vertices are removed
// from the graph in batches: at threshold h, every vertex whose support
// Num(v) has dropped to ≤ h is removed, cores are recomputed, and the
// process repeats before h advances. Each batch is one level; I_h is the
// union of the levels processed at threshold h. Each vertex records the
// layer set L(v) whose d-cores contained it just before its batch was
// removed. The batch numbers themselves are not stored: refineC's seed
// flood (DESIGN.md § RefineC) needs only h and L(v).
//
// The index justifies two prunings used by RefineC:
//
//   - Lemma 8: C^d_{L′} ⊆ ∪_{h ≥ |L′|} I_h, since the first member of any
//     d-CC to be removed still has all members present, hence support
//     ≥ |L′|, and thresholds only grow.
//   - Lemma 9: every member of C^d_{L′} is reachable from a "seed" vertex
//     w0 with L′ ⊆ L(w0) along index edges ascending through the levels.
//
// The index is built on the full graph, threshold 0 included, so it is
// keyed by d alone and shared read-only by every query: queries with a
// support threshold s only ever probe vertices with h(v) ≥ |L′| ≥ s, and
// the batch sequence at thresholds ≥ s is identical to the one an index
// built on the s-preprocessed graph would produce (see DESIGN.md). Each
// top-down query searches a view of it restricted to the survivors, in
// compact ids (queryArena.indexView). A hierarchy's index holds h and
// lmask only; the index edges the flood walks exist only in a view.
type tdIndex struct {
	h     []int32  // threshold at which the vertex was removed
	lmask []uint64 // L(v) as an original-layer bitmask (l ≤ 64 only)
	// unionAdj holds the index edges, in a view only: per survivor, the
	// union of its rows on every layer of the compact graph.
	unionAdj [][]int32
}

// hierarchy bundles the per-d artifacts one removal-hierarchy sweep over
// the full graph yields:
//
//   - idx: the top-down removal-hierarchy index above;
//   - coreh[i][v]: the threshold at which v dropped out of layer i's
//     d-core (0 when v was never a member).
//
// Because the §IV-C vertex-deletion fixpoint for support s equals the
// hierarchy state after threshold s−1, the survivors for ANY s are
// {v : idx.h[v] ≥ s} and the reduced d-core of layer i is
// {v : coreh[i][v] ≥ s} — once the hierarchy is cached, the whole
// preprocessing phase is the per-query build of the compact search space
// from these level sets (see newPrep).
type hierarchy struct {
	idx   *tdIndex
	coreh [][]int32
}

// buildHierarchy constructs the removal hierarchy of g for degree
// threshold d, seeding the tracker from the caller's (required)
// per-layer coreness arrays so the initial peel is skipped. The lmask
// field requires l(g) ≤ 64 and is skipped (nil) beyond that — the
// top-down algorithm rejects such graphs before touching it. The h and
// coreh arrays are always populated, which is all the bottom-up and
// greedy paths consume.
//
// The batch loop polls ctx between batches: a partial hierarchy is
// never a valid artifact (batches after the abort point would be
// missing), so cancellation returns nil and the caller must not cache
// the result. A nil ctx runs to completion.
func buildHierarchy(ctx context.Context, g *multilayer.Graph, d int, coreness [][]int32, workers int) *hierarchy {
	tr := kcore.NewTrackerFromCoreness(g, d, coreness, workers)
	return runHierarchy(ctx, g, tr, newHierScratch(g))
}

// buildHierarchies builds the removal hierarchies for every threshold in
// ds — which must be non-empty, ascending, deduplicated and ≥ 1 — on up
// to workers goroutines fed by one shared kcore.Sweep, so the per-d
// initialization cost O(Σ m_i) is paid once for the whole set instead of
// once per d (the level sets {coreness ≥ d} are nested; see DESIGN.md
// § Shared multi-d hierarchy pass). Each worker owns a tracker shell and
// a batch-loop scratch and repeats two steps: under the lock, take the
// next threshold in ascending order and have the sweep position its
// shell there; then, outside the lock, run the §V-C batch loop. The
// per-d batch loops are independent, so they run side by side; with one
// worker this is the serial ascending loop.
//
// emit is invoked with each completed hierarchy, in completion order,
// under the lock: calls never overlap, and a slow emit holds back the
// other workers' next thresholds. Every emitted hierarchy is
// byte-identical to a buildHierarchy call for the same d.
//
// Cancellation is polled between batches like buildHierarchy's, and
// before each threshold is taken: on a cancelled context no worker takes
// another threshold and in-flight builds are abandoned, so the function
// returns ctx.Err() after having emitted only fully completed thresholds
// — the caller may cache exactly what was emitted.
func buildHierarchies(ctx context.Context, g *multilayer.Graph, ds []int, coreness [][]int32, workers int, emit func(d int, hr *hierarchy)) error {
	sweep := kcore.NewSweep(g, ds[0], coreness, workers)
	var (
		mu      sync.Mutex // guards sweep, next and emitted, and serializes emit
		next    int        // index into ds of the next threshold to take
		emitted int
		wg      sync.WaitGroup
	)
	for w := 0; w < min(workers, len(ds)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var (
				tr *kcore.Tracker
				hr *hierarchy
				d  int
			)
			sc := newHierScratch(g)
			for {
				mu.Lock()
				if hr != nil {
					emit(d, hr)
					emitted++
				}
				if next == len(ds) || (ctx != nil && ctx.Err() != nil) {
					mu.Unlock()
					return
				}
				d = ds[next]
				next++
				tr = sweep.TrackerAt(d, tr)
				mu.Unlock()
				if hr = runHierarchy(ctx, g, tr, sc); hr == nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	if emitted < len(ds) {
		return ctx.Err()
	}
	return nil
}

// hierScratch is the reusable state of the batch loop: the bucket queue
// over support counts, the in-batch markers and the batch itself.
// runHierarchy resets it on entry, so one scratch serves any sequence of
// builds, one build at a time.
type hierScratch struct {
	buckets [][]int32
	inBatch []bool
	batch   []int32
}

func newHierScratch(g *multilayer.Graph) *hierScratch {
	return &hierScratch{
		buckets: make([][]int32, g.L()+1),
		inBatch: make([]bool, g.N()),
	}
}

// runHierarchy drives the §V-C batch loop over a positioned tracker and
// assembles the hierarchy artifacts. The tracker must be freshly
// positioned at the full graph (all vertices alive); its listeners are
// installed here. Cancellation semantics are buildHierarchy's: a nil
// return means the context was cancelled and nothing may be cached.
func runHierarchy(ctx context.Context, g *multilayer.Graph, tr *kcore.Tracker, sc *hierScratch) *hierarchy {
	n := g.N()
	idx := &tdIndex{h: make([]int32, n)}
	hr := &hierarchy{idx: idx, coreh: make([][]int32, g.L())}
	for i := range hr.coreh {
		hr.coreh[i] = make([]int32, n)
	}
	wide := g.L() > 64
	if !wide {
		idx.lmask = make([]uint64, n)
	}

	// Bucket queue over support counts. Stale entries are tolerated and
	// validated against the tracker on pop; each vertex re-enters a
	// bucket at most once per Num decrement, so the total work is
	// O(n·l) plus the tracker's own O(Σ m_i).
	buckets := sc.buckets
	for c := range buckets {
		buckets[c] = buckets[c][:0]
	}
	inBatch := sc.inBatch
	for v := range inBatch {
		inBatch[v] = false
	}
	for v := 0; v < n; v++ {
		buckets[tr.Num(v)] = append(buckets[tr.Num(v)], int32(v))
	}
	tr.NumListener = func(v int) {
		buckets[tr.Num(v)] = append(buckets[tr.Num(v)], int32(v))
	}

	curH := int32(0)
	tr.CoreListener = func(layer, v int) {
		hr.coreh[layer][v] = curH
	}

	batch := sc.batch
	// Threshold 0 first: vertices supported by no layer at all, the ones
	// vertex deletion would remove even at s = 1. Their removal cannot
	// cascade (they sit outside every core), so the batch is one sweep.
	for h := 0; h <= g.L(); h++ {
		curH = int32(h)
		for {
			if ctx != nil && ctx.Err() != nil {
				return nil
			}
			// Collect the batch: all still-alive vertices whose current
			// support is ≤ h.
			batch = batch[:0]
			for c := 0; c <= h; c++ {
				kept := buckets[c][:0]
				for _, v32 := range buckets[c] {
					v := int(v32)
					switch {
					case !tr.Alive().Contains(v) || inBatch[v]:
						// removed already, or stale duplicate
					case tr.Num(v) != c:
						// stale entry; the vertex lives in another bucket
					default:
						inBatch[v] = true
						batch = append(batch, v32)
					}
				}
				buckets[c] = kept
			}
			if len(batch) == 0 {
				break
			}
			// Record L(v) for the whole batch before any removal: the
			// paper evaluates the core memberships "just before v is
			// removed from G in batch". The same memberships seed coreh —
			// removing v ends its membership in every layer it still
			// belongs to, and the cascade listener covers the rest.
			for _, v32 := range batch {
				v := int(v32)
				idx.h[v] = int32(h)
				if wide {
					for i := 0; i < g.L(); i++ {
						if tr.Core(i).Contains(v) {
							hr.coreh[i][v] = int32(h)
						}
					}
				} else {
					mask := tr.CoreLayers(v)
					idx.lmask[v] = mask
					for mask != 0 {
						hr.coreh[bits.TrailingZeros64(mask)][v] = int32(h)
						mask &= mask - 1
					}
				}
			}
			for _, v32 := range batch {
				tr.RemoveVertex(int(v32))
			}
		}
	}
	sc.batch = batch
	return hr
}
