package core

import (
	"context"
	"sync"

	"repro/internal/kcore"
	"repro/internal/multilayer"
)

// hierarchy is the per-d removal hierarchy of §V-C, built on the full
// graph. Vertices are removed in batches: at threshold h, every vertex
// whose support Num(v) has dropped to ≤ h is removed, cores cascade, and
// the process repeats before h advances. Two arrays survive the build,
// and both are fixpoints that no removal order inside a threshold can
// change:
//
//   - h[v]: the threshold at which v was removed. With surv(t) the
//     largest vertex set in which every vertex lies in the d-cores of at
//     least t layers of G[surv(t)], h(v) = max{t : v ∈ surv(t)};
//   - coreh[i][v]: the threshold at which v dropped out of layer i's
//     d-core, max{t : v ∈ d-core_i(G[surv(t)])}, and 0 when v was never a
//     member.
//
// Because the §IV-C vertex-deletion fixpoint for support s equals the
// hierarchy state after threshold s−1, the survivors for ANY s are
// {v : h[v] ≥ s} and the reduced d-core of layer i is
// {v : coreh[i][v] ≥ s} — once the hierarchy is cached, the whole
// preprocessing phase is the per-query build of the compact search space
// from these level sets (see newPrep).
//
// The hierarchy also justifies the two prunings refineC uses:
//
//   - Lemma 8: C^d_{L′} ⊆ {v : h(v) ≥ |L′|}, since the first member of
//     any d-CC to be removed still has all members present, hence support
//     ≥ |L′|, and thresholds only grow.
//   - Lemma 9: every member of C^d_{L′} is reachable through members from
//     a seed w0 with L′ ⊆ L(w0), the layers whose d-cores held w0 just
//     before its batch. The hierarchy does not store L(v): its superset
//     L̃(v) = {i : coreh_i(v) ≥ h(v)} follows from the two arrays, and
//     refineC seeds from L̃ instead (DESIGN.md § RefineC).
//
// The hierarchy is keyed by d alone and shared read-only by every query:
// queries with a support threshold s only ever probe vertices with
// h(v) ≥ |L′| ≥ s, and the thresholds ≥ s are identical to the ones a
// hierarchy built on the s-preprocessed graph would produce (see
// DESIGN.md). Each top-down query searches a view of it restricted to
// the survivors, in compact ids (tdIndex).
type hierarchy struct {
	h     []int32
	coreh [][]int32
}

// tdIndex is the top-down view of a hierarchy on one compact search
// space (queryArena.indexView): per survivor, in compact ids, its
// threshold h, its seed mask L̃(v) as a bitmask over original layers
// (top-down requires l ≤ 64), and its index edges — the union of its rows
// on every layer of the compact graph, which refineC's flood walks.
type tdIndex struct {
	h        []int32
	seeds    []uint64
	unionAdj [][]int32
}

// buildHierarchies builds the removal hierarchies of the thresholds in
// ds — non-empty, ascending, deduplicated, ≥ 1 — on up to workers
// goroutines; it is the only hierarchy builder. One base tracker starts
// at ds[0] and is raised from threshold to threshold, so the O(Σ m_i)
// initialization is paid once for the set (DESIGN.md § Shared multi-d
// hierarchy pass). Each worker owns a tracker shell and a batch-loop
// scratch and repeats: under the lock, take the next threshold, raise
// the base to it and copy the base into its shell; then, outside the
// lock, run the §V-C batch loop. The last threshold takes the base
// itself, which nothing raises again, so a single threshold builds no
// leaver buckets and makes no copy. With one worker this is the serial
// ascending loop.
//
// emit is invoked with each completed hierarchy, in completion order,
// under the lock: calls never overlap. Every emitted hierarchy is the
// same whatever the other thresholds and the worker count.
//
// The batch loop polls ctx between batches, and each worker polls it
// before taking a threshold, so on cancellation the function returns
// ctx.Err() having emitted only fully completed thresholds (a partial
// hierarchy is never a valid artifact): the caller may cache exactly
// what was emitted. A nil ctx runs to completion.
func buildHierarchies(ctx context.Context, g *multilayer.Graph, ds []int, coreness [][]int32, workers int, emit func(d int, hr *hierarchy)) error {
	base := kcore.NewTrackerFromCoreness(g, ds[0], coreness, workers)
	var (
		mu      sync.Mutex // guards base, next and emitted, and serializes emit
		next    int        // index into ds of the next threshold to take
		emitted int
		wg      sync.WaitGroup
	)
	for w := 0; w < min(workers, len(ds)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var (
				shell, tr *kcore.Tracker
				hr        *hierarchy
				d         int
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
				base.Raise(d)
				tr = base // the last threshold: nothing raises the base again
				if next < len(ds) {
					shell = base.CopyInto(shell)
					tr = shell
				}
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

// runHierarchy drives the §V-C batch loop over an unpeeled tracker (all
// vertices alive) and assembles the hierarchy artifacts; the tracker's
// listeners are installed here. A nil return means the context was
// cancelled and nothing may be cached (see buildHierarchies).
func runHierarchy(ctx context.Context, g *multilayer.Graph, tr *kcore.Tracker, sc *hierScratch) *hierarchy {
	n := g.N()
	hr := &hierarchy{h: make([]int32, n), coreh: make([][]int32, g.L())}
	for i := range hr.coreh {
		hr.coreh[i] = make([]int32, n)
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

	// Every membership a vertex loses, its own removal included, ends at
	// the current threshold.
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
			for _, v32 := range batch {
				hr.h[v32] = curH
				tr.RemoveVertex(int(v32))
			}
		}
	}
	sc.batch = batch
	return hr
}
