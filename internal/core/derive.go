// Incremental artifact derivation for live graphs.
//
// When a mutable engine applies an edge-update batch, the expensive
// cached artifacts (per-layer coreness, per-d removal hierarchies) do
// not all die: an edge {u,v} on layer i can only change computations at
// degree thresholds d ≤ min(core_i(u), core_i(v)), read on the old
// graph or on the new one. Derive exploits that bound to carry every
// provably unaffected artifact from the old Prepared into a fresh handle
// on the post-update graph, so a small update on a warm engine
// invalidates a small slice of the cache instead of all of it. The
// argument is spelled out in DESIGN.md § Live graphs.
package core

import (
	"context"
	"slices"

	"repro/internal/kcore"
	"repro/internal/multilayer"
	"repro/internal/pool"
)

// DeriveInfo reports what a Derive call preserved, discarded and rebuilt,
// for metrics and update responses.
type DeriveInfo struct {
	DirtyLayers            int
	RetainedHierarchies    int
	InvalidatedHierarchies int
	// RebuiltHierarchies counts the invalidated thresholds eagerly rebuilt
	// on the new handle — all of them, built in one pass, except
	// where the sentinel clamp coalesced several old entries into one.
	RebuiltHierarchies int
}

// Version returns the graph version this handle's artifacts correspond
// to: 0 for a handle built cold by NewPrepared, the update-batch counter
// for handles produced by Derive (or restored from a version-stamped
// snapshot).
func (pr *Prepared) Version() uint64 { return pr.version.Load() }

// Derive builds a Prepared for the post-update graph g, carrying over
// every artifact of pr that the update provably did not affect. changed
// lists the edges the batch changed (see Engine.ApplyUpdates; an
// entry whose edge ended the batch as it began is harmless), and
// determines everything Derive recomputes:
//
//   - per-layer coreness rows of layers without a changed edge are
//     shared; the other layers are recomputed (in parallel) from g;
//   - completed per-d hierarchies with d above the coreness bound
//     (corenessBound) are shared by pointer — they reference nothing of
//     the old graph; entries at or below the bound — and entries whose d
//     exceeds the new maxCoreness+1 sentinel clamp — are dropped and
//     eagerly rebuilt on the new handle, all in one pass (see
//     rebuildHierarchies);
//   - the d-CC memo entries of each completed slot are copied into the
//     new handle's slot for the same d when the batch provably left
//     their sets unchanged (carryMemo), so the new generation starts
//     with the d-CCs its predecessor already peeled.
//
// pr itself is never mutated: queries running against the old handle
// keep observing a consistent pre-update state. The returned handle is
// stamped with version and inherits pr's build counters (plus one
// coreness build when any layer was dirty), memo hit, miss and carry
// counters (plus the entries carried here) and space build and reuse
// counters, so the amortization counters stay meaningful across
// updates. Its pooled search spaces start empty, retained hierarchies
// included.
func (pr *Prepared) Derive(g *multilayer.Graph, changed []multilayer.Edge, version uint64) (*Prepared, DeriveInfo) {
	old := pr.layerCoreness() // resolves pr.coreness and pr.maxCoreness
	np := NewPrepared(g, pr.workers)
	np.version.Store(version)

	var info DeriveInfo
	l := g.L()
	dirty := make([]bool, l)
	for _, e := range changed {
		dirty[e.Layer] = true
	}

	coreness := make([][]int32, l)
	dirtyIdx := make([]int, 0, l)
	for i := 0; i < l; i++ {
		if dirty[i] {
			dirtyIdx = append(dirtyIdx, i)
		} else {
			coreness[i] = old[i]
		}
	}
	info.DirtyLayers = len(dirtyIdx)
	pool.Run(np.workers, len(dirtyIdx), func(j int) {
		coreness[dirtyIdx[j]] = kcore.Coreness(g, dirtyIdx[j])
	})
	maxCoreness := maxOf(coreness)
	np.corenessOnce.Do(func() {
		np.coreness = coreness
		np.maxCoreness = maxCoreness
	})
	np.corenessBuilds.Store(pr.corenessBuilds.Load())
	if len(dirtyIdx) > 0 {
		np.corenessBuilds.Add(1)
	}
	np.hierarchyBuilds.Store(pr.hierarchyBuilds.Load())
	np.memoHits.Store(pr.memoHits.Load())
	np.memoMisses.Store(pr.memoMisses.Load())
	np.memoCarried.Store(pr.memoCarried.Load())
	np.spaceBuilds.Store(pr.spaceBuilds.Load())
	np.spaceReuses.Store(pr.spaceReuses.Load())
	bound := corenessBound(changed, old, coreness)

	// Decide retention over pr's completed per-d entries under pr.mu.
	// In-flight builds (done not yet set) belong to the old graph and are
	// simply not carried.
	pr.mu.Lock()
	ds := make([]int, 0, len(pr.byD))
	for d := range pr.byD {
		ds = append(ds, d)
	}
	slices.Sort(ds)
	var (
		rebuild []int
		built   []builtSlot
	)
	for _, d := range ds {
		a := pr.byD[d]
		if !a.done.Load() || a.hier == nil {
			continue
		}
		built = append(built, builtSlot{d, a})
		// Retention requires both the coreness bound (untouched by the
		// update) and the sentinel clamp (still addressable: restore and
		// builtArtifact clamp d at maxCoreness+1 of the NEW graph).
		if d > bound && d <= maxCoreness+1 {
			// Shared by pointer: np is not published yet, and a hierarchy
			// references nothing of the graph it was built on.
			kept := &dArtifact{hier: a.hier}
			kept.done.Store(true)
			np.byD[d] = kept
			info.RetainedHierarchies++
		} else {
			info.InvalidatedHierarchies++
			if d > maxCoreness+1 {
				d = maxCoreness + 1 // rebuild the sentinel the old entry now maps to
			}
			rebuild = append(rebuild, d)
		}
	}
	pr.mu.Unlock()
	info.RebuiltHierarchies = np.rebuildHierarchies(rebuild)
	np.memoCarried.Add(np.carryMemo(built, changed))
	return np, info
}

// builtSlot is a completed per-d cache slot of the handle Derive reads.
type builtSlot struct {
	d int
	a *dArtifact
}

// carryMemo copies into np's slot for the same d every memo entry of the
// old slots (pr's completed ones, ascending in d) whose set the batch of
// changed edges provably did not change, and returns how many it stored.
// The entries go in through put in ascending (d, key) order, so the
// budget admits a deterministic set, and are shared by pointer: entries
// never change once stored. np must not be published yet.
//
// Per slot and per space key among its entries (spaceKeyOf), nothing
// carries unless the survivors are equal on both hierarchies
// (dirtyLayers). A d-CC entry then carries when its layer mask avoids
// every dirty layer: C^d_L reads only the compact rows of L's layers. A
// potential set carries only when no layer is dirty, because U^d_L
// reads the whole space and the layer order (DESIGN.md § d-CC memo ›
// Lifetime). A slot whose d the new handle clamps to its sentinel
// carries nothing.
func (np *Prepared) carryMemo(old []builtSlot, changed []multilayer.Edge) int64 {
	carried := int64(0)
	for _, o := range old {
		slot := np.byD[o.d]
		if slot == nil || !slot.done.Load() {
			continue
		}
		var (
			key   spaceKey
			same  bool
			dirty uint64
		)
		for i, e := range o.a.memo.sorted() {
			if k := spaceKeyOf(Options{S: int(e.key.s), NoVertexDeletion: e.key.nvd}); i == 0 || k != key {
				key = k
				dirty, same = dirtyLayers(o.a.hier, slot.hier, key, changed)
			}
			if !same || e.key.mask&dirty != 0 || (e.key.potential && dirty != 0) {
				continue
			}
			if slot.memo.put(np, e.key, e.set) {
				carried++
			}
		}
	}
	return carried
}

// dirtyLayers compares the compact spaces of key k on two hierarchies
// for one d: ho of the graph before a batch that changed the edges
// changed, hn of the graph after it. same reports whether the survivors
// {v : h(v) ≥ s} are equal (under NoVertexDeletion every vertex
// survives); only then is dirty meaningful. Bit i of dirty is set when
// layer i's compact rows can differ: its reduced core {v : coreh_i(v) ≥
// s} differs, or a changed edge on layer i has both endpoints inside it.
// A clean layer's rows are its edges inside an unchanged core that no
// changed edge touches, over unchanged compact ids.
//
// Beyond the one pass over h that finds the survivors, the scan reads
// coreh for survivors only: coreh_i(v) ≤ h(v), so no other vertex is in
// a reduced core of either hierarchy. A hierarchy Derive retained is the
// same on both handles and only its changed edges are checked; by the
// coreness bound none has both endpoints in a reduced core.
func dirtyLayers(ho, hn *hierarchy, k spaceKey, changed []multilayer.Edge) (dirty uint64, same bool) {
	if ho != hn {
		for v, h := range hn.h {
			if !k.nvd {
				in := h >= k.s
				if in != (ho.h[v] >= k.s) {
					return 0, false
				}
				if !in {
					continue
				}
			}
			for i, row := range hn.coreh {
				if (row[v] >= k.s) != (ho.coreh[i][v] >= k.s) {
					dirty |= 1 << uint(i)
				}
			}
		}
	}
	for _, e := range changed {
		if row := hn.coreh[e.Layer]; row[e.U] >= k.s && row[e.V] >= k.s {
			dirty |= 1 << uint(e.Layer)
		}
	}
	return dirty, true
}

// corenessBound returns the largest degree threshold an edge-update batch
// can have affected: the maximum over the changed edges {u,v} on layer i
// of max(min(old_i(u), old_i(v)), min(cur_i(u), cur_i(v))), where old and
// cur are the per-layer coreness rows before and after the batch. A
// removal hierarchy at any d above it is byte-identical to a cold
// rebuild (DESIGN.md § Coreness-bound invalidation): each changed edge
// has an endpoint outside layer i's d-core in both graphs, so that
// d-core and its edge set are the same in both, and the batch loop
// reads nothing else.
func corenessBound(changed []multilayer.Edge, old, cur [][]int32) int {
	bound := int32(0)
	for _, e := range changed {
		o, c := old[e.Layer], cur[e.Layer]
		bound = max(bound, min(o[e.U], o[e.V]), min(c[e.U], c[e.V]))
	}
	return int(bound)
}

// rebuildHierarchies eagerly re-derives the invalidated thresholds on the
// new handle through PrepareDs — one pass whose per-d batch loops run on
// all of the handle's workers — so a warm cache stays warm across an
// update batch instead of the first queries rebuilding one d at a time.
// The list may repeat values (sentinel coalescing); PrepareDs dedupes
// and skips anything already installed. It returns the number of
// hierarchies actually built.
func (pr *Prepared) rebuildHierarchies(ds []int) int {
	if len(ds) == 0 {
		return 0
	}
	before := pr.hierarchyBuilds.Load()
	// Background context: Derive runs to completion once a batch has
	// mutated the store (see Engine.ApplyUpdates), so the rebuild does too
	// — PrepareDs cannot fail on a clamped, ≥ 1 threshold list.
	_ = pr.PrepareDs(context.Background(), ds...)
	return int(pr.hierarchyBuilds.Load() - before)
}
