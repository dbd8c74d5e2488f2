// Incremental artifact derivation for live graphs.
//
// When a mutable engine applies an edge-update batch, the expensive
// cached artifacts (per-layer coreness, per-d removal hierarchies) do
// not all die: an edge {u,v} on layer i can only change computations at
// degree thresholds d ≤ min(deg_i(u), deg_i(v)) — counting the edge
// itself, i.e. post-insert degrees for inserts and pre-delete degrees
// for deletes. Derive exploits that bound to carry every provably
// unaffected artifact from the old Prepared into a fresh handle on the
// post-update graph, so a small update on a warm engine invalidates a
// small slice of the cache instead of all of it. The argument is spelled
// out in DESIGN.md § Live graphs.
package core

import (
	"context"
	"slices"

	"repro/internal/kcore"
	"repro/internal/multilayer"
	"repro/internal/pool"
)

// DirtySet describes what an edge-update batch touched, in the terms
// Derive needs to decide artifact retention. The live store accumulates
// it while applying a batch.
type DirtySet struct {
	// Layers[i] is true when layer i's edge set changed. Indices beyond
	// len(Layers) are treated as clean.
	Layers []bool
	// UnionVerts lists every vertex incident to a changed edge (sorted,
	// deduplicated). Their union-adjacency rows are re-derived from the
	// new graph; all other rows are shared with the old handle.
	UnionVerts []int32
	// MaxDirtyD is max over changed edges of min(deg(u), deg(v)) on the
	// edge's layer, counting the edge itself. Removal hierarchies with
	// d > MaxDirtyD are byte-identical to a cold rebuild and are kept.
	MaxDirtyD int
}

// DeriveInfo reports what a Derive call preserved, discarded and rebuilt,
// for metrics and update responses.
type DeriveInfo struct {
	DirtyLayers            int
	RetainedHierarchies    int
	InvalidatedHierarchies int
	// RebuiltHierarchies counts the invalidated thresholds eagerly rebuilt
	// on the new handle — all of them, shared through one sweep, except
	// where the sentinel clamp coalesced several old entries into one.
	RebuiltHierarchies int
}

// Version returns the graph version this handle's artifacts correspond
// to: 0 for a handle built cold by NewPrepared, the update-batch counter
// for handles produced by Derive (or restored from a version-stamped
// snapshot).
func (pr *Prepared) Version() uint64 { return pr.version.Load() }

// Derive builds a Prepared for the post-update graph g, carrying over
// every artifact of pr that the update provably did not affect:
//
//   - per-layer coreness rows of clean layers are shared; dirty layers
//     are recomputed (in parallel) from g;
//   - completed per-d hierarchies with d > dirty.MaxDirtyD are kept,
//     re-pointed at a union adjacency whose dirty rows were patched from
//     g (Lemma 9's seed flood must see the new edges); entries at or
//     below the bound — and entries whose d exceeds the new
//     maxCoreness+1 sentinel clamp — are dropped and eagerly rebuilt on
//     the new handle, all sharing one sweep (see rebuildHierarchies).
//
// pr itself is never mutated: queries running against the old handle
// keep observing a consistent pre-update state. The returned handle is
// stamped with version and inherits pr's build counters (plus one
// coreness build when any layer was dirty), so the amortization
// counters stay meaningful across updates.
func (pr *Prepared) Derive(g *multilayer.Graph, dirty DirtySet, version uint64) (*Prepared, DeriveInfo) {
	old := pr.layerCoreness() // resolves pr.coreness and pr.maxCoreness
	np := NewPrepared(g, pr.workers)
	np.version.Store(version)

	var info DeriveInfo
	l := g.L()
	coreness := make([][]int, l)
	dirtyIdx := make([]int, 0, l)
	for i := 0; i < l; i++ {
		if i < len(dirty.Layers) && dirty.Layers[i] {
			dirtyIdx = append(dirtyIdx, i)
		} else {
			coreness[i] = old[i]
		}
	}
	info.DirtyLayers = len(dirtyIdx)
	pool.Run(np.workers, len(dirtyIdx), func(j int) {
		coreness[dirtyIdx[j]] = kcore.Coreness(g, dirtyIdx[j], nil)
	})
	maxCoreness := 0
	for _, cn := range coreness {
		for _, c := range cn {
			if c > maxCoreness {
				maxCoreness = c
			}
		}
	}
	np.corenessOnce.Do(func() {
		np.coreness = coreness
		np.maxCoreness = maxCoreness
	})
	np.corenessBuilds.Store(pr.corenessBuilds.Load())
	if len(dirtyIdx) > 0 {
		np.corenessBuilds.Add(1)
	}
	np.hierarchyBuilds.Store(pr.hierarchyBuilds.Load())

	// Snapshot the completed per-d entries under pr.mu, then decide
	// retention outside the lock. In-flight builds (done not yet set)
	// belong to the old graph and are simply not carried.
	pr.mu.Lock()
	ds := make([]int, 0, len(pr.byD))
	for d := range pr.byD {
		ds = append(ds, d)
	}
	slices.Sort(ds)
	type kept struct {
		d    int
		hier *hierarchy
	}
	var keep []kept
	var rebuild []int
	for _, d := range ds {
		a := pr.byD[d]
		if !a.done.Load() || a.hier == nil {
			continue
		}
		// Retention requires both the degree bound (untouched by the
		// update) and the sentinel clamp (still addressable: restore and
		// hierarchyFor clamp d at maxCoreness+1 of the NEW graph).
		if d > dirty.MaxDirtyD && d <= maxCoreness+1 {
			keep = append(keep, kept{d: d, hier: a.hier})
		} else {
			info.InvalidatedHierarchies++
			if d > maxCoreness+1 {
				d = maxCoreness + 1 // rebuild the sentinel the old entry now maps to
			}
			rebuild = append(rebuild, d)
		}
	}
	pr.mu.Unlock()
	info.RetainedHierarchies = len(keep)

	// Union adjacency: a vertex's row changes only if it is an endpoint of
	// a changed edge, so rows of update-touched vertices are re-derived
	// from g and every other row is shared with pr. The patched array
	// equals a cold build row for row; installed as np's union adjacency,
	// it serves the kept hierarchies (whose refineC Lemma 9 flood must see
	// the new edges — a stale row would be unsound), the eager rebuilds
	// below and later lazy builds, instead of a rebuild of all n rows.
	// Patching needs pr's rows: a handle that never built them has no
	// kept hierarchies referencing them, so np builds lazily from g.
	var newUA [][]int32
	if oldUA := pr.builtUnionAdjacency(); oldUA != nil && l <= 64 {
		newUA = slices.Clone(oldUA)
		pool.Run(np.workers, len(dirty.UnionVerts), func(j int) {
			v := int(dirty.UnionVerts[j])
			if v >= 0 && v < len(newUA) {
				newUA[v] = g.UnionNeighbors(v)
			}
		})
		newUA = np.adoptUnionAdjacency(newUA)
	}
	np.mu.Lock()
	for _, k := range keep {
		// Shallow-clone the index so the old handle's artifact is never
		// mutated (queries may still be reading it); everything but the
		// union-adjacency pointer is shared.
		idx := *k.hier.idx
		if idx.unionAdj != nil {
			idx.unionAdj = newUA
		}
		a := &dArtifact{hier: &hierarchy{idx: &idx, coreh: k.hier.coreh}}
		a.done.Store(true)
		np.byD[k.d] = a
	}
	np.mu.Unlock()
	info.RebuiltHierarchies = np.rebuildHierarchies(rebuild)
	return np, info
}

// rebuildHierarchies eagerly re-derives the invalidated thresholds on the
// new handle through one shared sweep (PrepareDs), so a warm cache stays
// warm across an update batch at a fraction of the per-d rebuild cost the
// first queries would otherwise pay serially. The list may repeat values
// (sentinel coalescing); PrepareDs dedupes and skips anything already
// installed. It returns the number of hierarchies actually built.
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
