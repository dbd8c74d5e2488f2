package core

import (
	"sync"

	"repro/internal/bitset"
	"repro/internal/multilayer"
)

// queryArena holds one compact search space (see newPrep): the survivor
// list, the compact graph with its CSR arrays, the survivor and
// per-layer reduced-core bitsets and, for top-down, the index view with
// its union rows and the refineU/refineC scratch (state bytes, Rule 2
// counters, the l×n′ d⁺ counter block, and the Lemma 8 scope set). Every
// buffer is sized by the space's survivor count n′.
//
// An arena is checked out for the duration of one query. It is built
// for one space key within one per-d slot and pooled under it, so the
// next query of that key checks the finished space out instead of
// rebuilding it (DESIGN.md § Compact search space).
//
// Invariants between checkouts: state is all-zero (refineC restores it
// on every exit path, including aborts); the space (verts, g, alive,
// cores and, once rows is set, idx) is never written after its build;
// the remaining scratch is written before it is read. Nothing in a
// Result aliases arena memory — results are mapped back to original ids
// into fresh slices — so releasing after result assembly is safe.
type queryArena struct {
	// space is the pool of the key whose space the arena holds; nil for
	// the empty space of a query without a hierarchy.
	space *sync.Pool
	verts []int32 // compact id → original id: the survivors, ascending
	g     *multilayer.Graph
	alive *bitset.Set
	cores []*bitset.Set

	// Top-down only, added by the first top-down query on the arena
	// (rows): the index view (see indexView) and the refine scratch.
	rows   bool
	idx    tdIndex
	state  []uint8
	counts []int32
	dplus  [][]int32
	z      *bitset.Set
}

// spaceKey names one compact search space within a per-d slot: the
// vertex-deletion toggle and the support threshold that pick its
// survivors and reduced cores. Under NoVertexDeletion every vertex stays
// and the cores are the initial d-cores whatever s is, so s is 1 there;
// the toggle stays in the key because s = 1 with vertex deletion drops
// the vertices no layer supports.
type spaceKey struct {
	s   int32
	nvd bool
}

func spaceKeyOf(opts Options) spaceKey {
	if opts.NoVertexDeletion {
		return spaceKey{s: 1, nvd: true}
	}
	return spaceKey{s: int32(opts.S)}
}

// spacePool returns the slot's pool of arenas holding the space k,
// creating it on first use.
func (a *dArtifact) spacePool(k spaceKey) *sync.Pool {
	a.spaceMu.Lock()
	defer a.spaceMu.Unlock()
	sp := a.spaces[k]
	if sp == nil {
		if a.spaces == nil {
			a.spaces = map[spaceKey]*sync.Pool{}
		}
		sp = &sync.Pool{}
		a.spaces[k] = sp
	}
	return sp
}

// release returns the query's arena to the pool of the space it holds;
// an arena without a space (its query had no hierarchy) is dropped. The
// prep — and any search state built on it — must not be used afterwards;
// the assembled Result is safe (it holds only copies).
func (p *prep) release() {
	if p.arena.space != nil {
		p.arena.space.Put(p.arena)
	}
	p.arena = nil
	p.owner = nil
}
