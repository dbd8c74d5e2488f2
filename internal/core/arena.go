package core

import (
	"repro/internal/bitset"
	"repro/internal/multilayer"
)

// queryArena bundles the per-query buffers of the compact search space
// (see newPrep): the survivor list and the original-to-compact index,
// the compact graph's CSR arrays, the survivor and per-layer reduced-core
// bitsets, the top-down index view with its union rows, and the
// refineU/refineC scratch (state bytes, Rule 2 counters, the l×n′ d⁺
// counter block, and the Lemma 8 scope set). Arenas are pooled per
// Prepared and checked out for the duration of one query. Only index is
// sized by the graph (n entries); every other buffer is sized by the
// query's survivor count n′ and grows on demand, so a steady query load
// reaches a fixed point of zero large allocations.
//
// Invariants between checkouts: state is all-zero (refineC restores it
// on every exit path, including aborts); everything else is rebuilt or
// written before it is read. Nothing in a Result aliases arena memory —
// results are mapped back to original ids into fresh slices — so
// releasing after result assembly is safe.
type queryArena struct {
	index []int32 // original id → compact id, -1 for deleted vertices
	verts []int32 // compact id → original id: the survivors, ascending
	graph multilayer.CompactBuf
	alive *bitset.Set
	cores []*bitset.Set

	// Top-down only: the index view (see indexView), the flat backing of
	// its union rows with the stamps that deduplicate them, and the
	// refine scratch.
	idx       tdIndex
	unionNbrs []int32
	stamp     []int32
	state     []uint8
	counts    []int32
	dplus     [][]int32
	z         *bitset.Set
}

// getArena checks an arena out of the pool, allocating a fresh one for
// the graph when the pool is empty.
func (pr *Prepared) getArena() *queryArena {
	if a, _ := pr.arena.Get().(*queryArena); a != nil {
		return a
	}
	l := pr.g.L()
	a := &queryArena{
		index: make([]int32, pr.g.N()),
		alive: bitset.New(0),
		cores: make([]*bitset.Set, l),
		dplus: make([][]int32, l),
		z:     bitset.New(0),
	}
	for i := range a.cores {
		a.cores[i] = bitset.New(0)
	}
	return a
}

// release returns the query's arena to the owning Prepared's pool. The
// prep — and any search state built on it — must not be used afterwards;
// the assembled Result is safe (it holds only copies).
func (p *prep) release() {
	p.owner.arena.Put(p.arena)
	p.arena = nil
	p.owner = nil
}

// grow returns s resliced to length n, reallocating only when its
// capacity is short; retained elements keep their old values.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
