package core

import (
	"cmp"
	"slices"
	"sync"

	"repro/internal/bitset"
	"repro/internal/kcore"
	"repro/internal/multilayer"
)

// memoKey names one entry within a per-d slot: the support threshold
// and vertex-deletion toggle that pin the query's compact survivor space,
// the layer set L as a bitmask of original layer ids, and the kind of
// set stored. An entry is the exact d-CC C^d_L, or with potential set the
// top-down potential set U^d_L, which also depends on the layer order
// and so keys on NoSortLayers (noSort is false in d-CC keys).
type memoKey struct {
	s         int32
	nvd       bool
	potential bool
	noSort    bool
	mask      uint64
}

// Key flag bits as snapshots store them. Their values rank the flags
// so that ordering keys by (s, flags, mask) orders them by s,
// NoVertexDeletion, kind (d-CC before potential set), NoSortLayers and
// layer mask (compareMemoKeys).
const (
	memoFlagNoSort = 1 << iota
	memoFlagPotential
	memoFlagNVD
	memoFlagsAll = memoFlagNoSort | memoFlagPotential | memoFlagNVD
)

// flags returns the key's toggles as memoFlag bits.
func (k memoKey) flags() int64 {
	var f int64
	if k.noSort {
		f |= memoFlagNoSort
	}
	if k.potential {
		f |= memoFlagPotential
	}
	if k.nvd {
		f |= memoFlagNVD
	}
	return f
}

// compareMemoKeys orders keys by s, NoVertexDeletion, kind, NoSortLayers
// and layer mask: the order snapshots store a memo in.
func compareMemoKeys(a, b memoKey) int {
	return cmp.Or(cmp.Compare(a.s, b.s), cmp.Compare(a.flags(), b.flags()), cmp.Compare(a.mask, b.mask))
}

// memoEntry is one stored set with its key.
type memoEntry struct {
	key memoKey
	set *bitset.Set
}

// memoEntryOverhead is the bytes an entry is charged beyond its bitset
// words: the set header, the map slot and its key.
const memoEntryOverhead = 64

// memoCharge is the bytes an entry holding c is charged against the
// budget: its bitset words and the overhead.
func memoCharge(c *bitset.Set) int64 {
	return int64(8*((c.Cap()+63)/64) + memoEntryOverhead)
}

// memoMinBudget is the smallest memo budget a Prepared gets, so small
// graphs keep every entry (see memoBudget).
const memoMinBudget = 64 << 10

// dccMemo caches exact d-CCs C^d_L and top-down potential sets U^d_L
// across the queries served by one per-d hierarchy (DESIGN.md § d-CC
// memo). For a fixed hierarchy, s and NoVertexDeletion, newPrep always
// builds the same compact survivor graph with the same compact ids, and
// C^d_L is the maximal d-dense set on L in that graph, so any peel from
// a seed containing it returns the same set; U^d_L is a function of the
// same space, the layer order and L (see childU). Entries are bitsets
// over those compact ids and never change once stored.
type dccMemo struct {
	mu      sync.Mutex
	entries map[memoKey]*bitset.Set
}

func (m *dccMemo) get(k memoKey) *bitset.Set {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.entries[k]
}

// put stores c under k unless k is present or the owner's byte budget
// cannot take it, and reports whether it stored c; a full memo stops
// inserting and never evicts.
func (m *dccMemo) put(pr *Prepared, k memoKey, c *bitset.Set) bool {
	size := memoCharge(c)
	budget := memoBudget(pr.g)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.entries[k]; ok {
		return false
	}
	// Reserve, then undo on overflow: near a full budget a concurrent put
	// on another slot may be refused, which only costs a future hit.
	if pr.memoBytes.Add(size) > budget {
		pr.memoBytes.Add(-size)
		return false
	}
	if m.entries == nil {
		m.entries = map[memoKey]*bitset.Set{}
	}
	m.entries[k] = c
	return true
}

// sorted returns the memo's entries in ascending key order.
func (m *dccMemo) sorted() []memoEntry {
	m.mu.Lock()
	out := make([]memoEntry, 0, len(m.entries))
	for k, c := range m.entries {
		out = append(out, memoEntry{k, c})
	}
	m.mu.Unlock()
	slices.SortFunc(out, func(a, b memoEntry) int { return compareMemoKeys(a.key, b.key) })
	return out
}

// memoBudget bounds the bytes a Prepared's memos hold: the size of the
// graph's per-layer coreness arrays (4 bytes per vertex and layer), and
// at least memoMinBudget.
func memoBudget(g *multilayer.Graph) int64 {
	return max(4*int64(g.N())*int64(g.L()), memoMinBudget)
}

// coherentCore returns C^d_L for the sorted original layer set L on the
// query's compact graph, answering from the per-d memo when it can and
// calling compute — which must return exactly C^d_L and count its own
// dCC call — on a miss. A hit counts as one dCC call, so Stats are those
// of a run without the memo.
//
// Only call sites whose seed provably contains C^d_L may come here: the
// memo answers with the maximal set, while a peel from a smaller seed
// returns a subset (refineU's Rule 2 filtered seed is one; it calls
// kcore.DCC directly). The returned set may be shared with concurrent
// queries and with the other workers of this one, so callers only read
// it.
func (p *prep) coherentCore(layers []int, compute func() *bitset.Set) *bitset.Set {
	var mask uint64
	for _, ly := range layers {
		mask |= 1 << uint(ly)
	}
	return p.memoized(memoKey{mask: mask}, 1, compute)
}

// memoized returns the memo entry k, whose s and NoVertexDeletion it
// fills in from the query. A hit counts calls dCC calls, the ones compute
// would have made; a miss calls compute and stores what it returns.
// Queries without a memo (no hierarchy, or more
// than 64 layers) always compute, and nothing is stored once the query
// has observed cancellation: an aborted refineC returns nil.
func (p *prep) memoized(k memoKey, calls int64, compute func() *bitset.Set) *bitset.Set {
	if p.memo == nil {
		return compute()
	}
	k.s, k.nvd = int32(p.opts.S), p.opts.NoVertexDeletion
	if c := p.memo.get(k); c != nil {
		p.owner.memoHits.Add(1)
		p.stats.dccCalls.Add(calls)
		return c
	}
	p.owner.memoMisses.Add(1)
	c := compute()
	if !p.stats.interrupted.Load() {
		p.memo.put(p.owner, k, c)
	}
	return c
}

// dcc returns C^d_L peeled from seed by kcore.DCC, through the memo; see
// coherentCore for the contract on seed and on the returned set.
func (p *prep) dcc(seed *bitset.Set, layers []int) *bitset.Set {
	return p.coherentCore(layers, func() *bitset.Set { return p.peel(seed, layers) })
}

// dccIn is dcc from the seed scope ∩ core, which it builds only on a
// memo miss: a hit needs no seed.
func (p *prep) dccIn(scope, core *bitset.Set, layers []int) *bitset.Set {
	return p.coherentCore(layers, func() *bitset.Set { return p.peelIn(scope, core, layers) })
}

// peelIn is peel from the seed scope ∩ core. It is a method of its own
// so that the seed's set header stays on its stack: built inside dccIn's
// closure, the header escaped to the heap, one allocation per miss.
func (p *prep) peelIn(scope, core *bitset.Set, layers []int) *bitset.Set {
	return p.peel(scope.Intersection(core), layers)
}

// peel counts one dCC call and runs kcore.DCC from seed on layers.
func (p *prep) peel(seed *bitset.Set, layers []int) *bitset.Set {
	p.stats.dccCalls.Add(1)
	return kcore.DCC(p.g, seed, layers, p.opts.D)
}
