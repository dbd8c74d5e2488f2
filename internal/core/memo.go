package core

import (
	"sync"

	"repro/internal/bitset"
	"repro/internal/kcore"
	"repro/internal/multilayer"
)

// memoKey names one exact d-CC within a per-d slot: the support
// threshold and vertex-deletion toggle that pin the query's compact
// survivor space, and the layer set L as a bitmask of original layer ids.
type memoKey struct {
	s    int32
	nvd  bool
	mask uint64
}

// memoEntryOverhead is the bytes an entry is charged beyond its bitset
// words: the set header, the map slot and its key.
const memoEntryOverhead = 64

// memoMinBudget is the smallest memo budget a Prepared gets, so small
// graphs keep every entry (see memoBudget).
const memoMinBudget = 64 << 10

// dccMemo caches exact d-CCs C^d_L across the queries served by one
// per-d hierarchy (DESIGN.md § d-CC memo). For a fixed hierarchy, s and
// NoVertexDeletion, newPrep always builds the same compact survivor
// graph with the same compact ids, and C^d_L is the maximal d-dense set
// on L in that graph, so any peel from a seed containing it returns the
// same set. Entries are bitsets over those compact ids and never change
// once stored.
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
// cannot take it; a full memo stops inserting and never evicts.
func (m *dccMemo) put(pr *Prepared, k memoKey, c *bitset.Set) {
	size := int64(8*((c.Cap()+63)/64) + memoEntryOverhead)
	budget := memoBudget(pr.g)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.entries[k]; ok {
		return
	}
	// Reserve, then undo on overflow: near a full budget a concurrent put
	// on another slot may be refused, which only costs a future hit.
	if pr.memoBytes.Add(size) > budget {
		pr.memoBytes.Add(-size)
		return
	}
	if m.entries == nil {
		m.entries = map[memoKey]*bitset.Set{}
	}
	m.entries[k] = c
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
// it. Queries without a memo (no hierarchy, or more than 64 layers)
// always compute, and nothing is stored once the query has observed
// cancellation: an aborted refineC returns the empty set.
func (p *prep) coherentCore(layers []int, compute func() *bitset.Set) *bitset.Set {
	if p.memo == nil {
		return compute()
	}
	k := memoKey{s: int32(p.opts.S), nvd: p.opts.NoVertexDeletion}
	for _, ly := range layers {
		k.mask |= 1 << uint(ly)
	}
	if c := p.memo.get(k); c != nil {
		p.owner.memoHits.Add(1)
		p.stats.dccCalls.Add(1)
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
	return p.coherentCore(layers, func() *bitset.Set {
		p.stats.dccCalls.Add(1)
		return kcore.DCC(p.g, seed, layers, p.opts.D)
	})
}
