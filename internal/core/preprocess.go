package core

import (
	"cmp"
	"context"
	"slices"

	"repro/internal/bitset"
	"repro/internal/coverage"
	"repro/internal/multilayer"
)

// prep holds the per-query state the DCCS algorithms run against, derived
// from a Prepared's cached artifacts by newPrep. Its centre is the
// compact search space: the vertices that survive vertex deletion (§IV-C,
// lines 1–7 of BU-DCCS, Fig 7), renumbered 0..n′−1 in ascending original
// order, the subgraph in which each layer keeps only the edges of its
// reduced d-core, and those per-layer d-cores. Every vertex id the
// algorithms handle is a compact id; notify, finish and the greedy and
// exact result assembly map back to original ids through verts. prep
// also carries the layer permutation induced by layer sorting and the
// query's context. Layer sorting and result initialization are applied
// separately by each algorithm since their direction differs (BU sorts
// descending, TD ascending, GD is order-insensitive).
type prep struct {
	g     *multilayer.Graph // compact survivor subgraph, n′ vertices
	verts []int32           // compact id → original id, ascending
	opts  Options
	ctx   context.Context // query lifetime; nil means run to completion
	idx   *tdIndex        // top-down only: the index restricted to the survivors
	alive *bitset.Set     // every compact vertex
	cores []*bitset.Set   // per original layer: the reduced d-core
	order []int           // position -> original layer id
	stats runStats

	// owner/arena track the pooled buffers behind the compact space and
	// the top-down scratch; release returns them once the Result — which
	// never aliases arena memory — is assembled.
	owner *Prepared
	arena *queryArena
	// memo is the d-CC memo of the hierarchy's slot, nil when the query
	// must not use one (see newPrep and coherentCore).
	memo *dccMemo
}

// interrupted reports whether the query's context has been cancelled or
// its deadline exceeded, marking the run truncated+interrupted on the
// first positive answer. The search loops consult it at every tree-node
// expansion, so cancellation yields a valid partial result instead of
// burning CPU; under the parallel engine every worker checks the same
// shared context.
func (p *prep) interrupted() bool {
	if p.ctx == nil || p.ctx.Err() == nil {
		return false
	}
	p.stats.truncated.Store(true)
	p.stats.interrupted.Store(true)
	return true
}

// admitNode gates one search-tree node expansion on both the query
// context and the MaxTreeNodes budget.
func (p *prep) admitNode() bool {
	if p.interrupted() {
		return false
	}
	return p.stats.addTreeNode(p.opts.MaxTreeNodes)
}

// notify streams a successful result-set update to the query's
// OnCandidate hook, if any, in original vertex ids. The slices handed
// over are copies: the originals are retained by the top-k set (and, for
// greedy, the result under construction), so a callback that mutates or
// keeps its CC must not be able to corrupt the engine's state.
func (p *prep) notify(vertices []int32, layers []int) {
	if p.opts.OnCandidate == nil {
		return
	}
	p.opts.OnCandidate(CC{
		Layers:   append([]int(nil), layers...),
		Vertices: p.original(vertices),
	})
}

// original maps compact vertex ids to original ids in a fresh slice.
// The renumbering is monotone, so sorted input stays sorted.
func (p *prep) original(vs []int32) []int32 {
	out := make([]int32, len(vs))
	for i, v := range vs {
		out[i] = p.verts[v]
	}
	return out
}

// sortLayers fixes the layer permutation: descending |C^d(G_i)| for the
// bottom-up algorithm, ascending for the top-down algorithm (§IV-C,
// §V-D). Ties break on the original layer id for determinism.
func (p *prep) sortLayers(ascending bool) {
	if p.opts.NoSortLayers {
		return
	}
	slices.SortStableFunc(p.order, func(a, b int) int {
		ca, cb := p.cores[a].Count(), p.cores[b].Count()
		if ca != cb {
			if ascending {
				return cmp.Compare(ca, cb)
			}
			return cmp.Compare(cb, ca)
		}
		return cmp.Compare(a, b)
	})
}

// layersOf maps sorted search positions to sorted original layer ids.
func (p *prep) layersOf(positions []int) []int {
	out := make([]int, len(positions))
	for i, pos := range positions {
		out[i] = p.order[pos]
	}
	slices.Sort(out)
	return out
}

// initTopK seeds the result set with k greedily constructed candidates,
// the InitTopK procedure of Appendix D: pick the layer whose d-core adds
// the most uncovered vertices, grow its layer set to size s by maximum
// d-core intersection, compute the d-CC, and update R; repeat k times.
func (p *prep) initTopK(topk *coverage.TopK) {
	if p.opts.NoInitResult {
		return
	}
	g, s, k := p.g, p.opts.S, p.opts.K
	for pass := 0; pass < k; pass++ {
		if p.interrupted() {
			return
		}
		best, bestGain := -1, -1
		for i := 0; i < g.L(); i++ {
			if gain := topk.Gain(p.cores[i]); gain > bestGain {
				best, bestGain = i, gain
			}
		}
		L := []int{best}
		C := p.cores[best].Clone()
		for len(L) < s {
			bestJ, bestInter := -1, -1
			for j := 0; j < g.L(); j++ {
				if slices.Contains(L, j) {
					continue
				}
				if inter := C.CountAnd(p.cores[j]); inter > bestInter {
					bestJ, bestInter = j, inter
				}
			}
			L = append(L, bestJ)
			C.And(p.cores[bestJ])
		}
		slices.Sort(L)
		p.update(topk, p.dcc(C, L), L)
	}
}

// update offers candidate d-CC c on layer set layers to R by the Update
// rule (Appendix C); an accepted one is counted and streamed to the
// OnCandidate hook. R retains c, which no caller modifies.
func (p *prep) update(topk *coverage.TopK, c *bitset.Set, layers []int) {
	if topk.Update(c, layers) {
		p.stats.updates.Add(1)
		if p.opts.OnCandidate != nil {
			p.notify(c.Slice32(), layers)
		}
	}
}

// offer counts c as a size-s candidate of the search tree and offers it
// to R through update. A nil c is a refineC that cancellation cut short:
// there is no d-CC to offer, and R must only ever hold exact ones.
func (p *prep) offer(topk *coverage.TopK, c *bitset.Set, layers []int) {
	if c == nil {
		return
	}
	p.stats.candidates.Add(1)
	p.update(topk, c, layers)
}

// finish assembles the Result from the final top-k set in original
// vertex ids, sorting cores by layer set for deterministic output.
// Entries with identical layer sets (possible when InitTopK builds the
// same greedy candidate twice) carry identical d-CCs, so only one
// representative is kept; coverage is unaffected.
func (p *prep) finish(topk *coverage.TopK) *Result {
	res := &Result{CoverSize: topk.CoverSize(), Stats: p.stats.snapshot()}
	for _, e := range uniqueByLayers(topk.Entries()) {
		res.Cores = append(res.Cores, CC{Layers: e.Layers, Vertices: p.original(e.Vertices)})
	}
	return res
}

// uniqueByLayers sorts entries by layer set in place and keeps the first
// of every run of equal layer sets, which carry identical d-CCs.
func uniqueByLayers(entries []*coverage.Entry) []*coverage.Entry {
	slices.SortStableFunc(entries, func(a, b *coverage.Entry) int {
		return slices.Compare(a.Layers, b.Layers)
	})
	return slices.CompactFunc(entries, func(a, b *coverage.Entry) bool {
		return slices.Equal(a.Layers, b.Layers)
	})
}
