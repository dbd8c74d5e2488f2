package core

import (
	"repro/internal/bitset"
	"repro/internal/kcore"
)

// Vertex states used by refineC (Fig 10). Unexplored must be the zero
// value: the scratch state array is reset to zero after every call.
const (
	stUnexplored   = 0
	stUndetermined = 1
	stDiscarded    = 2
)

// refineU shrinks the parent's potential vertex set U^d_L to U^d_{L′}
// (Fig 9). L′ splits into Class 1 layers M (positions below the largest
// missing position, which no descendant can drop) and Class 2 layers N
// (the rest):
//
//   - Rule 2: a vertex surviving in some descendant C^d_S with |S| = s
//     must belong to the d-cores of at least s − |M| layers of N.
//   - Rule 1: it must have degree ≥ d inside U on every layer of M.
//
// The global per-layer d-cores do not change while U shrinks, so Rule 2
// needs a single pass, after which Rule 1 is exactly a multi-layer peel;
// the combination reaches the same fixpoint as the paper's repeat-until
// loop.
func (t *tdSearch) refineU(u *bitset.Set, lpos []int) *bitset.Set {
	p := t.prep
	maxMissing := maxMissingPos(lpos, p.g.L())
	var mLayers []int
	var nPos []int
	for _, pos := range lpos {
		if pos < maxMissing {
			mLayers = append(mLayers, p.order[pos])
		} else {
			nPos = append(nPos, pos)
		}
	}

	cur := u.Clone()
	if need := p.opts.S - len(mLayers); need > 0 {
		counts := t.scratchCounts
		cur.ForEach(func(v int) bool {
			counts[v] = 0
			return true
		})
		for _, pos := range nPos {
			core := p.cores[p.order[pos]]
			cur.ForEach(func(v int) bool {
				if core.Contains(v) {
					counts[v]++
				}
				return true
			})
		}
		cur.Clone().ForEach(func(v int) bool {
			if int(counts[v]) < need {
				cur.Remove(v)
			}
			return true
		})
	}
	if len(mLayers) == 0 {
		return cur
	}
	p.stats.dccCalls.Add(1)
	return kcore.DCC(p.g, cur, mLayers, p.opts.D)
}

// maxMissingPos returns max([l] − L) over search positions, or -1 when L
// is the full position set. lpos must be sorted ascending.
func maxMissingPos(lpos []int, l int) int {
	want := l - 1
	for i := len(lpos) - 1; i >= 0; i-- {
		if lpos[i] != want {
			break
		}
		want--
	}
	return want
}

// removablePos returns the positions of L that may still be dropped in
// descendants: {j ∈ L : j > max([l] − L)} (§V-A). lpos must be sorted.
func removablePos(lpos []int, l int) []int {
	mm := maxMissingPos(lpos, l)
	var out []int
	for _, pos := range lpos {
		if pos > mm {
			out = append(out, pos)
		}
	}
	return out
}

// childU returns the potential set U^d_{L′} of the search-tree child
// lpos of a node whose potential set is u, through the memo, running
// refineU on a miss. Every node has one parent (L′ plus its largest
// missing position) and the root's potential set is all survivors, so
// U^d_{L′} is a function of the compact space, the layer order — fixed
// by the space and NoSortLayers — and L′ (DESIGN.md § d-CC memo). u must
// be the parent's potential set. A hit counts the dCC call refineU
// makes when its Class 1 set M is non-empty, which is when some position
// of L′ lies below its largest missing one.
func (t *tdSearch) childU(u *bitset.Set, lpos []int) *bitset.Set {
	p := t.prep
	k := memoKey{potential: true, noSort: p.opts.NoSortLayers}
	for _, pos := range lpos {
		k.mask |= 1 << uint(p.order[pos])
	}
	calls := int64(0)
	if lpos[0] < maxMissingPos(lpos, p.g.L()) {
		calls = 1
	}
	return p.memoized(k, calls, func() *bitset.Set { return t.refineU(u, lpos) })
}

// childCC returns C^d_{L′} for the search-tree child lpos through the
// d-CC memo, running refineC on a miss, or nil when cancellation cut
// that refineC short. u must be the child's potential set, which
// contains C^d_{L′} (DESIGN.md § d-CC memo); callers with arbitrary sets
// use refineC itself.
func (t *tdSearch) childCC(u *bitset.Set, lpos []int) *bitset.Set {
	return t.prep.coherentCore(t.prep.layersOf(lpos), func() *bitset.Set { return t.refineC(u, lpos) })
}

// refineC computes the exact C^d_{L′} inside the potential set U (Fig 10).
//
// The search scope is narrowed to Z = U ∩ {v : h(v) ≥ |L′|} (Lemma 8)
// and then resolved by a seed flood: every vertex with L′ ⊆ L̃(v) is a
// seed, marking spreads from the seeds along index edges through Z,
// each marked vertex is degree-tested against exact d⁺ counters, and
// failures are *discarded* with cascading counter maintenance over the
// layers of L′. Vertices the flood never reaches are discarded at the
// end (with the same cascade), so the surviving marked set is d-dense on
// every layer of L′ — hence ⊆ C^d_{L′}, whatever the seeds — while every
// member of C^d_{L′} is reached: each union-connected component of the
// core is itself d-dense per layer (no layer edge leaves a union
// component), so the component's first-removed vertex still saw the
// whole component alive and carries L′ ⊆ L(v) ⊆ L̃(v) (Lemma 9).
//
// This deliberately strengthens the printed pseudocode (see DESIGN.md):
// the paper walks the levels in batch order and only marks upward, which
// discards members whose union path to their component's seed passes
// through a higher level — the seed flood ignores levels entirely, and
// applies the seed test to every scope vertex rather than only the
// lowest batch. Tests check exact equality with the dCC reference on
// randomized instances.
func (t *tdSearch) refineC(u *bitset.Set, lpos []int) *bitset.Set {
	p := t.prep
	g, d := p.g, p.opts.D
	layers := p.layersOf(lpos)
	need := int32(len(lpos))

	// Lemma 8 scope. The scope set lives in query scratch — it is consumed
	// only within this call, so clearing on entry suffices.
	z := t.scratchZ
	z.Clear()
	u.ForEach(func(v int) bool {
		if t.idx.h[v] >= need {
			z.Add(v)
		}
		return true
	})
	p.stats.dccCalls.Add(1)
	if p.opts.UseDCCRefine {
		return kcore.DCC(g, z, layers, d)
	}

	var wantMask uint64
	for _, ly := range layers {
		wantMask |= 1 << uint(ly)
	}

	// Initialize d⁺ counters: per layer of L′, the number of
	// non-discarded neighbours inside Z.
	state := t.state
	dplus := t.dplus[:len(layers)]
	z.ForEach(func(v int) bool {
		for i, ly := range layers {
			dplus[i][v] = int32(g.DegreeIn(ly, v, z))
		}
		return true
	})

	members := z.Slice32()

	// Cancellation: the cascade and flood loops poll the query context on
	// a stride. On interruption the counters are abandoned mid-cascade, so
	// no vertex set is known to be C^d_{L′}: refineC returns nil, with the
	// scratch state still reset for the next call (the truncated flags are
	// set by interrupted() itself).
	aborted := false
	steps := 0

	discard := func(v int) {
		state[v] = stDiscarded
		stack := t.scratchStack[:0]
		stack = append(stack, int32(v))
		for len(stack) > 0 {
			if steps++; steps&4095 == 0 && p.interrupted() {
				aborted = true
			}
			if aborted {
				break
			}
			x := int(stack[len(stack)-1])
			stack = stack[:len(stack)-1]
			for i, ly := range layers {
				for _, u32 := range g.Neighbors(ly, x) {
					uu := int(u32)
					if !z.Contains(uu) || state[uu] == stDiscarded {
						continue
					}
					dplus[i][uu]--
					if state[uu] == stUndetermined && dplus[i][uu] < int32(d) {
						state[uu] = stDiscarded
						stack = append(stack, u32)
					}
				}
			}
		}
		t.scratchStack = stack[:0]
	}

	degreeOK := func(v int) bool {
		for i := range layers {
			if dplus[i][v] < int32(d) {
				return false
			}
		}
		return true
	}

	// Seed the flood with every scope vertex whose L̃(v) contains L′: the
	// Lemma 9 seeds and possibly more, which the degree test sorts out.
	queue := t.scratchQueue[:0]
	for _, v32 := range members {
		if t.idx.seeds[v32]&wantMask == wantMask {
			state[v32] = stUndetermined
			queue = append(queue, v32)
		}
	}
	// Flood: degree-test marked vertices and mark their unexplored scope
	// neighbours; discards cascade through the counters as usual.
	for len(queue) > 0 {
		if steps++; steps&4095 == 0 && p.interrupted() {
			aborted = true
		}
		if aborted {
			break
		}
		v := int(queue[len(queue)-1])
		queue = queue[:len(queue)-1]
		if state[v] != stUndetermined {
			continue // discarded by a cascade in the meantime
		}
		if !degreeOK(v) {
			discard(v)
			continue
		}
		for _, u32 := range t.idx.unionAdj[v] {
			uu := int(u32)
			if z.Contains(uu) && state[uu] == stUnexplored {
				state[uu] = stUndetermined
				queue = append(queue, u32)
			}
		}
	}
	t.scratchQueue = queue[:0]

	// Vertices the flood never reached are provably outside C^d_{L′}
	// (Lemma 9); discarding them drains their support from the survivors
	// so the final degree feasibility counts marked vertices only.
	for _, v32 := range members {
		if aborted {
			break
		}
		if state[v32] == stUnexplored {
			discard(int(v32))
		}
	}

	// The undetermined vertices are exactly C^d_{L′} (degree feasibility
	// is enforced on every state transition and by the cascades).
	var out *bitset.Set
	if !aborted {
		out = bitset.New(g.N())
	}
	for _, v32 := range members {
		if out != nil && state[v32] == stUndetermined {
			out.Add(int(v32))
		}
		state[v32] = stUnexplored // reset scratch for the next call
	}
	return out
}
