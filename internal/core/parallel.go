package core

import (
	"slices"

	"repro/internal/coverage"
)

// mergeLocals runs the barrier merge of a parallel BU/TD search: the
// pre-fan-out snapshot followed by every subtree's local entries. The
// fan-outs hand over bare entry lists — not the local TopK sets — so
// each subtree's O(n′) coverage bookkeeping is collectable as soon as
// its task finishes.
func mergeLocals(n, k int, snapshot *coverage.TopK, locals [][]*coverage.Entry) *coverage.TopK {
	groups := make([][]*coverage.Entry, 0, len(locals)+1)
	groups = append(groups, snapshot.Entries())
	groups = append(groups, locals...)
	return mergeTopK(n, k, groups...)
}

// mergeTopK rebuilds one top-k result set from the entries accumulated
// by the pre-fan-out snapshot and every subtree's local set, at the
// barrier that ends a parallel BU/TD search (see DESIGN.md):
//
//  1. entries are deduplicated by layer set — a layer set determines
//     its d-CC uniquely, so duplicates across subtrees are identical —
//     and ordered canonically, making the merge independent of worker
//     scheduling;
//  2. up to k entries are selected greedily by marginal coverage, the
//     same max-k-cover rule GreedyDCCS uses;
//  3. every remaining entry is offered through the paper's Update rule
//     (Appendix C), whose Rule 2 replacements only ever increase
//     |Cov(R)|.
func mergeTopK(n, k int, groups ...[]*coverage.Entry) *coverage.TopK {
	entries := uniqueByLayers(slices.Concat(groups...))

	merged := coverage.New(n, k)
	picked := make([]bool, len(entries))
	for pick := 0; pick < k && pick < len(entries); pick++ {
		best, bestGain := -1, -1
		for i, e := range entries {
			if picked[i] {
				continue
			}
			if gain := merged.Gain(e.Set); gain > bestGain {
				best, bestGain = i, gain
			}
		}
		picked[best] = true
		merged.Update(entries[best].Set, entries[best].Layers)
	}
	for i, e := range entries {
		if !picked[i] {
			merged.Update(e.Set, e.Layers)
		}
	}
	return merged
}
