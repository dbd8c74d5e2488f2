package core

import (
	"cmp"
	"context"
	"slices"
	"time"

	"repro/internal/bitset"
	"repro/internal/coverage"
	"repro/internal/multilayer"
	"repro/internal/pool"
)

// BottomUpDCCS implements the BU-DCCS algorithm (Figs 3 and 7) through a
// throwaway Prepared handle. Long-lived callers should hold a Prepared
// (or the public dccs.Engine) and use its BottomUp method, which
// amortizes preprocessing across queries.
func BottomUpDCCS(g *multilayer.Graph, opts Options) (*Result, error) {
	return NewPrepared(g, opts.MaterializeWorkers()).BottomUp(context.Background(), opts)
}

// BottomUp runs the BU-DCCS algorithm (Figs 3 and 7): candidate d-CCs
// are generated by depth-first search over the bottom-up layer-subset
// tree, interleaved with top-k maintenance, so that whole subtrees are
// pruned as soon as their best-possible candidates can no longer improve
// the temporary result (Lemmas 2–4). Approximation ratio 1/4 (Theorem
// 3). It is the preferred algorithm when s < l(G)/2.
//
// With Options.Workers > 1 the first level of the search tree fans out
// to a worker pool: every top-level subtree runs the serial BU-Gen
// against its own local top-k seeded from the post-initialization
// snapshot, and the local results are merged at a barrier (DESIGN.md
// explains why the pruning bounds stay sound against a stale snapshot).
//
// Cancelling ctx (or exceeding its deadline) stops the search at the
// next tree-node expansion and returns the valid partial result with
// Stats.Truncated and Stats.Interrupted set.
func (pr *Prepared) BottomUp(ctx context.Context, opts Options) (*Result, error) {
	if err := opts.Validate(pr.g); err != nil {
		return nil, err
	}
	start := time.Now()
	p := pr.newPrep(ctx, opts, false)
	defer p.release()
	topk := coverage.New(p.g.N(), opts.K)
	p.initTopK(topk)
	p.sortLayers(false) // descending |C^d(G_i)| (§IV-C)

	b := &buSearch{prep: p, topk: topk}
	if w := opts.searchWorkers(); w > 1 {
		topk = b.genParallel(w)
	} else {
		b.gen(nil, p.alive, 0)
	}

	res := p.finish(topk)
	res.Stats.Algorithm = AlgoNameBU
	res.Stats.Elapsed = time.Since(start)
	return res, nil
}

// buSearch carries the state of one bottom-up run. Layer subsets are
// expressed over search positions 0..l-1 (the sorted layer order); the
// original layer ids are recovered through prep.layersOf.
type buSearch struct {
	prep *prep
	topk *coverage.TopK
}

// posCore returns the d-core of the layer at the given search position.
func (b *buSearch) posCore(pos int) *bitset.Set {
	return b.prep.cores[b.prep.order[pos]]
}

// genParallel expands the root of the bottom-up tree and hands each
// surviving top-level subtree to a pool of workers, each running the
// serial gen against a clone of the current top-k; it returns the merged
// result set. Root-level Lemma 2/3 pruning is skipped (the root children
// must all be materialized to seed the subtrees anyway), the empty-
// subtree cut and the Lemma 4 exclusions are kept. Every subtree's
// outcome depends only on its position and the shared snapshot, so the
// merged result is deterministic regardless of scheduling — except under
// a MaxTreeNodes budget, which the workers share and race for.
func (b *buSearch) genParallel(workers int) *coverage.TopK {
	p := b.prep
	g, s := p.g, p.opts.S
	l := g.L()
	if !p.admitNode() {
		return b.topk
	}

	// Materialize all root children in parallel (lines 2–9 of BU-Gen
	// with L = ∅: LP is every position).
	children := make([]*bitset.Set, l)
	pool.Run(workers, l, func(j int) {
		children[j] = p.dccIn(p.alive, b.posCore(j), p.layersOf([]int{j}))
	})

	if s == 1 {
		// The root children are the leaves; offer them to the shared
		// top-k in ascending position order.
		for j := 0; j < l; j++ {
			p.offer(b.topk, children[j], p.layersOf([]int{j}))
		}
		return b.topk
	}

	var lr []int
	var childLQ uint64
	for j := 0; j < l; j++ {
		if children[j].Empty() && !p.opts.NoEq1Pruning {
			p.stats.pruned.Add(1) // empty-subtree cut (see gen)
			if !p.opts.NoLayerPruning {
				childLQ |= 1 << uint(j) // Lemma 4 exclusion
			}
		} else {
			lr = append(lr, j)
		}
	}
	if len(lr) == 0 {
		return b.topk
	}

	snapshot := b.topk
	locals := make([][]*coverage.Entry, len(lr))
	pool.Run(workers, len(lr), func(i int) {
		j := lr[i]
		local := snapshot.Clone()
		sub := &buSearch{prep: p, topk: local}
		sub.gen([]int{j}, children[j], childLQ)
		locals[i] = local.Entries()
	})

	return mergeLocals(g.N(), p.opts.K, snapshot, locals)
}

// gen is the BU-Gen procedure (Fig 3). L is the current node's position
// set (ascending), cL its d-CC (the root has L = ∅ and C_∅ = V), and lq
// the bitmask of positions excluded by Lemma 4 while generating the
// ancestors of this node.
func (b *buSearch) gen(L []int, cL *bitset.Set, lq uint64) {
	p := b.prep
	g, s := p.g, p.opts.S
	l := g.L()
	if !p.admitNode() {
		return
	}

	maxL := -1
	if len(L) > 0 {
		maxL = L[len(L)-1]
	}
	// Line 1: LP = {j | max(L) < j ≤ l} − LQ.
	var lp []int
	for j := maxL + 1; j < l; j++ {
		if lq&(1<<uint(j)) == 0 {
			lp = append(lp, j)
		}
	}

	// expand returns the d-CC of the child at position j and its original
	// layers; a memo miss peels it from the Lemma 1 scope cL ∩ C^d(G_j).
	expand := func(j int) (*bitset.Set, []int) {
		layers := p.layersOf(append(append(make([]int, 0, len(L)+1), L...), j))
		return p.dccIn(cL, b.posCore(j), layers), layers
	}

	// A child is a position of LP; lr, the paper's LR, keeps the children
	// to recurse into, each with its d-CC.
	type child struct {
		pos   int
		bound int // Lemma 1 upper bound |C_L ∩ C^d(G_pos)|, when R is full
		cc    *bitset.Set
	}
	var lr []child

	// Empty-subtree cut (beyond the paper's pseudocode, justified by
	// Property 3): every descendant d-CC is a subset of the current one,
	// so an empty child spans a subtree of empty candidates that can
	// never increase coverage. Without this cut, a graph whose candidates
	// are all empty at large s degenerates Eq. (1) (|Cov(R)| = 0 admits
	// everything) and the search walks the full 2^l tree.
	if b.topk.Len() < b.topk.K() {
		// Lines 2–9: R not yet full — generate every child; size-s
		// children update R, the rest are queued for recursion.
		for _, j := range lp {
			c, layers := expand(j)
			if len(L)+1 == s {
				p.offer(b.topk, c, layers)
			} else if c.Empty() && !p.opts.NoEq1Pruning {
				p.stats.pruned.Add(1)
			} else {
				lr = append(lr, child{pos: j, cc: c})
			}
		}
	} else {
		// Lines 10–22: R is full — process children in descending order
		// of the Lemma 1 upper bound |C_L ∩ C^d(G_j)|.
		order := make([]child, len(lp))
		for i, j := range lp {
			order[i] = child{pos: j, bound: cL.CountAnd(b.posCore(j))}
		}
		if !p.opts.NoOrderPruning {
			slices.SortStableFunc(order, func(a, bb child) int {
				return cmp.Compare(bb.bound, a.bound)
			})
		}
		for rank, ch := range order {
			if !p.opts.NoOrderPruning && !b.topk.MeetsSizeBound(ch.bound) {
				// Lemma 3: no candidate below this bound — and, by the
				// sort order, none after it — can satisfy Eq. (1).
				p.stats.pruned.Add(int64(len(order) - rank))
				break
			}
			c, layers := expand(ch.pos)
			if len(L)+1 == s {
				p.offer(b.topk, c, layers)
			} else if c.Empty() && !p.opts.NoEq1Pruning {
				p.stats.pruned.Add(1) // empty-subtree cut, see above
			} else if p.opts.NoEq1Pruning || b.topk.SatisfiesEq1(c) {
				ch.cc = c
				lr = append(lr, ch)
			} else {
				// Lemma 2: no descendant of this child can satisfy
				// Eq. (1); prune the subtree rooted at it.
				p.stats.pruned.Add(1)
			}
		}
	}

	// Lines 23–26: recurse into surviving children. By Lemma 4 the
	// positions examined here but not in LR are excluded from every
	// descendant's expansion.
	if len(L)+1 < s {
		childLQ := lq
		if !p.opts.NoLayerPruning {
			for _, j := range lp {
				childLQ |= 1 << uint(j)
			}
			for _, ch := range lr {
				childLQ &^= 1 << uint(ch.pos)
			}
		}
		// Recurse in ascending position order for determinism.
		slices.SortFunc(lr, func(a, bb child) int { return cmp.Compare(a.pos, bb.pos) })
		for _, ch := range lr {
			b.gen(append(append(make([]int, 0, len(L)+1), L...), ch.pos), ch.cc, childLQ)
		}
	}
}
