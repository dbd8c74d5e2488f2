package core

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/bitset"
	"repro/internal/coverage"
	"repro/internal/multilayer"
	"repro/internal/pool"
)

// TopDownDCCS implements the TD-DCCS algorithm (Figs 8 and 11) through a
// throwaway Prepared handle. Long-lived callers should hold a Prepared
// (or the public dccs.Engine) and use its TopDown method, which
// amortizes preprocessing and index construction across queries.
func TopDownDCCS(g *multilayer.Graph, opts Options) (*Result, error) {
	return NewPrepared(g, opts.MaterializeWorkers()).TopDown(context.Background(), opts)
}

// TopDown runs the TD-DCCS algorithm (Figs 8 and 11): the layer-subset
// tree is searched from the full layer set [l] down to level s. Each
// node carries both its d-CC C^d_L and a potential vertex set U^d_L that
// over-approximates every size-s descendant; children are produced by
// RefineU (shrinking U) and RefineC (recovering the exact d-CC over the
// cached removal-hierarchy index), and subtrees are pruned with Lemmas
// 5–7. Approximation ratio 1/4 (Theorem 4). It is the preferred
// algorithm when s ≥ l(G)/2.
//
// The implementation supports l(G) ≤ 64 (layer sets are bitmasks); the
// paper's largest dataset has 24 layers.
//
// Cancelling ctx (or exceeding its deadline) stops the search at the
// next tree-node expansion and returns the valid partial result with
// Stats.Truncated and Stats.Interrupted set.
func (pr *Prepared) TopDown(ctx context.Context, opts Options) (*Result, error) {
	if err := opts.Validate(pr.g); err != nil {
		return nil, err
	}
	if pr.g.L() > 64 {
		return nil, fmt.Errorf("dccs: top-down algorithm supports at most 64 layers, got %d", pr.g.L())
	}
	start := time.Now()
	p := pr.newPrep(ctx, opts, true)
	defer p.release()
	g := p.g
	topk := coverage.New(g.N(), opts.K)
	p.initTopK(topk)
	p.sortLayers(true) // ascending |C^d(G_i)| (§V-D)
	t := newTDSearch(p, topk)

	// Root: C^d_[l] computed by dCC on the whole compact graph.
	full := make([]int, g.L())
	for i := range full {
		full[i] = i
	}
	rootC := p.dcc(p.alive, p.layersOf(full))
	p.stats.treeNodes.Add(1)
	if opts.S == g.L() {
		p.offer(topk, rootC, p.layersOf(full))
	} else if w := opts.searchWorkers(); w > 1 {
		topk = t.genParallel(w, full, rootC)
	} else {
		t.gen(full, rootC, p.alive)
	}

	res := p.finish(topk)
	res.Stats.Algorithm = AlgoNameTD
	res.Stats.Elapsed = time.Since(start)
	return res, nil
}

// tdSearch carries the state of one top-down run, including the scratch
// buffers reused across refineC calls. The parallel engine gives every
// first-level subtree its own tdSearch (scratch buffers and rng are
// single-goroutine state); prep and idx are shared read-only.
type tdSearch struct {
	prep *prep
	topk *coverage.TopK
	idx  *tdIndex
	// Lemma 7 descendant selection draws from rng, seeded from seed on
	// the first draw: most runs never draw, and seeding a source costs
	// more than a small search. Per subtree in parallel runs.
	seed int64
	rng  *rand.Rand

	state         []uint8
	dplus         [][]int32
	scratchCounts []int32
	scratchZ      *bitset.Set
	scratchStack  []int32
	scratchQueue  []int32
}

// newTDSearch returns the state of a serial top-down run over p, its
// refine scratch backed by the query's arena.
func newTDSearch(p *prep, topk *coverage.TopK) *tdSearch {
	a := p.arena
	return &tdSearch{
		prep:          p,
		topk:          topk,
		idx:           p.idx,
		seed:          p.opts.Seed,
		state:         a.state,
		scratchCounts: a.counts,
		scratchZ:      a.z,
		dplus:         a.dplus,
	}
}

// workerScratch returns a tdSearch shell with fresh scratch buffers for
// one pool worker of a parallel run. The scratch arrays (the expensive
// part: dplus is l×n′) are reused across every subtree the worker
// processes — refineC leaves them reset — while topk and the rng seed,
// which must be deterministic per subtree, are installed per task.
func (t *tdSearch) workerScratch() *tdSearch {
	p := t.prep
	n := p.g.N()
	w := &tdSearch{
		prep:          p,
		idx:           t.idx,
		state:         make([]uint8, n),
		scratchCounts: make([]int32, n),
		scratchZ:      bitset.New(n),
	}
	w.dplus = make([][]int32, p.g.L())
	for i := range w.dplus {
		w.dplus[i] = make([]int32, n)
	}
	return w
}

// genParallel expands the root of the top-down tree and hands each
// first-level subtree to a pool of workers, each running the serial gen
// against a clone of the current top-k; it returns the merged result
// set. Root-level Lemma 5/6 pruning is skipped; the empty-potential cut
// is kept. See the bottom-up genParallel for the determinism argument.
func (t *tdSearch) genParallel(workers int, L []int, cL *bitset.Set) *coverage.TopK {
	p := t.prep
	l, s := p.g.L(), p.opts.S
	if !p.admitNode() {
		return t.topk
	}
	lr := removablePos(L, l)
	if len(lr) < len(L)-s {
		return t.topk
	}

	snapshot := t.topk
	locals := make([][]*coverage.Entry, len(lr))
	if workers > len(lr) {
		workers = len(lr)
	}
	scratch := make([]*tdSearch, workers)
	pool.RunIndexed(workers, len(lr), func(worker, i int) {
		sub := scratch[worker]
		if sub == nil {
			sub = t.workerScratch()
			scratch[worker] = sub
		}
		j := lr[i]
		// Per-task state: the subtree's outcome must depend only on its
		// index, never on the worker that happens to run it.
		sub.topk = snapshot.Clone()
		sub.seed, sub.rng = int64(uint64(p.opts.Seed)+uint64(i+1)*0x9E3779B97F4A7C15), nil
		lchild := removePos(L, j)
		childU := sub.childU(p.alive, lchild)
		switch {
		case len(lchild) == s:
			p.offer(sub.topk, sub.childCC(childU, lchild), p.layersOf(lchild))
		case childU.Empty() && !p.opts.NoEq1Pruning:
			p.stats.pruned.Add(1) // empty-subtree cut (see gen)
		default:
			cc := sub.childCC(childU, lchild)
			sub.gen(lchild, cc, childU)
		}
		locals[i] = sub.topk.Entries()
	})

	return mergeLocals(p.g.N(), p.opts.K, snapshot, locals)
}

// gen is the TD-Gen procedure (Fig 8). L (ascending positions, |L| > s)
// is the current node with d-CC cL and potential set uL.
//
// Two printed-pseudocode fixes are applied (see DESIGN.md): the recursive
// calls pass the child's layer set L′ (the figure writes L), and the
// Lemma 5 subtree pruning tests Eq. (1) on the potential set U^d_{L′} as
// the text and the lemma require (the figure tests C^d_{L′}, which would
// discard subtrees whose descendants — supersets of C^d_{L′} — could
// still qualify).
func (t *tdSearch) gen(L []int, cL, uL *bitset.Set) {
	p := t.prep
	l := p.g.L()
	s := p.opts.S
	if !p.admitNode() {
		return
	}

	lr := removablePos(L, l)
	// A node needs |L|−s removable positions for any size-s descendant
	// to exist below it; dead branches of the enumeration tree are cut.
	if len(lr) < len(L)-s {
		return
	}

	// Compute the children's potential sets (the sort key of the pruned
	// branch); the exact child d-CCs are recovered lazily.
	childU := make(map[int]*bitset.Set, len(lr))
	for _, j := range lr {
		childU[j] = t.childU(uL, removePos(L, j))
	}

	if t.topk.Len() < t.topk.K() {
		for _, j := range lr {
			lchild := removePos(L, j)
			if len(lchild) == s {
				p.offer(t.topk, t.childCC(childU[j], lchild), p.layersOf(lchild))
			} else if childU[j].Empty() && !p.opts.NoEq1Pruning {
				// Empty-subtree cut: U over-approximates every size-s
				// descendant, so an empty potential set spans a subtree
				// of empty candidates (see the matching cut in BU-Gen).
				p.stats.pruned.Add(1)
			} else {
				cc := t.childCC(childU[j], lchild)
				t.gen(lchild, cc, childU[j])
			}
		}
		return
	}

	sorted := append([]int(nil), lr...)
	if !p.opts.NoOrderPruning {
		slices.SortStableFunc(sorted, func(a, b int) int {
			return cmp.Compare(childU[b].Count(), childU[a].Count())
		})
	}
	for rank, j := range sorted {
		if !p.opts.NoOrderPruning && !t.topk.MeetsSizeBound(childU[j].Count()) {
			// Lemma 6: |U| is an upper bound on every descendant d-CC;
			// below the Eq. (1) size bound neither this child nor — by
			// the sort order — any later one can contribute.
			p.stats.pruned.Add(int64(len(sorted) - rank))
			break
		}
		lchild := removePos(L, j)
		if len(lchild) == s {
			p.offer(t.topk, t.childCC(childU[j], lchild), p.layersOf(lchild))
			continue
		}
		if childU[j].Empty() && !p.opts.NoEq1Pruning {
			p.stats.pruned.Add(1) // empty-subtree cut, see the |R| < k branch
			continue
		}
		// Lemma 5: if even the potential set cannot satisfy Eq. (1), no
		// size-s descendant can; prune the subtree.
		if !p.opts.NoEq1Pruning && !t.topk.SatisfiesEq1(childU[j]) {
			p.stats.pruned.Add(1)
			continue
		}
		cc := t.childCC(childU[j], lchild)
		if cc == nil {
			return // refineC cut short by cancellation
		}
		// Lemma 7: when the child's own d-CC already satisfies Eq. (1)
		// — so every size-s descendant (a superset) does too — and the
		// potential set is small enough (Eq. (2)), a single random
		// descendant absorbs all the value the subtree can offer.
		if !p.opts.NoPotentialPruning &&
			t.topk.SatisfiesEq1(cc) && t.topk.SatisfiesEq2(childU[j].Count()) {
			if sub := t.randomDescendant(lchild); sub != nil {
				layers := p.layersOf(sub)
				p.offer(t.topk, p.dcc(childU[j], layers), layers)
				p.stats.pruned.Add(1)
				continue
			}
		}
		t.gen(lchild, cc, childU[j])
	}
}

// randomDescendant picks a uniformly random size-s descendant of lpos in
// the top-down tree, i.e. removes |lpos|−s positions randomly chosen from
// the removable set. It returns nil when the subtree has no size-s
// descendant.
func (t *tdSearch) randomDescendant(lpos []int) []int {
	s := t.prep.opts.S
	rem := removablePos(lpos, t.prep.g.L())
	drop := len(lpos) - s
	if len(rem) < drop {
		return nil
	}
	if t.rng == nil {
		t.rng = rand.New(rand.NewSource(t.seed))
	}
	perm := t.rng.Perm(len(rem))[:drop]
	dropSet := make(map[int]bool, drop)
	for _, i := range perm {
		dropSet[rem[i]] = true
	}
	out := make([]int, 0, s)
	for _, pos := range lpos {
		if !dropSet[pos] {
			out = append(out, pos)
		}
	}
	return out
}

// removePos returns lpos without position j (lpos stays sorted).
func removePos(lpos []int, j int) []int {
	out := make([]int, 0, len(lpos)-1)
	for _, p := range lpos {
		if p != j {
			out = append(out, p)
		}
	}
	return out
}
