package core

import (
	"context"
	"time"

	"repro/internal/bitset"
	"repro/internal/multilayer"
	"repro/internal/pool"
)

// candidate is one materialized size-s d-CC.
type candidate struct {
	layers   []int
	vertices []int32
}

// GreedyDCCS implements the GD-DCCS algorithm (Fig 2) through a
// throwaway Prepared handle. Long-lived callers should hold a Prepared
// (or the public dccs.Engine) and use its Greedy method, which amortizes
// preprocessing across queries.
func GreedyDCCS(g *multilayer.Graph, opts Options) (*Result, error) {
	return NewPrepared(g, opts.MaterializeWorkers()).Greedy(context.Background(), opts)
}

// Greedy runs the GD-DCCS algorithm (Fig 2): it computes the d-CC for
// every layer subset of size s — using the Lemma 1 intersection bound to
// shrink each dCC computation to the intersection of the per-layer
// d-cores — and then greedily picks the k candidates with maximum
// marginal coverage. Approximation ratio 1 − 1/e (Theorem 2).
//
// Of the §IV-C preprocessing methods only vertex deletion applies to the
// greedy algorithm: its two phases are separate, so layer sorting cannot
// steer the enumeration and InitTopK would conflict with the greedy
// selection. It honours Options.NoVertexDeletion for the ablation.
//
// Candidate materialization is sharded across Options.Workers (the layer
// subsets are independent, so the parallel run yields byte-identical
// output); the greedy selection is a cheap sequential scan. Cancelling
// ctx stops the enumeration and the selection at the next step, and the
// result reflects the candidates materialized so far, with
// Stats.Truncated and Stats.Interrupted set.
func (pr *Prepared) Greedy(ctx context.Context, opts Options) (*Result, error) {
	if err := opts.Validate(pr.g); err != nil {
		return nil, err
	}
	start := time.Now()
	p := pr.newPrep(ctx, opts, false)
	defer p.release()

	// Phase 1 (lines 2–7): generate all candidate d-CCs.
	all := p.materialize()

	// Phase 2 (lines 8–10): greedy max-k-cover over the candidates.
	covered := bitset.New(p.g.N())
	used := make([]bool, len(all))
	res := &Result{}
	for pick := 0; pick < opts.K && pick < len(all); pick++ {
		if p.interrupted() {
			break
		}
		best, bestGain := -1, -1
		for i, c := range all {
			if used[i] {
				continue
			}
			gain := 0
			for _, v := range c.vertices {
				if !covered.Contains(int(v)) {
					gain++
				}
			}
			if gain > bestGain {
				best, bestGain = i, gain
			}
		}
		used[best] = true
		p.stats.updates.Add(1)
		for _, v := range all[best].vertices {
			covered.Add(int(v))
		}
		res.Cores = append(res.Cores, CC{Layers: all[best].layers, Vertices: p.original(all[best].vertices)})
		p.notify(all[best].vertices, all[best].layers)
	}
	res.CoverSize = covered.Count()
	res.Stats = p.stats.snapshot()
	res.Stats.Algorithm = AlgoNameGreedy
	res.Stats.Elapsed = time.Since(start)
	return res, nil
}

// materialize computes the d-CC of every size-s layer subset, in the
// canonical lexicographic enumeration order the greedy selection
// tie-breaks on. With more than one worker the enumeration tree is
// sharded at the prefix level: each prefix subtree is an independent
// task, task outputs are concatenated in prefix order, and the result —
// including the tie-breaking order — is byte-identical to the serial
// run's.
func (p *prep) materialize() []candidate {
	l, s := p.g.L(), p.opts.S
	workers := p.opts.MaterializeWorkers()
	if workers <= 1 {
		var all []candidate
		p.enumerate(make([]int, s), 0, 0, nil, &all)
		return all
	}

	// Prefix depth 2 (depth s when s < 2) keeps tasks plentiful enough
	// to balance skewed subtree sizes: the first branch of the
	// enumeration owns far more subsets than the last.
	depth := 2
	if depth > s {
		depth = s
	}
	var prefixes [][]int
	var collect func(prefix []int, next int)
	collect = func(prefix []int, next int) {
		if len(prefix) == depth {
			prefixes = append(prefixes, append([]int(nil), prefix...))
			return
		}
		for i := next; i <= l-(s-len(prefix)); i++ {
			collect(append(prefix, i), i+1)
		}
	}
	collect(make([]int, 0, depth), 0)

	shards := make([][]candidate, len(prefixes))
	pool.Run(workers, len(prefixes), func(task int) {
		prefix := prefixes[task]
		inter := p.cores[prefix[0]].Clone()
		for _, i := range prefix[1:] {
			inter.And(p.cores[i])
		}
		comb := make([]int, s)
		copy(comb, prefix)
		next := prefix[len(prefix)-1] + 1
		p.enumerate(comb, depth, next, inter, &shards[task])
	})

	total := 0
	for _, shard := range shards {
		total += len(shard)
	}
	all := make([]candidate, 0, total)
	for _, shard := range shards {
		all = append(all, shard...)
	}
	return all
}

// enumerate extends comb[idx:] with ascending layer ids starting at next
// and emits the d-CC of every completed size-s subset, narrowing the
// Lemma 1 intersection bound one layer at a time. inter is the
// intersection of the d-cores of comb[:idx] (nil when idx == 0).
func (p *prep) enumerate(comb []int, idx, next int, inter *bitset.Set, out *[]candidate) {
	g, s := p.g, p.opts.S
	if p.interrupted() {
		return
	}
	if idx == s {
		p.stats.treeNodes.Add(1)
		layers := make([]int, s)
		copy(layers, comb)
		cc := p.dcc(inter, layers)
		p.stats.candidates.Add(1)
		*out = append(*out, candidate{layers: layers, vertices: cc.Slice32()})
		return
	}
	for i := next; i <= g.L()-(s-idx); i++ {
		comb[idx] = i
		var narrowed *bitset.Set
		if idx == 0 {
			narrowed = p.cores[i].Clone()
		} else {
			narrowed = inter.Intersection(p.cores[i])
		}
		p.enumerate(comb, idx+1, i+1, narrowed, out)
	}
}
