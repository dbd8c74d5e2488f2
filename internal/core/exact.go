package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/bitset"
	"repro/internal/kcore"
	"repro/internal/multilayer"
)

// ExactLimit bounds the candidate count ExactDCCS accepts; beyond it the
// exponential subset search is hopeless anyway.
const ExactLimit = 64

// ExactDCCS solves the DCCS problem optimally through a throwaway
// Prepared handle; see (*Prepared).Exact.
func ExactDCCS(g *multilayer.Graph, opts Options) (*Result, error) {
	return NewPrepared(g, opts.MaterializeWorkers()).Exact(context.Background(), opts)
}

// Exact solves the DCCS problem optimally by enumerating every candidate
// d-CC and searching all k-subsets with branch-and-bound. The DCCS
// problem is NP-complete, so this is only feasible for small instances —
// it returns an error when the graph has more than ExactLimit distinct
// non-empty candidates. Intended for ground truth in tests, calibration
// and small analyses.
//
// Cancelling ctx stops both the candidate enumeration and the
// branch-and-bound, returning the best solution found so far with
// Stats.Truncated and Stats.Interrupted set — the result is then a valid
// cover but no longer guaranteed optimal.
func (pr *Prepared) Exact(ctx context.Context, opts Options) (*Result, error) {
	if err := opts.Validate(pr.g); err != nil {
		return nil, err
	}
	start := time.Now()
	p := pr.newPrep(ctx, opts, false)
	defer p.release()
	g := p.g

	// Enumerate distinct non-empty candidates (duplicates — different
	// layer subsets with identical d-CCs — contribute identical
	// coverage, so one representative suffices for optimality).
	type cand struct {
		layers []int
		set    *bitset.Set
	}
	var cands []cand
	seen := map[string]bool{}
	comb := make([]int, opts.S)
	var rec func(next, idx int)
	rec = func(next, idx int) {
		if p.interrupted() {
			return
		}
		if idx == opts.S {
			layers := append([]int(nil), comb...)
			cc := p.dcc(p.alive, layers)
			p.stats.candidates.Add(1)
			if cc.Empty() {
				return
			}
			key := fmt.Sprint(cc.Slice32())
			if !seen[key] {
				seen[key] = true
				cands = append(cands, cand{layers: layers, set: cc})
			}
			return
		}
		for i := next; i <= g.L()-(opts.S-idx); i++ {
			comb[idx] = i
			rec(i+1, idx+1)
		}
	}
	rec(0, 0)
	if len(cands) > ExactLimit {
		return nil, fmt.Errorf("dccs: exact solver limited to %d distinct candidates, instance has %d", ExactLimit, len(cands))
	}

	// Largest-first ordering sharpens the branch-and-bound bound.
	sort.Slice(cands, func(a, b int) bool { return cands[a].set.Count() > cands[b].set.Count() })

	best := 0
	var bestPick []int
	cur := bitset.New(g.N())
	pick := make([]int, 0, opts.K)
	var dfs func(next int)
	dfs = func(next int) {
		if p.interrupted() {
			return
		}
		if cur.Count() > best {
			best = cur.Count()
			bestPick = append(bestPick[:0], pick...)
		}
		if len(pick) == opts.K || next == len(cands) {
			return
		}
		// Upper bound: every remaining slot adds at most the largest
		// remaining candidate.
		bound := cur.Count() + (opts.K-len(pick))*cands[next].set.Count()
		if bound <= best {
			return
		}
		for i := next; i < len(cands); i++ {
			added := 0
			cands[i].set.ForEach(func(v int) bool {
				if !cur.Contains(v) {
					added++
				}
				return true
			})
			if added == 0 {
				continue
			}
			snapshot := cur.Clone()
			cur.Or(cands[i].set)
			pick = append(pick, i)
			dfs(i + 1)
			pick = pick[:len(pick)-1]
			cur.CopyFrom(snapshot)
		}
	}
	dfs(0)

	res := &Result{CoverSize: best}
	for _, i := range bestPick {
		res.Cores = append(res.Cores, CC{Layers: cands[i].layers, Vertices: p.original(cands[i].set.Slice32())})
	}
	slices.SortFunc(res.Cores, func(a, b CC) int { return slices.Compare(a.Layers, b.Layers) })
	res.Stats = p.stats.snapshot()
	res.Stats.Algorithm = AlgoNameExact
	res.Stats.Elapsed = time.Since(start)
	return res, nil
}

// ValidateResult checks that a Result is well-formed for the given graph
// and options: every core's layer set has size s with in-range layers,
// layers and vertices are strictly increasing (CC documents both as
// sorted sets), every core is exactly the d-CC of its layer set, no
// layer set repeats, and CoverSize equals the union of the cores. It
// returns nil when the result is consistent.
func ValidateResult(g *multilayer.Graph, opts Options, res *Result) error {
	if res == nil {
		return fmt.Errorf("dccs: nil result")
	}
	if len(res.Cores) > opts.K {
		return fmt.Errorf("dccs: %d cores exceed k=%d", len(res.Cores), opts.K)
	}
	full := bitset.NewFull(g.N())
	cover := bitset.New(g.N())
	seen := map[string]bool{}
	for i, c := range res.Cores {
		if len(c.Layers) != opts.S {
			return fmt.Errorf("dccs: core %d has %d layers, want s=%d", i, len(c.Layers), opts.S)
		}
		for j, layer := range c.Layers {
			if layer < 0 || layer >= g.L() {
				return fmt.Errorf("dccs: core %d references layer %d outside [0,%d)", i, layer, g.L())
			}
			if j > 0 && layer <= c.Layers[j-1] {
				return fmt.Errorf("dccs: core %d layers %v are not strictly increasing", i, c.Layers)
			}
		}
		key := fmt.Sprint(c.Layers)
		if seen[key] {
			return fmt.Errorf("dccs: layer set %v appears twice", c.Layers)
		}
		seen[key] = true
		want := kcore.DCC(g, full, c.Layers, opts.D)
		got := bitset.New(g.N())
		for j, v := range c.Vertices {
			if int(v) < 0 || int(v) >= g.N() {
				return fmt.Errorf("dccs: core %d contains out-of-range vertex %d", i, v)
			}
			if j > 0 && v <= c.Vertices[j-1] {
				return fmt.Errorf("dccs: core %d vertices are not strictly increasing at index %d", i, j)
			}
			got.Add(int(v))
		}
		if !got.Equal(want) {
			return fmt.Errorf("dccs: core %d (layers %v) is not the %d-CC: got %d vertices, want %d",
				i, c.Layers, opts.D, got.Count(), want.Count())
		}
		cover.Or(got)
	}
	if cover.Count() != res.CoverSize {
		return fmt.Errorf("dccs: CoverSize=%d but cores cover %d vertices", res.CoverSize, cover.Count())
	}
	return nil
}
