package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
	"repro/internal/coverage"
	"repro/internal/kcore"
	"repro/internal/multilayer"
	"repro/internal/testutil"
)

func TestMaxMissingPos(t *testing.T) {
	cases := []struct {
		lpos []int
		l    int
		want int
	}{
		{[]int{0, 1, 2, 3}, 4, -1}, // full set
		{[]int{0, 1, 3}, 4, 2},     // missing 2
		{[]int{1, 2, 3}, 4, 0},     // missing 0
		{[]int{0, 3}, 4, 2},        // missing 1,2
		{[]int{3}, 4, 2},           //
		{[]int{0, 1}, 4, 3},        // missing 2,3
		{[]int{}, 4, 3},            // empty
	}
	for _, c := range cases {
		if got := maxMissingPos(c.lpos, c.l); got != c.want {
			t.Errorf("maxMissingPos(%v, %d) = %d, want %d", c.lpos, c.l, got, c.want)
		}
	}
}

func TestRemovablePos(t *testing.T) {
	got := removablePos([]int{0, 1, 3}, 4) // maxMissing = 2
	if len(got) != 1 || got[0] != 3 {
		t.Fatalf("removablePos = %v, want [3]", got)
	}
	got = removablePos([]int{0, 1, 2, 3}, 4) // root: all removable
	if len(got) != 4 {
		t.Fatalf("removablePos(full) = %v", got)
	}
	got = removablePos([]int{0, 1}, 4) // maxMissing = 3: nothing removable
	if len(got) != 0 {
		t.Fatalf("removablePos = %v, want []", got)
	}
}

func TestRemovePos(t *testing.T) {
	got := removePos([]int{0, 2, 5}, 2)
	if len(got) != 2 || got[0] != 0 || got[1] != 5 {
		t.Fatalf("removePos = %v", got)
	}
}

// newTDSearchForTest builds a tdSearch over a preprocessed graph, exactly
// as (*Prepared).TopDown does, exposing refineU/refineC for direct
// testing. The search runs on the compact survivor subgraph p.g.
func newTDSearchForTest(g *multilayer.Graph, opts Options) *tdSearch {
	p := preprocess(g, opts)
	p.sortLayers(true)
	return newTDSearch(p, coverage.New(p.g.N(), opts.K))
}

// survivorSet returns p's vertex-deletion survivors as a set over the
// original graph's ids.
func survivorSet(g *multilayer.Graph, p *prep) *bitset.Set {
	s := bitset.New(g.N())
	for _, v := range p.verts {
		s.Add(int(v))
	}
	return s
}

// toCompact maps a set of survivors, in original ids, to p's compact ids.
func toCompact(p *prep, s *bitset.Set) *bitset.Set {
	out := bitset.New(p.g.N())
	s.ForEach(func(v int) bool {
		c, ok := slices.BinarySearch(p.verts, int32(v))
		if !ok {
			panic(fmt.Sprintf("vertex %d is not a survivor", v))
		}
		out.Add(c)
		return true
	})
	return out
}

// toOriginal maps a set over p's compact ids back to original ids.
func toOriginal(g *multilayer.Graph, p *prep, s *bitset.Set) *bitset.Set {
	out := bitset.New(g.N())
	s.ForEach(func(c int) bool {
		out.Add(int(p.verts[c]))
		return true
	})
	return out
}

// TestRefineCExact verifies RefineC(U, L′) == dCC(G[U], L′) — which equals
// C^d_{L′}(G) whenever C^d_{L′}(G) ⊆ U, the search invariant — on
// randomized graphs, layer subsets, and supersets U. refineC runs on the
// compact space; the truth is computed on the original graph and mapped
// into it. The flood walks union rows of the compact graph, which drop
// survivor edges outside the reduced cores; the test counts the Lemma 8
// scope vertices whose row lost such an edge, so the instances are known
// to exercise the difference.
func TestRefineCExact(t *testing.T) {
	shorter := 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := testutil.RandomCorrelatedGraph(rng, 8+rng.Intn(30), 2+rng.Intn(5), 0.3, 0.85, 0.08)
		d := 1 + rng.Intn(3)
		s := 1 + rng.Intn(g.L())
		opts := Options{D: d, S: s, K: 2, Seed: seed, NoVertexDeletion: rng.Intn(2) == 0}
		ts := newTDSearchForTest(g, opts)
		p := ts.prep
		alive := survivorSet(g, p)

		for trial := 0; trial < 4; trial++ {
			size := s + rng.Intn(g.L()-s+1)
			lpos := testutil.RandomLayerSubset(rng, g.L(), size)
			layers := p.layersOf(lpos)
			// True d-CC on the preprocessed original graph.
			truth := toCompact(p, kcore.DCC(g, alive, layers, d))
			// U must contain the d-CC; pad with random alive vertices.
			u := truth.Clone()
			p.alive.ForEach(func(v int) bool {
				if rng.Float64() < 0.4 {
					u.Add(v)
				}
				return true
			})
			got := ts.refineC(u, lpos)
			if !got.Equal(truth) {
				t.Logf("seed=%d d=%d s=%d lpos=%v |U|=%d: refineC=%d truth=%d",
					seed, d, s, lpos, u.Count(), got.Count(), truth.Count())
				return false
			}
			u.ForEach(func(c int) bool {
				if ts.idx.h[c] < int32(len(lpos)) {
					return true // outside the Lemma 8 scope
				}
				survivorRow := 0
				for _, w := range g.UnionNeighbors(int(p.verts[c])) {
					if _, ok := slices.BinarySearch(p.verts, w); ok {
						survivorRow++
					}
				}
				if len(ts.idx.unionAdj[c]) < survivorRow {
					shorter++
				}
				return true
			})
			// Scratch state must be clean for the next call.
			for v := 0; v < p.g.N(); v++ {
				if ts.state[v] != stUnexplored {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
	if shorter == 0 {
		t.Fatal("no scope vertex had a compact union row shorter than its survivor row")
	}
	t.Logf("%d scope vertices had a compact union row shorter than their survivor row", shorter)
}

// TestRefineCSeedThroughHigherLevel is the regression fixture for the
// seed-flood strengthening: on this instance (found by quick.Check seed
// 8649498021724360057) the members {1, 10} of C³_{layer 3} connect to
// their component's only Lemma 9 seed exclusively through higher-level
// vertices, so the paper's upward-only level walk discards them and the
// cascade collapses the whole core to ∅. The level-free flood must
// recover the exact core.
func TestRefineCSeedThroughHigherLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(8649498021724360057))
	g := testutil.RandomCorrelatedGraph(rng, 8+rng.Intn(20), 2+rng.Intn(4), 0.35, 0.85, 0.08)
	d, s := 3, 1
	ts := newTDSearchForTest(g, Options{D: d, S: s, K: 10, Seed: 1, NoInitResult: true})
	p := ts.prep

	pos3 := -1
	for pos, orig := range p.order {
		if orig == 3 {
			pos3 = pos
		}
	}
	truth := kcore.DCC(g, survivorSet(g, p), []int{3}, d)
	if truth.Count() != 7 {
		t.Fatalf("fixture drifted: |C³_{3}| = %d, want 7", truth.Count())
	}
	got := toOriginal(g, p, ts.refineC(p.alive, []int{pos3}))
	if !got.Equal(truth) {
		t.Fatalf("refineC = %v, want %v", got.Slice(), truth.Slice())
	}
}

// TestRefineCMatchesDCCRefine checks the two refinement paths (index
// seed-flood vs plain dCC on the Lemma 8 scope) agree.
func TestRefineCMatchesDCCRefine(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := testutil.RandomCorrelatedGraph(rng, 10+rng.Intn(25), 3+rng.Intn(4), 0.3, 0.85, 0.08)
		d := 1 + rng.Intn(3)
		s := 1 + rng.Intn(g.L())
		a := Options{D: d, S: s, K: 3, Seed: seed}
		b := a
		b.UseDCCRefine = true
		ra, err1 := TopDownDCCS(g, a)
		rb, err2 := TopDownDCCS(g, b)
		if err1 != nil || err2 != nil {
			return false
		}
		if ra.CoverSize != rb.CoverSize || len(ra.Cores) != len(rb.Cores) {
			return false
		}
		for i := range ra.Cores {
			if len(ra.Cores[i].Vertices) != len(rb.Cores[i].Vertices) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestRefineUSound verifies the potential-set invariants: U′ ⊆ U,
// C^d_S ⊆ U′ for every size-s descendant S of L′, and C^d_{L′} ⊆ U′.
// refineU runs on the compact space; the d-CCs are computed on the
// original graph and mapped into it.
func TestRefineUSound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := testutil.RandomCorrelatedGraph(rng, 8+rng.Intn(25), 3+rng.Intn(4), 0.3, 0.85, 0.08)
		d := 1 + rng.Intn(3)
		s := 1 + rng.Intn(g.L()-1)
		opts := Options{D: d, S: s, K: 2, Seed: seed}
		ts := newTDSearchForTest(g, opts)
		p := ts.prep
		alive := survivorSet(g, p)

		// Start from the root potential set (alive) and walk a random
		// chain of the top-down tree, checking invariants at each step.
		lpos := make([]int, g.L())
		for i := range lpos {
			lpos[i] = i
		}
		u := p.alive.Clone()
		for len(lpos) > s {
			rem := removablePos(lpos, g.L())
			if len(rem) == 0 {
				break
			}
			j := rem[rng.Intn(len(rem))]
			lchild := removePos(lpos, j)
			u2 := ts.refineU(u, lchild)
			if !u2.SubsetOf(u) {
				return false
			}
			// C^d_{L′} must be inside U′.
			cc := toCompact(p, kcore.DCC(g, alive, p.layersOf(lchild), d))
			if !cc.SubsetOf(u2) {
				return false
			}
			// Every size-s descendant's d-CC must be inside U′.
			for trial := 0; trial < 3; trial++ {
				sub := randomDescendantOf(rng, lchild, g.L(), s)
				if sub == nil {
					break
				}
				cs := toCompact(p, kcore.DCC(g, alive, p.layersOf(sub), d))
				if !cs.SubsetOf(u2) {
					return false
				}
			}
			lpos, u = lchild, u2
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// randomDescendantOf mirrors tdSearch.randomDescendant for tests.
func randomDescendantOf(rng *rand.Rand, lpos []int, l, s int) []int {
	rem := removablePos(lpos, l)
	drop := len(lpos) - s
	if drop <= 0 || len(rem) < drop {
		return nil
	}
	perm := rng.Perm(len(rem))[:drop]
	dropSet := map[int]bool{}
	for _, i := range perm {
		dropSet[rem[i]] = true
	}
	var out []int
	for _, p := range lpos {
		if !dropSet[p] {
			out = append(out, p)
		}
	}
	return out
}

// TestIndexLemma8 checks the hierarchy invariants behind Lemmas 8 and 9
// for every layer subset L′: C^d_{L′} only contains vertices with
// h(v) ≥ |L′|, and some member of minimum h carries L′ ⊆ L̃(v) =
// {i : coreh_i(v) ≥ h(v)} — the first member removed, whose L(v) ⊆ L̃(v)
// makes it a Lemma 9 seed.
func TestIndexLemma8(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := testutil.RandomCorrelatedGraph(rng, 8+rng.Intn(25), 2+rng.Intn(4), 0.3, 0.85, 0.08)
		d := 1 + rng.Intn(3)
		alive := bitset.NewFull(g.N())
		hr := NewPrepared(g, 1).hierarchyFor(context.Background(), d)

		for mask := 1; mask < 1<<g.L(); mask++ {
			var layers []int
			for i := 0; i < g.L(); i++ {
				if mask&(1<<i) != 0 {
					layers = append(layers, i)
				}
			}
			cc := kcore.DCC(g, alive, layers, d)
			if cc.Empty() {
				continue
			}
			minH := int32(1 << 30)
			cc.ForEach(func(v int) bool {
				minH = min(minH, hr.h[v])
				return true
			})
			ok, seeded := true, false
			cc.ForEach(func(v int) bool {
				if hr.h[v] < int32(len(layers)) {
					ok = false // Lemma 8 violated
					return false
				}
				if hr.h[v] == minH && !seeded {
					seeded = true
					for _, ly := range layers {
						if hr.coreh[ly][v] < hr.h[v] {
							seeded = false // ly ∉ L̃(v)
						}
					}
				}
				return true
			})
			if !ok || !seeded {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
