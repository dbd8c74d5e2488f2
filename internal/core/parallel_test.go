package core

import (
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/bitset"
	"repro/internal/coverage"
	"repro/internal/testutil"
)

// sameResult compares everything deterministic about two results: the
// cores, the coverage, and every effort counter except the wall clock.
func sameResult(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if !reflect.DeepEqual(a.Cores, b.Cores) {
		t.Errorf("%s: cores differ:\n  a=%v\n  b=%v", label, a.Cores, b.Cores)
	}
	if a.CoverSize != b.CoverSize {
		t.Errorf("%s: CoverSize %d != %d", label, a.CoverSize, b.CoverSize)
	}
	as, bs := a.Stats, b.Stats
	as.Elapsed, bs.Elapsed = 0, 0
	if as != bs {
		t.Errorf("%s: stats differ:\n  a=%+v\n  b=%+v", label, as, bs)
	}
}

// TestGreedyParallelByteIdentical asserts the tentpole determinism
// claim: greedy candidate materialization sharded over any worker count
// — including the zero-value auto mode — produces byte-identical output,
// effort counters included.
func TestGreedyParallelByteIdentical(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := testutil.RandomCorrelatedGraph(rng, 30+rng.Intn(30), 4+rng.Intn(4), 0.3, 0.85, 0.08)
		for _, s := range []int{1, 2, 3} {
			if s > g.L() {
				continue
			}
			base := Options{D: 1 + rng.Intn(2), S: s, K: 3, Seed: seed, Workers: 1}
			serial, err := GreedyDCCS(g, base)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{0, 2, 3, 7} {
				opts := base
				opts.Workers = workers
				par, err := GreedyDCCS(g, opts)
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, "greedy workers="+strconv.Itoa(workers), serial, par)
			}
		}
	}
}

// TestSearchZeroValueMatchesSerial asserts that the zero-value Options
// (Workers: 0) reproduces the Workers: 1 serial path exactly for the
// Seed-sensitive search algorithms: auto mode only parallelizes the
// stages whose output is provably identical.
func TestSearchZeroValueMatchesSerial(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := testutil.RandomCorrelatedGraph(rng, 25+rng.Intn(30), 4+rng.Intn(3), 0.3, 0.85, 0.08)
		d := 1 + rng.Intn(2)
		for _, s := range []int{2, g.L() - 1} {
			for _, algo := range []struct {
				name string
				run  func(opts Options) (*Result, error)
			}{
				{"bu", func(o Options) (*Result, error) { return BottomUpDCCS(g, o) }},
				{"td", func(o Options) (*Result, error) { return TopDownDCCS(g, o) }},
			} {
				serial, err := algo.run(Options{D: d, S: s, K: 3, Seed: seed, Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				auto, err := algo.run(Options{D: d, S: s, K: 3, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, algo.name+" zero-value", serial, auto)
			}
		}
	}
}

// TestParallelSearchValidAndBounded asserts the parallel fan-out
// contract: Workers > 1 BU/TD results validate (every core is the exact
// d-CC of a distinct size-s layer set and CoverSize matches), cover at
// least a quarter of the serial greedy coverage (both carry constant-
// factor guarantees against the same optimum, 1/4 for the searches and
// 1 − 1/e ≤ 1 for greedy), and are identical across worker counts (the
// fan-out gives every subtree its own top-k, so N only changes the
// schedule).
func TestParallelSearchValidAndBounded(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := testutil.RandomCorrelatedGraph(rng, 25+rng.Intn(35), 4+rng.Intn(4), 0.3, 0.85, 0.08)
		d := 1 + rng.Intn(2)
		for _, s := range []int{2, g.L() / 2, g.L() - 1} {
			if s < 1 {
				continue
			}
			opts := Options{D: d, S: s, K: 3, Seed: seed}
			greedy, err := GreedyDCCS(g, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, algo := range []struct {
				name string
				run  func(opts Options) (*Result, error)
			}{
				{"bu", func(o Options) (*Result, error) { return BottomUpDCCS(g, o) }},
				{"td", func(o Options) (*Result, error) { return TopDownDCCS(g, o) }},
			} {
				o2 := opts
				o2.Workers = 2
				res2, err := algo.run(o2)
				if err != nil {
					t.Fatal(err)
				}
				if err := ValidateResult(g, opts, res2); err != nil {
					t.Errorf("%s workers=2 seed=%d s=%d: invalid result: %v", algo.name, seed, s, err)
				}
				if 4*res2.CoverSize < greedy.CoverSize {
					t.Errorf("%s workers=2 seed=%d s=%d: cover %d below greedy bound %d/4",
						algo.name, seed, s, res2.CoverSize, greedy.CoverSize)
				}
				o4 := opts
				o4.Workers = 4
				res4, err := algo.run(o4)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(res2.Cores, res4.Cores) || res2.CoverSize != res4.CoverSize {
					t.Errorf("%s seed=%d s=%d: workers=2 and workers=4 disagree: %d vs %d covered",
						algo.name, seed, s, res2.CoverSize, res4.CoverSize)
				}
			}
		}
	}
}

// TestParallelSearchNotWorseThanInit asserts the merge argument's
// monotonicity anchor on a case where serial and parallel explore very
// different schedules: the merged top-k must never cover less than any
// single candidate core (the greedy merge picks the largest entry
// first).
func TestParallelSearchNotWorseThanInit(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := testutil.RandomCorrelatedGraph(rng, 60, 6, 0.3, 0.85, 0.08)
	opts := Options{D: 2, S: 2, K: 4, Seed: 42, Workers: 3}
	res, err := BottomUpDCCS(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Cores {
		if res.CoverSize < len(c.Vertices) {
			t.Fatalf("CoverSize %d below member size %d", res.CoverSize, len(c.Vertices))
		}
	}
}

// TestMergeTopK exercises the barrier merge directly: deduplication by
// layer set, the greedy selection order, and the Rule 2 refinement pass.
func TestMergeTopK(t *testing.T) {
	e := func(layers []int, vs ...int32) *coverage.Entry {
		set := bitset.New(10)
		for _, v := range vs {
			set.Add(int(v))
		}
		return &coverage.Entry{Layers: layers, Vertices: vs, Set: set}
	}
	a := e([]int{0}, 0, 1, 2, 3)
	b := e([]int{1}, 4, 5)
	dup := e([]int{0}, 0, 1, 2, 3)
	c := e([]int{2}, 0, 1)

	merged := mergeTopK(10, 2, []*coverage.Entry{a, c}, []*coverage.Entry{dup, b})
	if merged.CoverSize() != 6 {
		t.Fatalf("merged cover = %d, want 6 (a ∪ b)", merged.CoverSize())
	}
	entries := merged.Entries()
	if len(entries) != 2 {
		t.Fatalf("merged holds %d entries, want 2", len(entries))
	}
	seen := map[int]bool{}
	for _, got := range entries {
		seen[got.Layers[0]] = true
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("merged kept wrong entries: %v", entries)
	}

	// One group, fewer entries than k: everything is kept.
	small := mergeTopK(10, 5, []*coverage.Entry{a, b})
	if small.CoverSize() != 6 || len(small.Entries()) != 2 {
		t.Fatalf("small merge: cover=%d entries=%d", small.CoverSize(), len(small.Entries()))
	}
}
