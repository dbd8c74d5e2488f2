package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/multilayer"
	"repro/internal/testutil"
)

// sweepCtx is a context whose Err reports cancellation from its n-th
// call on; calls counts every Err call made so far.
type sweepCtx struct {
	context.Context
	n     int64
	calls atomic.Int64
}

func (c *sweepCtx) Err() error {
	if c.calls.Add(1) >= c.n {
		return context.Canceled
	}
	return nil
}

// arcs returns a graph on the n-cycle with chords {v, v+2}, where layer
// i keeps only the edges inside the arc of span vertices that starts at
// vertex 97·i. Every layer subset has its own large 2-CC, the
// intersection of its arcs, so a top-down search refines children whose
// floods pass refineC's 4,096-step poll stride.
func arcs(n, layers, span int) *multilayer.Graph {
	b := multilayer.NewBuilder(n, layers)
	for layer := 0; layer < layers; layer++ {
		first := 97 * layer
		for v := first; v < first+span; v++ {
			for _, step := range []int{1, 2} {
				if v+step < first+span {
					b.MustAddEdge(layer, v%n, (v+step)%n)
				}
			}
		}
	}
	return b.Build()
}

// TestCancelAtEveryPollPoint cancels BU, TD, GD and Exact at every poll
// point of internal/core. On three small fixtures and a 5,000-vertex
// one whose refineC floods reach their strided poll (arcs), at Workers
// 1 and, for BU, TD and GD, at Workers 2, each run on a fresh Prepared
// of those workers, the context reports cancellation from its N-th Err
// call on, for N from 1 to one past the calls an uncancelled run makes
// (at Workers 2 the count depends on scheduling: the most of five
// passes). At every N:
//
//   - the result passes ValidateResult, so every returned core is the
//     exact d-CC of its layers;
//   - Truncated and Interrupted agree, and are set exactly when N is at
//     most the uncancelled call count at Workers 1, and never once N
//     exceeds it;
//   - the same Prepared then answers the query uncancelled with the
//     cores, cover and Stats (less Elapsed) of a fresh Prepared, so no
//     memo entry, pooled space or refine scratch leaks out of the
//     cancelled run.
func TestCancelAtEveryPollPoint(t *testing.T) {
	algos := []struct {
		name string
		run  func(*Prepared, context.Context, Options) (*Result, error)
	}{
		{"bu", (*Prepared).BottomUp},
		{"td", (*Prepared).TopDown},
		{"gd", (*Prepared).Greedy},
		{"exact", (*Prepared).Exact},
	}
	fixtures := []struct {
		g *multilayer.Graph
		o Options
	}{
		{testutil.RandomCorrelatedGraph(rand.New(rand.NewSource(1)), 24, 4, 0.3, 0.85, 0.05), Options{D: 2, S: 2, K: 3, Seed: 1}},
		{testutil.RandomCorrelatedGraph(rand.New(rand.NewSource(2)), 30, 5, 0.25, 0.85, 0.05), Options{D: 2, S: 3, K: 2, Seed: 2}},
		{testutil.RandomCorrelatedGraph(rand.New(rand.NewSource(3)), 20, 6, 0.4, 0.8, 0.1), Options{D: 3, S: 4, K: 3, Seed: 3}},
		{arcs(5000, 6, 4700), Options{D: 2, S: 4, K: 3, Seed: 4, NoInitResult: true}},
	}
	for fi, fx := range fixtures {
		for _, a := range algos {
			for _, workers := range []int{1, 2} {
				if workers > 1 && a.name == "exact" {
					continue
				}
				o := fx.o
				o.Workers = workers
				name := fmt.Sprintf("fixture %d %s workers=%d", fi, a.name, workers)
				passes := 1
				if workers > 1 {
					passes = 5
				}
				var want *Result
				calls := int64(0)
				for range passes {
					full := &sweepCtx{Context: context.Background(), n: math.MaxInt64}
					res, err := a.run(NewPrepared(fx.g, workers), full, o)
					if err != nil {
						t.Fatal(err)
					}
					want, calls = res, max(calls, full.calls.Load())
				}
				if want.Stats.Truncated || len(want.Cores) == 0 {
					t.Fatalf("%s: uncancelled run truncated %v with %d cores; the fixture shows nothing", name, want.Stats.Truncated, len(want.Cores))
				}
				want.Stats.Elapsed = 0
				for n := int64(1); n <= calls+1; n++ {
					pr := NewPrepared(fx.g, workers)
					res, err := a.run(pr, &sweepCtx{Context: context.Background(), n: n}, o)
					if err != nil {
						t.Fatal(err)
					}
					if err := ValidateResult(fx.g, o, res); err != nil {
						t.Fatalf("%s N=%d: %v", name, n, err)
					}
					cut := res.Stats.Truncated
					if res.Stats.Interrupted != cut || (n > calls && cut) || (workers == 1 && cut != (n <= calls)) {
						t.Fatalf("%s N=%d of %d calls: truncated %v, interrupted %v", name, n, calls, cut, res.Stats.Interrupted)
					}
					again, err := a.run(pr, context.Background(), o)
					if err != nil {
						t.Fatal(err)
					}
					again.Stats.Elapsed = 0
					if again.CoverSize != want.CoverSize || !reflect.DeepEqual(again.Cores, want.Cores) || again.Stats != want.Stats {
						t.Fatalf("%s N=%d: after the cancelled run the handle answers\n%+v\nwant\n%+v", name, n, again, want)
					}
				}
				t.Logf("%s: %d Err calls swept", name, calls)
			}
		}
	}
}

// TestPrepareDsCancelAtEveryPollPoint cancels the multi-d pass at every
// poll point. On the fixtures of TestPrepareDsCancellationCachesCompleted
// and TestPrepareDsCancellationParallel, PrepareDs runs every threshold
// 1..maxCoreness+1 through one raised tracker and, separately, the
// single threshold 2, the call a query's first use of d makes, at
// Workers 1 and 2.
// The context reports cancellation from its N-th Err call on, for N from
// 1 to one past the most calls an uncancelled pass made (at Workers 2
// the count depends on scheduling: the most of five passes). At every N,
// on a fresh Prepared:
//
//   - PrepareDs returns nil exactly when every threshold is cached, which
//     at Workers 1 is exactly when N exceeds the uncancelled count;
//   - every cached hierarchy equals a cold build, HierarchyBuilds counts
//     them, and no other slot is done;
//   - the handle's snapshot restores exactly the cached thresholds;
//   - an uncancelled PrepareDs then builds exactly the rest, after which
//     a BU and a TD query answer with the cores, cover and Stats (less
//     Elapsed) of a cold handle.
func TestPrepareDsCancelAtEveryPollPoint(t *testing.T) {
	ctx := context.Background()
	for _, fx := range []struct {
		name string
		seed int64
		n    int
		p    float64
		q    float64
	}{
		{"seed 93", 93, 80, 0.3, 0.1},
		{"seed 95", 95, 300, 0.08, 0.05},
	} {
		g := testutil.RandomCorrelatedGraph(rand.New(rand.NewSource(fx.seed)), fx.n, 4, fx.p, 0.85, fx.q)
		cold := NewPrepared(g, 1)
		maxc := cold.MaxCoreness()
		all := make([]int, 0, maxc+1)
		for d := 1; d <= maxc+1; d++ {
			all = append(all, d)
		}
		queries := []Options{{D: 2, S: 2, K: 3, Seed: 1}, {D: 2, S: 3, K: 3, Seed: 1}}
		want := make([]*Result, len(queries))
		for i, o := range queries {
			run := cold.BottomUp
			if i == 1 {
				run = cold.TopDown
			}
			res, err := run(ctx, o)
			if err != nil {
				t.Fatal(err)
			}
			res.Stats.Elapsed = 0
			want[i] = res
		}
		for _, ds := range [][]int{all, {2}} {
			for _, workers := range []int{1, 2} {
				name := fmt.Sprintf("%s ds=%v workers=%d", fx.name, ds, workers)
				calls := int64(0)
				passes := 1
				if workers > 1 {
					passes = 5
				}
				for range passes {
					full := &sweepCtx{Context: ctx, n: math.MaxInt64}
					if err := NewPrepared(g, workers).PrepareDs(full, ds...); err != nil {
						t.Fatal(err)
					}
					calls = max(calls, full.calls.Load())
				}
				for n := int64(1); n <= calls+1; n++ {
					pr := NewPrepared(g, workers)
					err := pr.PrepareDs(&sweepCtx{Context: ctx, n: n}, ds...)
					cached := doneSlots(pr)
					for d := range cached {
						if !slices.Contains(ds, d) {
							t.Fatalf("%s N=%d: slot d=%d is done, but was not asked for", name, n, d)
						}
						if !sameHierarchy(pr.artifact(d).hier, cold.hierarchyFor(ctx, d)) {
							t.Fatalf("%s N=%d d=%d: cached hierarchy differs from a cold build", name, n, d)
						}
					}
					if (err == nil) != (len(cached) == len(ds)) {
						t.Fatalf("%s N=%d: PrepareDs returned %v with %d of %d thresholds cached", name, n, err, len(cached), len(ds))
					}
					if workers == 1 && (err == nil) != (n > calls) {
						t.Fatalf("%s N=%d of %d calls: PrepareDs returned %v", name, n, calls, err)
					}
					if got := pr.Counters().HierarchyBuilds; got != int64(len(cached)) {
						t.Fatalf("%s N=%d: HierarchyBuilds %d, %d cached", name, n, got, len(cached))
					}
					restored := NewPrepared(g, workers)
					if err := restored.RestoreSnapshot(snapshotBytes(t, pr)); err != nil {
						t.Fatal(err)
					}
					if got := doneSlots(restored); !reflect.DeepEqual(got, cached) {
						t.Fatalf("%s N=%d: the snapshot restored %v, %v cached", name, n, got, cached)
					}
					if err := pr.PrepareDs(ctx, ds...); err != nil {
						t.Fatal(err)
					}
					if got := pr.Counters().HierarchyBuilds; got != int64(len(ds)) {
						t.Fatalf("%s N=%d: HierarchyBuilds %d after the resumed PrepareDs, want %d", name, n, got, len(ds))
					}
					for i, o := range queries {
						run := pr.BottomUp
						if i == 1 {
							run = pr.TopDown
						}
						res, err := run(ctx, o)
						if err != nil {
							t.Fatal(err)
						}
						res.Stats.Elapsed = 0
						if res.CoverSize != want[i].CoverSize || !reflect.DeepEqual(res.Cores, want[i].Cores) || res.Stats != want[i].Stats {
							t.Fatalf("%s N=%d: query %d answers\n%+v\nwant\n%+v", name, n, i, res, want[i])
						}
					}
				}
				t.Logf("%s: %d Err calls swept", name, calls)
			}
		}
	}
}

// doneSlots returns the thresholds whose hierarchies pr has cached.
func doneSlots(pr *Prepared) map[int]bool {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	out := map[int]bool{}
	for d, a := range pr.byD {
		if a.done.Load() {
			out[d] = true
		}
	}
	return out
}
