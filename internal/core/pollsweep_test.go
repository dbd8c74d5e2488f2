package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
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
// one whose refineC floods reach their strided poll (arcs), with
// Workers = 1 and each run on a fresh Prepared, the context reports
// cancellation from its N-th Err call on, for N from 1 to one past the
// calls an uncancelled run makes. At every N:
//
//   - the result passes ValidateResult, so every returned core is the
//     exact d-CC of its layers;
//   - Truncated and Interrupted are set exactly when N is at most the
//     uncancelled call count;
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
		fx.o.Workers = 1
		for _, a := range algos {
			full := &sweepCtx{Context: context.Background(), n: math.MaxInt64}
			want, err := a.run(NewPrepared(fx.g, 1), full, fx.o)
			if err != nil {
				t.Fatal(err)
			}
			calls := full.calls.Load()
			if want.Stats.Truncated || len(want.Cores) == 0 {
				t.Fatalf("fixture %d %s: uncancelled run truncated %v with %d cores; the fixture shows nothing", fi, a.name, want.Stats.Truncated, len(want.Cores))
			}
			want.Stats.Elapsed = 0
			for n := int64(1); n <= calls+1; n++ {
				pr := NewPrepared(fx.g, 1)
				res, err := a.run(pr, &sweepCtx{Context: context.Background(), n: n}, fx.o)
				if err != nil {
					t.Fatal(err)
				}
				if err := ValidateResult(fx.g, fx.o, res); err != nil {
					t.Fatalf("fixture %d %s N=%d: %v", fi, a.name, n, err)
				}
				if cut := n <= calls; res.Stats.Truncated != cut || res.Stats.Interrupted != cut {
					t.Fatalf("fixture %d %s N=%d of %d calls: truncated %v, interrupted %v, want %v", fi, a.name, n, calls, res.Stats.Truncated, res.Stats.Interrupted, cut)
				}
				again, err := a.run(pr, context.Background(), fx.o)
				if err != nil {
					t.Fatal(err)
				}
				again.Stats.Elapsed = 0
				if again.CoverSize != want.CoverSize || !reflect.DeepEqual(again.Cores, want.Cores) || again.Stats != want.Stats {
					t.Fatalf("fixture %d %s N=%d: after the cancelled run the handle answers\n%+v\nwant\n%+v", fi, a.name, n, again, want)
				}
			}
			t.Logf("fixture %d %s: %d Err calls swept", fi, a.name, calls)
		}
	}
}
