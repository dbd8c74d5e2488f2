package dccs

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/testutil"
)

// pollCtx is a context whose Err reports cancellation from its n-th
// call on; calls counts every Err call made so far.
type pollCtx struct {
	context.Context
	n, calls int
}

func (c *pollCtx) Err() error {
	c.calls++
	if c.calls >= c.n {
		return context.Canceled
	}
	return nil
}

// cycles returns a graph whose first layers layers are each the n-cycle
// 0-1-…-(n-1)-0, so every vertex has degree 2 on each of them.
func cycles(n, layers int) *Graph {
	b := NewBuilder(n, layers)
	for layer := 0; layer < layers; layer++ {
		for v := 0; v < n; v++ {
			b.MustAddEdge(layer, v, (v+1)%n)
		}
	}
	return b.Build()
}

// exactCore reports whether the watch's core equals CoherentCore of the
// engine's current graph.
func exactCore(t *testing.T, eng *Engine, w *CoreWatch, layers []int, d int) bool {
	t.Helper()
	want, err := CoherentCore(eng.Graph(), layers, d)
	if err != nil {
		t.Fatal(err)
	}
	return slices.EqualFunc(w.Core(), want, func(a int32, b int) bool { return int(a) == b })
}

// TestClosedWatchIsFrozen pins Close: a closed watch keeps the core and
// the Truncated flag it had at Close, later batches do not move it, and
// Repair does no work and returns !Truncated. Closing twice is fine.
//
// Before, Repair resumed a closed watch's stashed peel with degree
// counters that had missed every later batch, read against the current
// graph: on a 2,000-cycle whose deletion cascade was cut at 1,745
// vertices, Close and a re-insert of the edge, Repair returned true
// with 0 vertices while the graph's 2-core held all 2,000.
func TestClosedWatchIsFrozen(t *testing.T) {
	const n = 2000
	ctx := context.Background()
	eng, err := NewMutableEngine(cycles(n, 1), EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := eng.Watch(ctx, []int{0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	edge := EdgeUpdate{Op: EdgeInsert, Layer: 0, U: 0, V: 1}
	cut := EdgeUpdate{Op: EdgeDelete, Layer: 0, U: 0, V: 1}

	// Cancel after ApplyUpdates' own check: the deletion lands and the
	// watch's cascade stops at its first poll.
	if _, err := eng.ApplyUpdates(&pollCtx{Context: ctx, n: 2}, []EdgeUpdate{cut}); err != nil {
		t.Fatal(err)
	}
	frozen := w.Core()
	if !w.Truncated() || len(frozen) == 0 || len(frozen) == n {
		t.Fatalf("cut cascade: truncated %v with %d of %d vertices, want a truncated partial peel", w.Truncated(), len(frozen), n)
	}
	w.Close()
	w.Close()
	if _, err := eng.ApplyUpdates(ctx, []EdgeUpdate{edge}); err != nil {
		t.Fatal(err)
	}
	if w.Repair(ctx) {
		t.Fatal("Repair on a closed truncated watch reported an exact core")
	}
	if !w.Truncated() || !slices.Equal(w.Core(), frozen) {
		t.Fatalf("closed watch moved: truncated %v, %d vertices, want true and %d", w.Truncated(), len(w.Core()), len(frozen))
	}
	if exactCore(t, eng, w, []int{0}, 2) {
		t.Fatal("the frozen core is the current 2-core; the test no longer separates them")
	}

	// An exact watch, once closed, stays exact-flagged at its old core.
	w2, err := eng.Watch(ctx, []int{0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	before := w2.Core()
	if len(before) != n {
		t.Fatalf("fresh watch over the whole cycle: %d vertices, want %d", len(before), n)
	}
	w2.Close()
	if _, err := eng.ApplyUpdates(ctx, []EdgeUpdate{cut}); err != nil {
		t.Fatal(err)
	}
	if !w2.Repair(ctx) || w2.Truncated() || !slices.Equal(w2.Core(), before) {
		t.Fatal("closed exact watch followed a later batch")
	}
}

// TestWatchCancelledAtEveryPoll cancels one batch's watch maintenance at
// every poll point: the context reports cancellation from its N-th Err
// call on, for N from 1 to one past the calls an uncancelled batch
// makes. Two 2,000-cycles carry watches on {0} and {0, 1}; the batch
// deletes and re-inserts cycle edges, so each cascade and each insertion
// grow passes the 256-step poll stride several times.
//
// At N = 1 ApplyUpdates' own check rejects the batch and nothing lands.
// At every other N the batch lands in full (version 1, graph Equal to a
// shadow build), each watch is exact or Truncated, Repair makes it
// exact, and a following uncancelled batch keeps it exact.
func TestWatchCancelledAtEveryPoll(t *testing.T) {
	const n, d = 2000, 2
	ctx := context.Background()
	watched := [][]int{{0}, {0, 1}}
	batch := []EdgeUpdate{
		{Op: EdgeDelete, Layer: 0, U: 0, V: 1},       // both watches peel everything
		{Op: EdgeInsert, Layer: 0, U: 0, V: 1},       // ...and grow it all back
		{Op: EdgeDelete, Layer: 1, U: 1000, V: 1001}, // {0, 1} peels everything again
		{Op: EdgeInsert, Layer: 1, U: 500, V: 1500},  // {0, 1} grows back a 1,001-cycle
	}
	next := []EdgeUpdate{{Op: EdgeInsert, Layer: 1, U: 1000, V: 1001}}
	shadow := NewBuilder(n, 2)
	for layer := 0; layer < 2; layer++ {
		for v := 0; v < n; v++ {
			if layer == 0 || v != 1000 {
				shadow.MustAddEdge(layer, v, (v+1)%n)
			}
		}
	}
	shadow.MustAddEdge(1, 500, 1500)
	want := shadow.Build()

	setup := func() (*Engine, []*CoreWatch) {
		eng, err := NewMutableEngine(cycles(n, 2), EngineConfig{})
		if err != nil {
			t.Fatal(err)
		}
		ws := make([]*CoreWatch, len(watched))
		for i, layers := range watched {
			if ws[i], err = eng.Watch(ctx, layers, d); err != nil {
				t.Fatal(err)
			}
		}
		return eng, ws
	}

	eng, _ := setup()
	full := &pollCtx{Context: ctx, n: math.MaxInt}
	if _, err := eng.ApplyUpdates(full, batch); err != nil {
		t.Fatal(err)
	}
	if full.calls < 8 {
		t.Fatalf("an uncancelled batch polled %d times; the fixture no longer passes the poll stride", full.calls)
	}

	truncated := 0
	for cutAt := 1; cutAt <= full.calls+1; cutAt++ {
		eng, ws := setup()
		base := eng.Graph()
		stats, err := eng.ApplyUpdates(&pollCtx{Context: ctx, n: cutAt}, batch)
		if cutAt == 1 {
			if err == nil || eng.Version() != 0 || eng.Graph() != base {
				t.Fatalf("N=1: err %v, version %d: a cancelled batch landed", err, eng.Version())
			}
			continue
		}
		if err != nil {
			t.Fatalf("N=%d: %v", cutAt, err)
		}
		if stats.Inserted != 2 || stats.Deleted != 2 || eng.Version() != 1 || !eng.Graph().Equal(want) {
			t.Fatalf("N=%d: %+v, version %d: the batch did not land in full", cutAt, stats, eng.Version())
		}
		for i, w := range ws {
			if w.Truncated() {
				truncated++
			} else if !exactCore(t, eng, w, watched[i], d) {
				t.Fatalf("N=%d watch %v: untruncated but not exact", cutAt, watched[i])
			}
			if cutAt == full.calls+1 && w.Truncated() {
				t.Fatalf("N=%d watch %v: truncated although the context never fired", cutAt, watched[i])
			}
			if !w.Repair(ctx) || !exactCore(t, eng, w, watched[i], d) {
				t.Fatalf("N=%d watch %v: Repair did not restore the exact core", cutAt, watched[i])
			}
		}
		if _, err := eng.ApplyUpdates(ctx, next); err != nil {
			t.Fatal(err)
		}
		for i, w := range ws {
			if w.Truncated() || !exactCore(t, eng, w, watched[i], d) {
				t.Fatalf("N=%d watch %v: inexact after a following batch", cutAt, watched[i])
			}
		}
	}
	if truncated == 0 {
		t.Fatal("no sweep point truncated a watch")
	}
	t.Logf("%d Err calls per batch; %d watch states truncated over the sweep", full.calls, truncated)
}

// TestWatchConcurrentWithUpdates reads, repairs, attaches and closes
// watches from several goroutines while batches land, for the race
// detector: ApplyUpdates, Watch and every CoreWatch method share the
// engine's lock. The watch that stays open ends exact.
func TestWatchConcurrentWithUpdates(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(31))
	g := testutil.RandomCorrelatedGraph(rng, 60, 3, 0.2, 0.85, 0.05)
	batches := make([][]EdgeUpdate, 20)
	for i := range batches {
		batches[i] = randomStream(rng, g, 10)
	}
	eng, err := NewMutableEngine(g, EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := eng.Watch(ctx, []int{0, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				w.Core()
				w.Truncated()
				w.Repair(ctx)
				extra, err := eng.Watch(ctx, []int{2}, 1)
				if err != nil {
					t.Error(err)
					return
				}
				extra.Core()
				extra.Close()
			}
		}()
	}
	for _, batch := range batches {
		if _, err := eng.ApplyUpdates(ctx, batch); err != nil {
			t.Error(err)
		}
	}
	close(stop)
	wg.Wait()
	if w.Truncated() || !exactCore(t, eng, w, []int{0, 1}, 2) {
		t.Fatal("watch inexact after concurrent batches")
	}
}
