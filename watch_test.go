package dccs

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"

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
// The truncated half cuts a 2,000-cycle, so the watch's 2-core is empty,
// and then re-inserts the edge under a context that cancels the watch's
// refresh: the watch keeps the empty core of the cut generation while
// the graph's 2-core holds all 2,000 vertices again. Repairing it after
// Close would report a core the closed watch no longer follows.
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

	if _, err := eng.ApplyUpdates(ctx, []EdgeUpdate{cut}); err != nil {
		t.Fatal(err)
	}
	// Cancel after ApplyUpdates' own check: the re-insert lands and the
	// watch's refresh is cut at its poll.
	if _, err := eng.ApplyUpdates(&pollCtx{Context: ctx, n: 2}, []EdgeUpdate{edge}); err != nil {
		t.Fatal(err)
	}
	frozen := w.Core()
	if !w.Truncated() || len(frozen) != 0 {
		t.Fatalf("cancelled re-insert: truncated %v with %d of %d vertices, want a truncated empty core", w.Truncated(), len(frozen), n)
	}
	w.Close()
	w.Close()
	if _, err := eng.ApplyUpdates(ctx, []EdgeUpdate{cut, edge}); err != nil {
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

// TestWatchCancelledAtEveryPoll cancels one batch's watch refreshes at
// every poll point: the context reports cancellation from its N-th Err
// call on, for N from 1 to one past the calls an uncancelled batch
// makes. Two 2,000-cycles carry watches on {0} and {0, 1}; the batch
// deletes and re-inserts cycle edges on both layers, so both watches
// have a refresh to do, and an uncancelled batch polls once before
// mutating and once before each refresh.
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
	if full.calls != 1+len(watched) {
		t.Fatalf("an uncancelled batch polled %d times, want %d: once before mutating and once per watch refresh", full.calls, 1+len(watched))
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

// TestWatchValidation rejects malformed watches — an empty, out-of-range
// or duplicated layer set and d = 0 — and pins a watch created under a
// cancelled context: it starts truncated with an empty core, Repair
// under a cancelled context leaves it so, and Repair under a live one
// makes it exact.
func TestWatchValidation(t *testing.T) {
	ctx := context.Background()
	eng, err := NewMutableEngine(cycles(5, 2), EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		layers []int
		d      int
	}{
		{nil, 1}, {[]int{0}, 0}, {[]int{2}, 1}, {[]int{-1}, 1}, {[]int{0, 0}, 1}, {[]int{1, 0, 1}, 2},
	} {
		if _, err := eng.Watch(ctx, c.layers, c.d); err == nil {
			t.Errorf("accepted layers=%v d=%d", c.layers, c.d)
		}
	}

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	w, err := eng.Watch(cancelled, []int{0, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !w.Truncated() || len(w.Core()) != 0 {
		t.Fatalf("watch under a cancelled context: truncated %v with %d vertices, want true and 0", w.Truncated(), len(w.Core()))
	}
	if w.Repair(cancelled) || !w.Truncated() {
		t.Fatal("Repair under a cancelled context reported an exact core")
	}
	if !w.Repair(ctx) || w.Truncated() || len(w.Core()) != 5 || !exactCore(t, eng, w, []int{0, 1}, 2) {
		t.Fatalf("Repair: %d vertices, truncated %v; want the whole 5-cycle, exact", len(w.Core()), w.Truncated())
	}
}

// TestWatchSlidingWindow is the streaming scenario watches serve: a
// planted 8-clique persists on three layers while background edges
// churn around it, one small batch at a time. The 3-CC of the three
// layers keeps every clique member and equals CoherentCore after every
// batch.
func TestWatchSlidingWindow(t *testing.T) {
	const n, l, d = 60, 3, 3
	ctx := context.Background()
	rng := rand.New(rand.NewSource(9))
	eng, err := NewMutableEngine(NewBuilder(n, l).Build(), EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	layers := []int{0, 1, 2}
	w, err := eng.Watch(ctx, layers, d)
	if err != nil {
		t.Fatal(err)
	}
	group := []int{3, 7, 11, 19, 23, 31, 42, 55}
	var clique []EdgeUpdate
	for _, layer := range layers {
		for i := range group {
			for j := i + 1; j < len(group); j++ {
				clique = append(clique, EdgeUpdate{Op: EdgeInsert, Layer: layer, U: group[i], V: group[j]})
			}
		}
	}
	if _, err := eng.ApplyUpdates(ctx, clique); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 60; step++ {
		var batch []EdgeUpdate
		for len(batch) < 5 {
			up := EdgeUpdate{Op: EdgeInsert, Layer: rng.Intn(l), U: rng.Intn(n), V: rng.Intn(n)}
			if up.U == up.V {
				continue
			}
			if rng.Intn(2) == 1 {
				if slices.Contains(group, up.U) && slices.Contains(group, up.V) {
					continue
				}
				up.Op = EdgeDelete
			}
			batch = append(batch, up)
		}
		if _, err := eng.ApplyUpdates(ctx, batch); err != nil {
			t.Fatal(err)
		}
		core := w.Core()
		for _, v := range group {
			if _, ok := slices.BinarySearch(core, int32(v)); !ok {
				t.Fatalf("step %d: clique member %d dropped from the core", step, v)
			}
		}
		if w.Truncated() || !exactCore(t, eng, w, layers, d) {
			t.Fatalf("step %d: watch differs from CoherentCore", step)
		}
	}
}

// TestWatchMatchesCoherentCore is the watch property: on random graphs
// (10–40 vertices, 1–4 layers) with several watches on random layer
// subsets and d in 1..3, every watch equals CoherentCore after each of
// 60 batches of 1–8 updates. The batches cycle through four shapes, so
// each refresh rule runs on every seed:
//
//   - updates on layers the first watch does not watch (graphs with more
//     than one layer), which leave its core as it was;
//   - deletions only, of edges inside some watch's core on its layers,
//     which the refresh peels from the previous core;
//   - a mixed batch with at least one insertion on a watched layer,
//     which the refresh peels from the Lemma 1 scope;
//   - a mixed batch over every layer.
func TestWatchMatchesCoherentCore(t *testing.T) {
	type watch struct {
		w      *CoreWatch
		layers []int
		d      int
	}
	f := func(seed int64) bool {
		ctx := context.Background()
		rng := rand.New(rand.NewSource(seed))
		n, l := 10+rng.Intn(31), 1+rng.Intn(4)
		eng, err := NewMutableEngine(testutil.RandomCorrelatedGraph(rng, n, l, 0.15+0.25*rng.Float64(), 0.85, 0.05), EngineConfig{})
		if err != nil {
			t.Fatal(err)
		}
		ws := make([]watch, 2+rng.Intn(3))
		for i := range ws {
			size := 1 + rng.Intn(l)
			if i == 0 && l > 1 {
				size = 1 + rng.Intn(l-1) // leave the first watch an unwatched layer
			}
			ws[i].layers, ws[i].d = testutil.RandomLayerSubset(rng, l, size), 1+rng.Intn(3)
			if ws[i].w, err = eng.Watch(ctx, ws[i].layers, ws[i].d); err != nil {
				t.Fatal(err)
			}
		}
		// edgesOn lists the edges of a layer whose endpoints both pass in.
		edgesOn := func(layer int, in func(v int32) bool) [][2]int {
			g := eng.Graph()
			var out [][2]int
			for u := 0; u < n; u++ {
				for _, v := range g.Neighbors(layer, u) {
					if u < int(v) && in(int32(u)) && in(v) {
						out = append(out, [2]int{u, int(v)})
					}
				}
			}
			return out
		}
		anyVertex := func(int32) bool { return true }
		randomUpdate := func(layers []int) EdgeUpdate {
			layer := layers[rng.Intn(len(layers))]
			if rng.Intn(2) == 0 {
				if es := edgesOn(layer, anyVertex); len(es) > 0 {
					e := es[rng.Intn(len(es))]
					return EdgeUpdate{Op: EdgeDelete, Layer: layer, U: e[0], V: e[1]}
				}
			}
			u := rng.Intn(n)
			return EdgeUpdate{Op: EdgeInsert, Layer: layer, U: u, V: (u + 1 + rng.Intn(n-1)) % n}
		}
		all := make([]int, l)
		for i := range all {
			all[i] = i
		}
		for b := 0; b < 60; b++ {
			size := 1 + rng.Intn(8)
			var batch []EdgeUpdate
			switch b % 4 {
			case 0:
				if unwatched := slices.DeleteFunc(slices.Clone(all), func(layer int) bool {
					return slices.Contains(ws[0].layers, layer)
				}); len(unwatched) > 0 {
					for len(batch) < size {
						batch = append(batch, randomUpdate(unwatched))
					}
				}
			case 1:
				w := ws[rng.Intn(len(ws))]
				core := w.w.Core()
				inCore := func(v int32) bool {
					_, ok := slices.BinarySearch(core, v)
					return ok
				}
				for _, layer := range w.layers {
					for _, e := range edgesOn(layer, inCore) {
						if len(batch) < size {
							batch = append(batch, EdgeUpdate{Op: EdgeDelete, Layer: layer, U: e[0], V: e[1]})
						}
					}
				}
			case 2:
				w := ws[rng.Intn(len(ws))]
				u := rng.Intn(n)
				batch = append(batch, EdgeUpdate{Op: EdgeInsert, Layer: w.layers[rng.Intn(len(w.layers))], U: u, V: (u + 1 + rng.Intn(n-1)) % n})
				fallthrough
			default:
				for len(batch) < size {
					batch = append(batch, randomUpdate(all))
				}
			}
			if len(batch) == 0 {
				continue
			}
			if _, err := eng.ApplyUpdates(ctx, batch); err != nil {
				t.Fatal(err)
			}
			for _, w := range ws {
				if w.w.Truncated() || !exactCore(t, eng, w.w, w.layers, w.d) {
					t.Logf("seed %d batch %d %v: watch %v d=%d: %v, CoherentCore differs", seed, b, batch, w.layers, w.d, w.w.Core())
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
