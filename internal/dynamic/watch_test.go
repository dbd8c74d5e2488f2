package dynamic_test

// These tests drive the copy-on-write Graph the way a mutable engine
// does: every batch lands on it, and each attached CoreWatch keeps the
// d-CC of its layers current over it. They pin the maintained-core
// scenarios against a from-scratch peel of the frozen graph.

import (
	"context"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	dccs "repro"
	"repro/internal/bitset"
	"repro/internal/kcore"
	"repro/internal/multilayer"
	"repro/internal/testutil"
)

// pollCtx is a context whose Err reports cancellation from its n-th
// call on.
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

// newEngine returns a mutable engine over an empty graph with n
// vertices and l layers.
func newEngine(t *testing.T, n, l int) *dccs.Engine {
	t.Helper()
	eng, err := dccs.NewMutableEngine(multilayer.NewBuilder(n, l).Build(), dccs.EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// apply runs one batch under ctx and reports whether it changed the
// graph.
func apply(t *testing.T, ctx context.Context, eng *dccs.Engine, updates ...dccs.EdgeUpdate) bool {
	t.Helper()
	st, err := eng.ApplyUpdates(ctx, updates)
	if err != nil {
		t.Fatal(err)
	}
	return st.Inserted+st.Deleted > 0
}

func insert(layer, u, v int) dccs.EdgeUpdate {
	return dccs.EdgeUpdate{Op: dccs.EdgeInsert, Layer: layer, U: u, V: v}
}

func remove(layer, u, v int) dccs.EdgeUpdate {
	return dccs.EdgeUpdate{Op: dccs.EdgeDelete, Layer: layer, U: u, V: v}
}

// recompute returns the d-CC of layers on the engine's current graph,
// peeled from the full vertex set.
func recompute(eng *dccs.Engine, layers []int, d int) []int32 {
	g := eng.Graph()
	return kcore.DCC(g, bitset.NewFull(g.N()), layers, d).Slice32()
}

func watch(t *testing.T, ctx context.Context, eng *dccs.Engine, layers []int, d int) *dccs.CoreWatch {
	t.Helper()
	w, err := eng.Watch(ctx, layers, d)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestMaintainerTriangle(t *testing.T) {
	ctx := context.Background()
	eng := newEngine(t, 4, 1)
	w := watch(t, ctx, eng, []int{0}, 2)
	if len(w.Core()) != 0 {
		t.Fatal("empty graph has nonempty core")
	}
	apply(t, ctx, eng, insert(0, 0, 1))
	apply(t, ctx, eng, insert(0, 1, 2))
	if len(w.Core()) != 0 {
		t.Fatal("path has nonempty 2-core")
	}
	apply(t, ctx, eng, insert(0, 0, 2))
	if got := w.Core(); len(got) != 3 {
		t.Fatalf("triangle core = %v", got)
	}
	apply(t, ctx, eng, remove(0, 0, 1))
	if len(w.Core()) != 0 {
		t.Fatal("core survived edge removal")
	}
}

// TestMaintainerMatchesRecompute drives random single-edge update
// streams and compares the watched core against a from-scratch dCC
// after every tenth step.
func TestMaintainerMatchesRecompute(t *testing.T) {
	ctx := context.Background()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(25)
		l := 1 + rng.Intn(3)
		d := 1 + rng.Intn(3)
		size := 1 + rng.Intn(l)
		layers := testutil.RandomLayerSubset(rng, l, size)

		eng := newEngine(t, n, l)
		w := watch(t, ctx, eng, layers, d)
		var present []dccs.EdgeUpdate
		for step := 0; step < 120; step++ {
			if len(present) == 0 || rng.Float64() < 0.6 {
				layer, u, v := rng.Intn(l), rng.Intn(n), rng.Intn(n)
				if u == v {
					continue
				}
				if apply(t, ctx, eng, insert(layer, u, v)) {
					present = append(present, remove(layer, u, v))
				}
			} else {
				i := rng.Intn(len(present))
				if !apply(t, ctx, eng, present[i]) {
					return false
				}
				present[i] = present[len(present)-1]
				present = present[:len(present)-1]
			}
			if step%10 == 0 || step == 119 {
				if got, want := w.Core(), recompute(eng, layers, d); !slices.Equal(got, want) {
					t.Logf("seed=%d step=%d: watched=%v want=%v", seed, step, got, want)
					return false
				}
			}
		}
		return !w.Truncated()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestMaintainerIgnoresUnwatchedLayers checks updates on layers outside L
// pass through without touching the core.
func TestMaintainerIgnoresUnwatchedLayers(t *testing.T) {
	ctx := context.Background()
	eng := newEngine(t, 4, 2)
	w := watch(t, ctx, eng, []int{0}, 2)
	apply(t, ctx, eng, insert(0, 0, 1))
	apply(t, ctx, eng, insert(0, 1, 2))
	apply(t, ctx, eng, insert(0, 0, 2))
	before := w.Core()
	apply(t, ctx, eng, insert(1, 0, 3))
	apply(t, ctx, eng, remove(1, 0, 3))
	if !slices.Equal(w.Core(), before) {
		t.Fatal("unwatched layer affected the core")
	}
}

// TestObserveFanOut pins the fan-out of one update stream to several
// watches on different layer subsets of one engine: each must track
// exactly the core a watch created on the final graph computes.
func TestObserveFanOut(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(23))
	eng, err := dccs.NewMutableEngine(testutil.RandomGraph(rng, 80, 4, 0.12), dccs.EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	n, l := eng.Graph().N(), eng.Graph().L()

	subsets := [][]int{{0}, {1, 2}, {0, 1, 2, 3}}
	ds := []int{2, 2, 3}
	ws := make([]*dccs.CoreWatch, len(subsets))
	for i := range subsets {
		ws[i] = watch(t, ctx, eng, subsets[i], ds[i])
	}

	for step := 0; step < 400; step++ {
		layer := rng.Intn(l)
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if rng.Intn(2) == 0 {
			apply(t, ctx, eng, insert(layer, u, v))
		} else {
			apply(t, ctx, eng, remove(layer, u, v))
		}
	}

	for i, w := range ws {
		if w.Truncated() {
			t.Fatalf("watch %d truncated under a live context", i)
		}
		fresh := watch(t, ctx, eng, subsets[i], ds[i])
		got, want := w.Core(), fresh.Core()
		if len(got) != len(want) {
			t.Fatalf("watch %d: core size %d after fan-out, from-scratch says %d", i, len(got), len(want))
		}
		for _, v := range got {
			if _, ok := slices.BinarySearch(want, v); !ok {
				t.Fatalf("watch %d: vertex %d in watched core but not in from-scratch core", i, v)
			}
		}
	}
}

// TestMaintainerCancellation pins the cancellation contract: a batch
// whose watch refresh is cancelled still applies its graph mutation and
// leaves the watch truncated at the exact core of an earlier generation,
// a later cancelled insertion keeps it truncated, and Repair restores
// exactness.
func TestMaintainerCancellation(t *testing.T) {
	const n = 2000
	ctx := context.Background()
	eng := newEngine(t, n, 1)
	w := watch(t, ctx, eng, []int{0}, 2)
	// A single n-cycle: the 2-core is the whole cycle, and removing one
	// edge unravels all of it.
	cycle := make([]dccs.EdgeUpdate, n)
	for i := range cycle {
		cycle[i] = insert(0, i, (i+1)%n)
	}
	apply(t, ctx, eng, cycle...)
	if got := len(w.Core()); got != n {
		t.Fatalf("cycle core = %d, want %d", got, n)
	}

	// Each context passes ApplyUpdates' check before mutating and
	// cancels the watch's refresh at its poll.
	if !apply(t, &pollCtx{Context: ctx, n: 2}, eng, remove(0, 0, 1)) {
		t.Fatal("a batch cancelled at the refresh must still remove the edge")
	}
	if eng.Graph().HasEdge(0, 0, 1) {
		t.Fatal("edge survived the cancelled removal")
	}
	if !w.Truncated() {
		t.Fatal("cancelled refresh not reported as truncated")
	}
	// The stale core is the exact core of the uncut cycle.
	if got := len(w.Core()); got != n {
		t.Fatalf("truncated core = %d vertices, want the earlier generation's %d", got, n)
	}

	if !apply(t, &pollCtx{Context: ctx, n: 2}, eng, insert(0, 0, 1)) {
		t.Fatal("a batch cancelled at the refresh must still insert the edge")
	}
	if !eng.Graph().HasEdge(0, 0, 1) {
		t.Fatal("edge missing after the cancelled insertion")
	}
	if !w.Truncated() {
		t.Fatal("watch lost its truncation marker")
	}

	// Repair under a live context restores the exact core: the cycle is
	// whole again, so the 2-core is all of it.
	if !w.Repair(ctx) {
		t.Fatal("Repair reported failure under a live context")
	}
	if w.Truncated() {
		t.Fatal("still truncated after Repair")
	}
	want := recompute(eng, []int{0}, 2)
	if got := w.Core(); !slices.Equal(got, want) {
		t.Fatalf("repaired core = %d vertices, want %d", len(got), len(want))
	}

	// And a watch created under a cancelled context is a usable,
	// truncated handle.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	w2 := watch(t, cancelled, eng, []int{0}, 2)
	if !w2.Truncated() {
		t.Fatal("watch from a cancelled creation not truncated")
	}
	if w2.Repair(ctx); !slices.Equal(w2.Core(), want) {
		t.Fatal("watch from a cancelled creation did not repair to the exact core")
	}
}
