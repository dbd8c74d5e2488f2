package dynamic

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
	"repro/internal/kcore"
	"repro/internal/multilayer"
	"repro/internal/testutil"
)

// newGraph returns an empty mutable graph with n vertices and l layers.
func newGraph(n, l int) *Graph { return FromMultilayer(multilayer.NewBuilder(n, l).Build()) }

// addEdge and removeEdge follow the package's one mutation protocol for
// a single maintainer: mutate the shared graph, then observe the change
// if it was effective. Each reports whether the graph changed.
func addEdge(ctx context.Context, m *Maintainer, layer, u, v int) bool {
	if !m.g.AddEdge(layer, u, v) {
		return false
	}
	m.ObserveAdd(ctx, layer, u, v)
	return true
}

func removeEdge(ctx context.Context, m *Maintainer, layer, u, v int) bool {
	if !m.g.RemoveEdge(layer, u, v) {
		return false
	}
	m.ObserveRemove(ctx, layer, u, v)
	return true
}

func TestGraphBasics(t *testing.T) {
	g := newGraph(5, 2)
	if !g.AddEdge(0, 1, 2) || g.AddEdge(0, 2, 1) {
		t.Fatal("AddEdge dedup wrong")
	}
	if g.AddEdge(0, 3, 3) {
		t.Fatal("self-loop accepted")
	}
	if !g.HasEdge(0, 1, 2) || !g.HasEdge(0, 2, 1) || g.HasEdge(1, 1, 2) {
		t.Fatal("HasEdge wrong")
	}
	if g.M(0) != 1 || g.Degree(0, 1) != 1 {
		t.Fatal("counts wrong")
	}
	if !g.RemoveEdge(0, 2, 1) || g.RemoveEdge(0, 1, 2) {
		t.Fatal("RemoveEdge semantics wrong")
	}
	if g.M(0) != 0 {
		t.Fatal("M after removal wrong")
	}
}

func TestGraphPanicsOutOfRange(t *testing.T) {
	g := newGraph(3, 1)
	for _, fn := range []func(){
		func() { g.AddEdge(1, 0, 1) },
		func() { g.AddEdge(0, -1, 1) },
		func() { g.AddEdge(0, 0, 9) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestFreezeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src := testutil.RandomGraph(rng, 30, 3, 0.2)
	g := FromMultilayer(src)
	frozen := g.Freeze()
	if frozen.N() != src.N() || frozen.L() != src.L() {
		t.Fatal("dims changed")
	}
	for layer := 0; layer < src.L(); layer++ {
		if frozen.M(layer) != src.M(layer) {
			t.Fatalf("layer %d edges differ", layer)
		}
		for v := 0; v < src.N(); v++ {
			for _, u := range src.Neighbors(layer, v) {
				if !frozen.HasEdge(layer, v, int(u)) {
					t.Fatalf("edge (%d,%d) lost", v, u)
				}
			}
		}
	}
}

func TestMaintainerValidation(t *testing.T) {
	g := newGraph(5, 2)
	cases := []struct {
		layers []int
		d      int
	}{
		{nil, 1}, {[]int{0}, 0}, {[]int{5}, 1}, {[]int{0, 0}, 1},
	}
	for _, c := range cases {
		if _, err := NewMaintainer(context.Background(), g, c.layers, c.d); err == nil {
			t.Errorf("accepted layers=%v d=%d", c.layers, c.d)
		}
	}
	if _, err := NewMaintainer(context.Background(), nil, []int{0}, 1); err == nil {
		t.Error("accepted nil graph")
	}
}

func TestMaintainerTriangle(t *testing.T) {
	g := newGraph(4, 1)
	m, err := NewMaintainer(context.Background(), g, []int{0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.CoreSize() != 0 {
		t.Fatal("empty graph has nonempty core")
	}
	addEdge(context.Background(), m, 0, 0, 1)
	addEdge(context.Background(), m, 0, 1, 2)
	if m.CoreSize() != 0 {
		t.Fatal("path has nonempty 2-core")
	}
	addEdge(context.Background(), m, 0, 0, 2)
	if got := m.Core().Slice(); len(got) != 3 {
		t.Fatalf("triangle core = %v", got)
	}
	removeEdge(context.Background(), m, 0, 0, 1)
	if m.CoreSize() != 0 {
		t.Fatal("core survived edge removal")
	}
}

// TestMaintainerMatchesRecompute drives random update streams and
// compares the maintained core against a from-scratch dCC after every
// step.
func TestMaintainerMatchesRecompute(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(25)
		l := 1 + rng.Intn(3)
		d := 1 + rng.Intn(3)
		size := 1 + rng.Intn(l)
		layers := testutil.RandomLayerSubset(rng, l, size)

		g := newGraph(n, l)
		m, err := NewMaintainer(context.Background(), g, layers, d)
		if err != nil {
			return false
		}
		type edge struct{ layer, u, v int }
		var present []edge
		for step := 0; step < 120; step++ {
			if len(present) == 0 || rng.Float64() < 0.6 {
				layer, u, v := rng.Intn(l), rng.Intn(n), rng.Intn(n)
				if u == v {
					continue
				}
				if addEdge(context.Background(), m, layer, u, v) {
					present = append(present, edge{layer, u, v})
				}
			} else {
				i := rng.Intn(len(present))
				e := present[i]
				if !removeEdge(context.Background(), m, e.layer, e.u, e.v) {
					return false
				}
				present[i] = present[len(present)-1]
				present = present[:len(present)-1]
			}
			if step%10 == 0 || step == 119 {
				want := kcore.DCC(g.Freeze(), bitset.NewFull(n), layers, d)
				if !m.Core().Equal(want) {
					t.Logf("seed=%d step=%d: maintained=%v want=%v",
						seed, step, m.Core().Slice(), want.Slice())
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestMaintainerIgnoresUnwatchedLayers checks updates on layers outside L
// pass through without touching the core.
func TestMaintainerIgnoresUnwatchedLayers(t *testing.T) {
	g := newGraph(4, 2)
	m, err := NewMaintainer(context.Background(), g, []int{0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	addEdge(context.Background(), m, 0, 0, 1)
	addEdge(context.Background(), m, 0, 1, 2)
	addEdge(context.Background(), m, 0, 0, 2)
	before := m.Core().Clone()
	addEdge(context.Background(), m, 1, 0, 3)
	removeEdge(context.Background(), m, 1, 0, 3)
	if !m.Core().Equal(before) {
		t.Fatal("unwatched layer affected the core")
	}
}

// TestMaintainerSlidingWindow exercises the motivating scenario: a dense
// group persists while background edges churn; the core tracks it
// throughout.
func TestMaintainerSlidingWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n, l, d := 60, 3, 3
	g := newGraph(n, l)
	m, err := NewMaintainer(context.Background(), g, []int{0, 1, 2}, d)
	if err != nil {
		t.Fatal(err)
	}
	// Plant a 8-clique on all layers.
	group := []int{3, 7, 11, 19, 23, 31, 42, 55}
	for _, layer := range []int{0, 1, 2} {
		for i := range group {
			for j := i + 1; j < len(group); j++ {
				addEdge(context.Background(), m, layer, group[i], group[j])
			}
		}
	}
	for step := 0; step < 300; step++ {
		layer, u, v := rng.Intn(l), rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if rng.Intn(2) == 0 {
			addEdge(context.Background(), m, layer, u, v)
		} else if !contains(group, u) || !contains(group, v) {
			removeEdge(context.Background(), m, layer, u, v)
		}
		for _, w := range group {
			if !m.Core().Contains(w) {
				t.Fatalf("step %d: clique member %d dropped from core", step, w)
			}
		}
	}
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// TestMaintainerCancellation pins the cancellation contract: a cancelled
// update still applies its graph mutation and leaves a valid truncated
// state — a superset core with the cascade stashed for deletions, an
// insert-dirty marker for insertions — and Repair restores exactness.
func TestMaintainerCancellation(t *testing.T) {
	const n = 2000
	g := newGraph(n, 1)
	m, err := NewMaintainer(context.Background(), g, []int{0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// A single n-cycle: the 2-core is the whole cycle, and removing one
	// edge unravels it through a cascade of ~2n pops — far more than one
	// poll stride, so a cancelled context reliably truncates it.
	for i := 0; i < n; i++ {
		addEdge(context.Background(), m, 0, i, (i+1)%n)
	}
	if m.CoreSize() != n {
		t.Fatalf("cycle core = %d, want %d", m.CoreSize(), n)
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	if !removeEdge(cancelled, m, 0, 0, 1) {
		t.Fatal("cancelled RemoveEdge must still remove the edge")
	}
	if g.HasEdge(0, 0, 1) {
		t.Fatal("edge survived cancelled RemoveEdge")
	}
	if !m.Truncated() {
		t.Fatal("cancelled cascade not reported as truncated")
	}
	// Valid partial: the stale core is a superset of the exact core and
	// never gained vertices.
	if m.CoreSize() > n {
		t.Fatal("truncated core grew")
	}

	// An insertion on a still-truncated maintainer under a cancelled
	// context must fall back to the rebuild marker, not grow incrementally
	// from the stale core.
	if !addEdge(cancelled, m, 0, 0, 1) {
		t.Fatal("cancelled AddEdge must still insert the edge")
	}
	if !g.HasEdge(0, 0, 1) {
		t.Fatal("edge missing after cancelled AddEdge")
	}
	if !m.Truncated() {
		t.Fatal("maintainer lost its truncation marker")
	}

	// Repair under a live context restores the exact core: the cycle is
	// whole again, so the 2-core is all of it.
	if !m.Repair(context.Background()) {
		t.Fatal("Repair reported failure under a live context")
	}
	if m.Truncated() {
		t.Fatal("still truncated after Repair")
	}
	want := kcore.DCC(g.Freeze(), bitset.NewFull(n), []int{0}, 2)
	if !m.Core().Equal(want) {
		t.Fatalf("repaired core = %d vertices, want %d", m.CoreSize(), want.Count())
	}

	// And a cancelled initialization yields a usable, truncated handle.
	m2, err := NewMaintainer(cancelled, g, []int{0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Repair(context.Background()); !m2.Core().Equal(want) {
		t.Fatal("maintainer from cancelled init did not repair to the exact core")
	}
}
