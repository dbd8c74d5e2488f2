package kcore

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
	"repro/internal/multilayer"
	"repro/internal/testutil"
)

// naiveDCC is the reference implementation: repeatedly scan every vertex
// and delete any with degree < d on some listed layer until a fixpoint.
func naiveDCC(g *multilayer.Graph, S *bitset.Set, layers []int, d int) *bitset.Set {
	cur := S.Clone()
	if len(layers) == 0 || d <= 0 {
		return cur
	}
	for changed := true; changed; {
		changed = false
		cur.Clone().ForEach(func(v int) bool {
			for _, layer := range layers {
				if g.DegreeIn(layer, v, cur) < d {
					cur.Remove(v)
					changed = true
					break
				}
			}
			return true
		})
	}
	return cur
}

func mustGraph(t *testing.T, n int, layers [][][2]int) *multilayer.Graph {
	t.Helper()
	g, err := multilayer.FromEdgeLists(n, layers)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// triangle + pendant on layer 0; path on layer 1.
func smallGraph(t *testing.T) *multilayer.Graph {
	return mustGraph(t, 5, [][][2]int{
		{{0, 1}, {1, 2}, {0, 2}, {2, 3}},
		{{0, 1}, {1, 2}, {2, 3}, {3, 4}},
	})
}

func TestCoreSingleLayer(t *testing.T) {
	g := smallGraph(t)
	core := Core(g, 0, nil, 2)
	want := []int{0, 1, 2}
	if got := core.Slice(); !equalInts(got, want) {
		t.Fatalf("2-core = %v, want %v", got, want)
	}
	if !Core(g, 1, nil, 2).Empty() {
		t.Fatalf("path has nonempty 2-core")
	}
	if got := Core(g, 1, nil, 1).Count(); got != 5 {
		t.Fatalf("1-core of path = %d vertices, want 5", got)
	}
}

func TestCoreRespectsAliveMask(t *testing.T) {
	g := smallGraph(t)
	alive := bitset.FromSlice(5, []int{0, 1, 3, 4})
	// Without vertex 2 the triangle is broken: no 2-core on layer 0.
	if got := Core(g, 0, alive, 2); !got.Empty() {
		t.Fatalf("masked 2-core = %v, want empty", got.Slice())
	}
}

func TestDCCMultiLayer(t *testing.T) {
	g := smallGraph(t)
	// d=1 on both layers: every vertex has a neighbor on both layers
	// except vertex 4 (isolated on layer 0).
	got := DCC(g, bitset.NewFull(5), []int{0, 1}, 1)
	if !equalInts(got.Slice(), []int{0, 1, 2, 3}) {
		t.Fatalf("1-CC = %v", got.Slice())
	}
	// d=2 on both layers: empty (layer 1 has no 2-core).
	if got := DCC(g, bitset.NewFull(5), []int{0, 1}, 2); !got.Empty() {
		t.Fatalf("2-CC = %v, want empty", got.Slice())
	}
}

func TestDCCEdgeCases(t *testing.T) {
	g := smallGraph(t)
	full := bitset.NewFull(5)
	if got := DCC(g, full, nil, 3); !got.Equal(full) {
		t.Fatalf("empty layer set must return S itself")
	}
	if got := DCC(g, full, []int{0}, 0); !got.Equal(full) {
		t.Fatalf("d=0 must return S itself")
	}
	empty := bitset.New(5)
	if got := DCC(g, empty, []int{0}, 2); !got.Empty() {
		t.Fatalf("empty S must return empty")
	}
	// Input set must not be mutated.
	s := bitset.NewFull(5)
	DCC(g, s, []int{0, 1}, 2)
	if s.Count() != 5 {
		t.Fatalf("DCC mutated its input")
	}
}

func TestDCCAgainstNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := testutil.RandomGraph(rng, 2+rng.Intn(30), 1+rng.Intn(4), 0.05+rng.Float64()*0.4)
		d := 1 + rng.Intn(4)
		size := 1 + rng.Intn(g.L())
		layers := testutil.RandomLayerSubset(rng, g.L(), size)
		S := bitset.New(g.N())
		for v := 0; v < g.N(); v++ {
			if rng.Float64() < 0.8 {
				S.Add(v)
			}
		}
		want := naiveDCC(g, S, layers, d)
		if !DCC(g, S, layers, d).Equal(want) {
			return false
		}
		return DCCBin(g, S, layers, d).Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestDCCProperties verifies the paper's Properties 1–3 and Lemma 1 on
// random graphs.
func TestDCCProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := testutil.RandomCorrelatedGraph(rng, 3+rng.Intn(25), 2+rng.Intn(4), 0.3, 0.8, 0.05)
		full := bitset.NewFull(g.N())
		d := 1 + rng.Intn(3)
		sz := 1 + rng.Intn(g.L())
		L := testutil.RandomLayerSubset(rng, g.L(), sz)

		// Property 1 (uniqueness): result is d-dense w.r.t. L and maximal
		// (equal to the naive fixpoint, which contains every d-dense set).
		c := DCC(g, full, L, d)
		ok := true
		c.ForEach(func(v int) bool {
			for _, layer := range L {
				if g.DegreeIn(layer, v, c) < d {
					ok = false
					return false
				}
			}
			return true
		})
		if !ok || !c.Equal(naiveDCC(g, full, L, d)) {
			return false
		}

		// Property 2 (hierarchy): C^d_L ⊆ C^{d-1}_L.
		if d > 1 && !c.SubsetOf(DCC(g, full, L, d-1)) {
			return false
		}

		// Property 3 (containment): L ⊆ L' ⇒ C^d_{L'} ⊆ C^d_L.
		if sz < g.L() {
			ext := testutil.RandomLayerSubset(rng, g.L(), g.L())[:0]
			ext = append(ext, L...)
			for j := 0; j < g.L(); j++ {
				found := false
				for _, x := range L {
					if x == j {
						found = true
					}
				}
				if !found {
					ext = append(ext, j)
					break
				}
			}
			if !DCC(g, full, ext, d).SubsetOf(c) {
				return false
			}
		}

		// Lemma 1 (intersection bound) for a random bipartition of L.
		if len(L) >= 2 {
			cut := 1 + rng.Intn(len(L)-1)
			l1, l2 := L[:cut], L[cut:]
			c1, c2 := DCC(g, full, l1, d), DCC(g, full, l2, d)
			inter := c1.Intersection(c2)
			if !c.SubsetOf(inter) {
				return false
			}
			// Computing on the reduced scope must give the same d-CC.
			if !DCC(g, inter, L, d).Equal(c) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCorenessAgainstCore(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := testutil.RandomGraph(rng, 2+rng.Intn(40), 1, 0.05+rng.Float64()*0.3)
		cn := Coreness(g, 0)
		for d := 0; d <= 6; d++ {
			if !CoreFromCoreness(cn, d).Equal(Core(g, 0, nil, d)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestTrackerMatchesRecompute checks a tracker seeded from coreness
// against cores recomputed from scratch, before any removal and after a
// random half of the vertices is removed: alive set, per-layer cores,
// support counts, and the CoreListener calls, which must report each
// lost (layer, vertex) membership exactly once, the removed vertex's own
// included.
func TestTrackerMatchesRecompute(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := testutil.RandomCorrelatedGraph(rng, 3+rng.Intn(25), 1+rng.Intn(4), 0.3, 0.8, 0.1)
		d := 1 + rng.Intn(3)
		coreness := make([][]int32, g.L())
		for i := range coreness {
			coreness[i] = Coreness(g, i)
		}
		tr := NewTrackerFromCoreness(g, d, coreness, 1)
		alive := bitset.NewFull(g.N())
		member := make([]*bitset.Set, g.L())
		for i := range member {
			member[i] = Core(g, i, alive, d)
		}
		listenerOK := true
		tr.CoreListener = func(layer, v int) {
			if !member[layer].Remove(v) {
				listenerOK = false // reported twice, or never a member
			}
		}
		matches := func() bool {
			if !listenerOK || !tr.Alive().Equal(alive) {
				return false
			}
			for i := 0; i < g.L(); i++ {
				core := Core(g, i, alive, d)
				if !tr.Core(i).Equal(core) || !member[i].Equal(core) {
					return false
				}
			}
			for v := 0; v < g.N(); v++ {
				want := 0
				for i := 0; i < g.L(); i++ {
					if alive.Contains(v) && Core(g, i, alive, d).Contains(v) {
						want++
					}
				}
				if tr.Num(v) != want {
					return false
				}
			}
			return true
		}
		if !matches() {
			return false
		}
		order := rng.Perm(g.N())
		for _, v := range order[:len(order)/2] {
			tr.RemoveVertex(v)
			alive.Remove(v)
			// Duplicate removal must be a no-op.
			if rng.Intn(4) == 0 {
				tr.RemoveVertex(v)
			}
		}
		return matches()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
