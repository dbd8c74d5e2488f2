package multilayer

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
)

func mustGraph(t *testing.T, n int, layers [][][2]int) *Graph {
	t.Helper()
	g, err := FromEdgeLists(n, layers)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuildBasics(t *testing.T) {
	g := mustGraph(t, 4, [][][2]int{
		{{0, 1}, {1, 2}, {2, 3}},
		{{0, 3}},
	})
	if g.N() != 4 || g.L() != 2 {
		t.Fatalf("dims: n=%d l=%d", g.N(), g.L())
	}
	if g.M(0) != 3 || g.M(1) != 1 {
		t.Fatalf("edge counts: %d %d", g.M(0), g.M(1))
	}
	if g.MTotal() != 4 {
		t.Fatalf("MTotal = %d", g.MTotal())
	}
	if !g.HasEdge(0, 1, 2) || !g.HasEdge(0, 2, 1) {
		t.Errorf("undirected edge missing")
	}
	if g.HasEdge(1, 1, 2) {
		t.Errorf("edge leaked across layers")
	}
	if g.Degree(0, 1) != 2 || g.Degree(1, 1) != 0 {
		t.Errorf("degrees wrong: %d %d", g.Degree(0, 1), g.Degree(1, 1))
	}
}

func TestBuildDedupAndLoops(t *testing.T) {
	b := NewBuilder(3, 1)
	b.MustAddEdge(0, 0, 1)
	b.MustAddEdge(0, 1, 0) // duplicate, reversed
	b.MustAddEdge(0, 0, 1) // duplicate
	b.MustAddEdge(0, 2, 2) // self-loop: ignored
	g := b.Build()
	if g.M(0) != 1 {
		t.Fatalf("M = %d, want 1 after dedup", g.M(0))
	}
	if g.Degree(0, 2) != 0 {
		t.Fatalf("self-loop created degree")
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder(3, 2)
	cases := []struct {
		layer, u, v int
	}{
		{-1, 0, 1}, {2, 0, 1}, {0, -1, 1}, {0, 0, 3}, {0, 5, 0},
	}
	for _, c := range cases {
		if err := b.AddEdge(c.layer, c.u, c.v); err == nil {
			t.Errorf("AddEdge(%d,%d,%d) = nil error", c.layer, c.u, c.v)
		}
	}
}

func TestUnionEdgeCount(t *testing.T) {
	g := mustGraph(t, 5, [][][2]int{
		{{0, 1}, {1, 2}},
		{{0, 1}, {3, 4}},
		{{1, 2}, {0, 1}},
	})
	if got := g.UnionEdgeCount(); got != 3 {
		t.Fatalf("UnionEdgeCount = %d, want 3", got)
	}
	st := g.Stats()
	if st.N != 5 || st.TotalEdges != 6 || st.UnionEdges != 3 || st.Layers != 3 {
		t.Fatalf("Stats = %+v", st)
	}
}

func TestUnionNeighbors(t *testing.T) {
	g := mustGraph(t, 5, [][][2]int{
		{{0, 1}, {0, 2}},
		{{0, 2}, {0, 4}},
	})
	got := g.UnionNeighbors(0)
	want := []int32{1, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("UnionNeighbors = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("UnionNeighbors = %v, want %v", got, want)
		}
	}
}

func TestDegreeIn(t *testing.T) {
	g := mustGraph(t, 5, [][][2]int{{{0, 1}, {0, 2}, {0, 3}, {0, 4}}})
	s := bitset.FromSlice(5, []int{0, 1, 3})
	if got := g.DegreeIn(0, 0, s); got != 2 {
		t.Fatalf("DegreeIn = %d, want 2", got)
	}
}

func TestInducedVertexSample(t *testing.T) {
	g := mustGraph(t, 4, [][][2]int{{{0, 1}, {1, 2}, {2, 3}, {3, 0}}})
	keep := bitset.FromSlice(4, []int{0, 1, 2})
	sub := g.InducedVertexSample(keep)
	if sub.N() != 4 {
		t.Fatalf("sample changed vertex universe: n=%d", sub.N())
	}
	if sub.M(0) != 2 {
		t.Fatalf("sample M = %d, want 2", sub.M(0))
	}
	if sub.Degree(0, 3) != 0 {
		t.Fatalf("dropped vertex kept edges")
	}
}

func TestLayerSample(t *testing.T) {
	g := mustGraph(t, 3, [][][2]int{
		{{0, 1}},
		{{1, 2}},
		{{0, 2}},
	})
	sub := g.LayerSample([]int{2, 0})
	if sub.L() != 2 || sub.N() != 3 {
		t.Fatalf("dims wrong: l=%d n=%d", sub.L(), sub.N())
	}
	if !sub.HasEdge(0, 0, 2) || !sub.HasEdge(1, 0, 1) {
		t.Fatalf("layer sample order wrong")
	}
}

// TestCompact checks Compact against a Builder-built reference on random
// graphs, vertex lists and per-layer keep sets.
func TestCompact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, l := 1+rng.Intn(40), 1+rng.Intn(4)
		b := NewBuilder(n, l)
		for e, m := 0, rng.Intn(200); e < m; e++ {
			b.MustAddEdge(rng.Intn(l), rng.Intn(n), rng.Intn(n))
		}
		g := b.Build()

		index := make([]int32, n)
		var verts []int32
		for v := range index {
			index[v] = -1
			if rng.Intn(3) != 0 {
				index[v] = int32(len(verts))
				verts = append(verts, int32(v))
			}
		}
		keep := make([]*bitset.Set, l)
		want := NewBuilder(len(verts), l)
		for i := range keep {
			keep[i] = bitset.New(len(verts))
			for c := range verts {
				if rng.Intn(4) != 0 {
					keep[i].Add(c)
				}
			}
			for a, u := range verts {
				for bb, v := range verts {
					if a < bb && keep[i].Contains(a) && keep[i].Contains(bb) && g.HasEdge(i, int(u), int(v)) {
						want.MustAddEdge(i, a, bb)
					}
				}
			}
		}
		return g.Compact(verts, index, keep).Equal(want.Build())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickBuildMatchesModel builds random graphs and cross-checks
// adjacency against a map-based model.
func TestQuickBuildMatchesModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		l := 1 + rng.Intn(4)
		b := NewBuilder(n, l)
		model := make([]map[[2]int]bool, l)
		for i := range model {
			model[i] = map[[2]int]bool{}
		}
		for e := 0; e < 200; e++ {
			layer, u, v := rng.Intn(l), rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			b.MustAddEdge(layer, u, v)
			if u > v {
				u, v = v, u
			}
			model[layer][[2]int{u, v}] = true
		}
		g := b.Build()
		for layer := 0; layer < l; layer++ {
			if g.M(layer) != len(model[layer]) {
				return false
			}
			for u := 0; u < n; u++ {
				for v := u + 1; v < n; v++ {
					if g.HasEdge(layer, u, v) != model[layer][[2]int{u, v}] {
						return false
					}
				}
				// Degree must equal incident model edges.
				d := 0
				for e := range model[layer] {
					if e[0] == u || e[1] == u {
						d++
					}
				}
				if g.Degree(layer, u) != d {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
