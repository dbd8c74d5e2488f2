package dynamic

import (
	"math/rand"
	"testing"

	"repro/internal/multilayer"
	"repro/internal/testutil"
)

// newGraph returns an empty mutable graph with n vertices and l layers.
func newGraph(n, l int) *Graph { return FromMultilayer(multilayer.NewBuilder(n, l).Build()) }

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
