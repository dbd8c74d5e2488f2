package kcore

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
	"repro/internal/testutil"
)

// TestCoherentCorenessLevels validates the defining property: the level
// set {v : coreness(v) ≥ d} equals C^d_L for every d.
func TestCoherentCorenessLevels(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := testutil.RandomCorrelatedGraph(rng, 3+rng.Intn(30), 1+rng.Intn(4), 0.3, 0.85, 0.1)
		size := 1 + rng.Intn(g.L())
		layers := testutil.RandomLayerSubset(rng, g.L(), size)
		full := bitset.NewFull(g.N())
		cn := CoherentCoreness(g, layers, nil)
		maxC := 0
		for _, c := range cn {
			if c > maxC {
				maxC = c
			}
		}
		for d := 0; d <= maxC+1; d++ {
			want := DCC(g, full, layers, d)
			if !CoherentCoreFromCoreness(cn, d).Equal(want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCoherentCorenessSingleLayerMatchesBZ(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := testutil.RandomGraph(rng, 2+rng.Intn(40), 1, 0.05+rng.Float64()*0.3)
		a := CoherentCoreness(g, []int{0}, nil)
		b := Coreness(g, 0)
		for v := range a {
			if a[v] != int(b[v]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCoherentCorenessMasked(t *testing.T) {
	g := smallGraph(t)
	alive := bitset.FromSlice(5, []int{0, 1, 2})
	cn := CoherentCoreness(g, []int{0}, alive)
	if cn[3] != -1 || cn[4] != -1 {
		t.Fatalf("masked vertices should be -1: %v", cn)
	}
	if cn[0] != 2 || cn[1] != 2 || cn[2] != 2 {
		t.Fatalf("triangle coherent coreness = %v", cn)
	}
}

func TestCoherentCorenessEdgeCases(t *testing.T) {
	g := smallGraph(t)
	cn := CoherentCoreness(g, nil, nil)
	for _, c := range cn {
		if c != -1 {
			t.Fatalf("empty layer set should leave all -1: %v", cn)
		}
	}
	empty := bitset.New(5)
	cn = CoherentCoreness(g, []int{0}, empty)
	for _, c := range cn {
		if c != -1 {
			t.Fatalf("empty alive set should leave all -1: %v", cn)
		}
	}
}

func TestDegeneracy(t *testing.T) {
	g := smallGraph(t)
	// Layer 0 contains a triangle: degeneracy 2. Layer 1 is a path:
	// degeneracy 1. The coherent degeneracy of both layers is 1.
	if got := Degeneracy(g, []int{0}, nil); got != 2 {
		t.Fatalf("Degeneracy(layer 0) = %d, want 2", got)
	}
	if got := Degeneracy(g, []int{1}, nil); got != 1 {
		t.Fatalf("Degeneracy(layer 1) = %d, want 1", got)
	}
	if got := Degeneracy(g, []int{0, 1}, nil); got != 1 {
		t.Fatalf("Degeneracy(both) = %d, want 1", got)
	}
	if got := Degeneracy(g, []int{0}, bitset.New(5)); got != -1 {
		t.Fatalf("Degeneracy(empty) = %d, want -1", got)
	}
}
