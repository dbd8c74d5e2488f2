package dccs

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/datasets"
	"repro/internal/testutil"
)

func TestCoherentCorenessAPI(t *testing.T) {
	g := exampleGraph(t)
	cn, err := CoherentCoreness(g, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	// The 9-vertex block is 4-regular on both layers → coherent coreness
	// ≥ 3 (the satellites y,m raise some block degrees).
	for v := 0; v < 9; v++ {
		if cn[v] < 3 {
			t.Errorf("coreness[%d] = %d, want ≥ 3", v, cn[v])
		}
	}
	// Sparse vertex x never reaches a coherent core.
	if cn[10] > 0 {
		t.Errorf("coreness[x] = %d", cn[10])
	}
	if _, err := CoherentCoreness(g, nil); err == nil {
		t.Error("empty layer set accepted")
	}
	if _, err := CoherentCoreness(nil, []int{0}); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := CoherentCoreness(g, []int{8}); err == nil {
		t.Error("layer out of range accepted")
	}
}

func TestDegeneracyAPI(t *testing.T) {
	g := exampleGraph(t)
	dg, err := Degeneracy(g, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if dg != 4 {
		t.Fatalf("Degeneracy = %d, want 4 (the 4-regular block)", dg)
	}
	if _, err := Degeneracy(g, []int{-1}); err == nil {
		t.Error("negative layer accepted")
	}
}

func TestExactAndValidateAPI(t *testing.T) {
	g := exampleGraph(t)
	opts := Options{D: 3, S: 2, K: 2}
	exact, err := Exact(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if exact.CoverSize != 13 {
		t.Fatalf("Exact cover = %d, want 13", exact.CoverSize)
	}
	if err := Validate(g, opts, exact); err != nil {
		t.Fatal(err)
	}
	approx, err := Search(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if approx.CoverSize > exact.CoverSize {
		t.Fatal("approximation beat the optimum")
	}
}

func TestDynamicAPI(t *testing.T) {
	ctx := context.Background()
	eng, err := NewMutableEngine(NewBuilder(6, 2).Build(), EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := eng.Watch(ctx, []int{0, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	var triangles []EdgeUpdate
	for _, layer := range []int{0, 1} {
		triangles = append(triangles,
			EdgeUpdate{Op: EdgeInsert, Layer: layer, U: 0, V: 1},
			EdgeUpdate{Op: EdgeInsert, Layer: layer, U: 1, V: 2},
			EdgeUpdate{Op: EdgeInsert, Layer: layer, U: 0, V: 2})
	}
	if _, err := eng.ApplyUpdates(ctx, triangles); err != nil {
		t.Fatal(err)
	}
	if len(w.Core()) != 3 {
		t.Fatalf("core = %d, want 3", len(w.Core()))
	}
	if _, err := eng.ApplyUpdates(ctx, []EdgeUpdate{{Op: EdgeDelete, Layer: 1, U: 0, V: 1}}); err != nil {
		t.Fatal(err)
	}
	if len(w.Core()) != 0 {
		t.Fatalf("core = %d after breaking layer 1, want 0", len(w.Core()))
	}
}

// TestSearchAgreesWithComponents cross-checks the public Search result
// against CoherentCoreness level sets: every returned core equals the
// level set of its layers at depth d.
func TestSearchAgreesWithComponents(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := testutil.RandomCorrelatedGraph(rng, 10+rng.Intn(20), 2+rng.Intn(3), 0.35, 0.85, 0.08)
		d := 1 + rng.Intn(3)
		s := 1 + rng.Intn(g.L())
		res, err := Search(g, Options{D: d, S: s, K: 3, Seed: seed})
		if err != nil {
			return false
		}
		for _, c := range res.Cores {
			cn, err := CoherentCoreness(g, c.Layers)
			if err != nil {
				return false
			}
			count := 0
			for _, x := range cn {
				if x >= d {
					count++
				}
			}
			if count != len(c.Vertices) {
				return false
			}
			for _, v := range c.Vertices {
				if cn[v] < d {
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

func TestPPIGroundTruthRecovery(t *testing.T) {
	// End-to-end: the planted complexes of the PPI stand-in are d-CCs of
	// their supporting layers when queried directly.
	ds := datasets.PPI(3)
	for i, c := range ds.Communities {
		// Tiny complexes (3–5 proteins) are not reliably 2-dense under
		// the generator's edge sampling; check the substantial ones.
		if len(c.Layers) < 4 || len(c.Vertices) < 7 {
			continue
		}
		core, err := CoherentCore(ds.Graph, c.Layers, 2)
		if err != nil {
			t.Fatal(err)
		}
		members := map[int]bool{}
		for _, v := range core {
			members[v] = true
		}
		missing := 0
		for _, v := range c.Vertices {
			if !members[v] {
				missing++
			}
		}
		// With PIn 0.92 and small dropout the bulk of each complex sits
		// inside the 2-CC of its layers.
		if 2*missing > len(c.Vertices) {
			t.Errorf("community %d: %d/%d members outside its 2-CC", i, missing, len(c.Vertices))
		}
	}
}
