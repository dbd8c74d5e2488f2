package dynamic

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/multilayer"
	"repro/internal/testutil"
)

// layerCopy is a deep copy of one layer's CSR arrays.
type layerCopy struct {
	offsets   []int64
	neighbors []int32
}

func deepCopy(g *multilayer.Graph) []layerCopy {
	out := make([]layerCopy, g.L())
	for layer := range out {
		off, nbr := g.LayerCSR(layer)
		out[layer] = layerCopy{slices.Clone(off), slices.Clone(nbr)}
	}
	return out
}

// sameArray reports whether a and b share their backing array.
func sameArray[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// coldBuild builds the graph of a shadow adjacency matrix through the
// Builder, the reference every Freeze must equal.
func coldBuild(adj [][][]bool) *multilayer.Graph {
	b := multilayer.NewBuilder(len(adj[0]), len(adj))
	for layer, rows := range adj {
		for u, row := range rows {
			for v, ok := range row {
				if ok && u < v {
					b.MustAddEdge(layer, u, v)
				}
			}
		}
	}
	return b.Build()
}

// TestFreezeCopyOnWrite is the copy-on-write property: over random
// insert/delete streams across layers, every Freeze must
//
//	(a) be Equal to a cold Builder build of the same edge set, with an
//	    equal Fingerprint (both CSR forms are canonical);
//	(b) share the CSR arrays of every layer the batch did not change with
//	    the previous generation;
//	(c) leave every earlier generation byte-unchanged.
//
// An unedited import freezes to its source, and Neighbors between
// freezes always reflects the edits made so far.
func TestFreezeCopyOnWrite(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n, l := 2+rng.Intn(40), 1+rng.Intn(4)
		src := testutil.RandomGraph(rng, n, l, 0.05+0.3*rng.Float64())
		adj := make([][][]bool, l)
		for layer := range adj {
			adj[layer] = make([][]bool, n)
			for v := range adj[layer] {
				adj[layer][v] = make([]bool, n)
				for _, u := range src.Neighbors(layer, v) {
					adj[layer][v][u] = true
				}
			}
		}

		g := FromMultilayer(src)
		if g.Freeze() != src {
			t.Fatalf("seed %d: unedited Freeze is not the imported graph", seed)
		}
		gens := []*multilayer.Graph{src}
		copies := [][]layerCopy{deepCopy(src)}
		for batch := 0; batch < 8; batch++ {
			// Each batch edits a random subset of the layers.
			active := testutil.RandomLayerSubset(rng, l, 1+rng.Intn(l))
			changed := make([]bool, l)
			for step := rng.Intn(15); step > 0; step-- {
				layer := active[rng.Intn(len(active))]
				u, v := rng.Intn(n), rng.Intn(n)
				if u == v {
					continue
				}
				var did bool
				if rng.Intn(2) == 0 {
					did = g.AddEdge(layer, u, v)
					if did == adj[layer][u][v] {
						t.Fatalf("seed %d: AddEdge(%d,%d,%d) = %v with edge present %v", seed, layer, u, v, did, adj[layer][u][v])
					}
					adj[layer][u][v], adj[layer][v][u] = true, true
				} else {
					did = g.RemoveEdge(layer, u, v)
					if did != adj[layer][u][v] {
						t.Fatalf("seed %d: RemoveEdge(%d,%d,%d) = %v with edge present %v", seed, layer, u, v, did, adj[layer][u][v])
					}
					adj[layer][u][v], adj[layer][v][u] = false, false
				}
				changed[layer] = changed[layer] || did
				for _, w := range []int{u, v} {
					var want []int32
					for x, ok := range adj[layer][w] {
						if ok {
							want = append(want, int32(x))
						}
					}
					if got := g.Neighbors(layer, w); !slices.Equal(got, want) || g.Degree(layer, w) != len(want) {
						t.Fatalf("seed %d: Neighbors(%d,%d) = %v, want %v", seed, layer, w, got, want)
					}
				}
			}

			got, want := g.Freeze(), coldBuild(adj)
			if !got.Equal(want) || got.Fingerprint() != want.Fingerprint() {
				t.Fatalf("seed %d batch %d: Freeze differs from a cold build", seed, batch)
			}
			prev := gens[len(gens)-1]
			for layer := 0; layer < l; layer++ {
				if g.M(layer) != got.M(layer) {
					t.Fatalf("seed %d batch %d: M(%d) = %d, frozen %d", seed, batch, layer, g.M(layer), got.M(layer))
				}
				if changed[layer] {
					continue
				}
				off, nbr := got.LayerCSR(layer)
				poff, pnbr := prev.LayerCSR(layer)
				if !sameArray(off, poff) || !sameArray(nbr, pnbr) {
					t.Fatalf("seed %d batch %d: clean layer %d not shared with the previous generation", seed, batch, layer)
				}
			}
			if got != prev {
				gens, copies = append(gens, got), append(copies, deepCopy(got))
			}
			for i, old := range gens {
				for layer, c := range copies[i] {
					off, nbr := old.LayerCSR(layer)
					if !slices.Equal(off, c.offsets) || !slices.Equal(nbr, c.neighbors) {
						t.Fatalf("seed %d batch %d: generation %d layer %d modified after its freeze", seed, batch, i, layer)
					}
				}
			}
		}

		// Importing a frozen generation and freezing it unedited is the
		// identity.
		last := gens[len(gens)-1]
		if FromMultilayer(last).Freeze() != last {
			t.Fatalf("seed %d: round trip through FromMultilayer changed the graph", seed)
		}
	}
}
