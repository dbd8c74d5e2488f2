package kcore

import (
	"repro/internal/bitset"
	"repro/internal/multilayer"
	"repro/internal/pool"
)

// Tracker maintains, under vertex deletions, the d-core of every layer of
// a multi-layer graph together with the support counts
// Num(v) = |{ i : v ∈ C^d(G_i) }| used throughout the paper: by the
// vertex-deletion preprocessing (§IV-C), and by the removal-hierarchy
// index of the top-down algorithm (§V-C).
//
// Deleting a vertex removes it from the graph entirely; the per-layer
// cores then shrink by cascaded peeling, so each edge of each layer is
// processed O(1) times over the lifetime of the tracker.
type Tracker struct {
	g     *multilayer.Graph
	d     int
	alive *bitset.Set   // vertices still present in the graph
	cores []*bitset.Set // cores[i] = d-core of G_i restricted to alive
	num   []int32       // num[v] = Num(v), valid while v ∈ alive

	// deg[i][v] = degree of v inside cores[i] while v ∈ cores[i], and the
	// sentinel -1 otherwise. The sentinel makes the peel's inner loop a
	// single flat array access — membership test and counter load in one —
	// instead of a bitset probe plus a separate degree load; cores[i] is
	// kept in sync for the Core accessor.
	deg [][]int32

	// NumListener, when non-nil, is invoked with every vertex whose Num
	// value decreases as a side effect of core maintenance (not for the
	// vertex passed to RemoveVertex itself). The top-down index builder
	// uses it to keep a bucket queue of support counts.
	NumListener func(v int)

	// CoreListener, when non-nil, is invoked with every (layer, vertex)
	// pair whose core membership is lost, whether to a peeling cascade or
	// to the removal of the vertex passed to RemoveVertex itself. The
	// removal-hierarchy builder uses it to record, per layer, the
	// threshold at which each vertex drops out of that layer's d-core.
	CoreListener func(layer, v int)

	// queue is the cascade worklist of removeFromCore, kept on the
	// tracker so the (very hot) per-removal calls never allocate.
	queue []int32
}

// NewTrackerFromCoreness builds a full-graph tracker from precomputed
// per-layer coreness arrays (see Coreness): the initial d-core of layer i
// is the level set {v : coreness[i][v] ≥ d}, so no peel is needed, only a
// linear scan plus the degree-in-core pass, sharded across layers on up
// to workers goroutines. The coreness arrays are graph-lifetime,
// d-independent artifacts; the prepared-engine path computes them once
// and seeds every per-d tracker from them (or from a Sweep, which yields
// the same trackers).
func NewTrackerFromCoreness(g *multilayer.Graph, d int, coreness [][]int32, workers int) *Tracker {
	n := g.N()
	t := &Tracker{
		g:     g,
		d:     d,
		alive: bitset.NewFull(n),
		cores: make([]*bitset.Set, g.L()),
		deg:   make([][]int32, g.L()),
		num:   make([]int32, n),
	}
	pool.Run(workers, g.L(), func(i int) {
		// Flat initialization straight off the CSR: membership in the
		// initial core is the level-set test coreness ≥ d, so neither the
		// core bitset nor DegreeIn's per-neighbor Contains probes are
		// needed to count in-core degrees.
		cn := coreness[i]
		offs, nbrs := g.LayerCSR(i)
		core := bitset.New(n)
		di := make([]int32, n)
		for v := 0; v < n; v++ {
			if int(cn[v]) < d {
				di[v] = -1
				continue
			}
			core.Add(v)
			dv := int32(0)
			for _, u := range nbrs[offs[v]:offs[v+1]] {
				if int(cn[u]) >= d {
					dv++
				}
			}
			di[v] = dv
		}
		t.cores[i] = core
		t.deg[i] = di
	})
	t.sumNum()
	return t
}

// sumNum aggregates the support counts across layers, after the
// per-layer construction barrier rather than raced inside it.
func (t *Tracker) sumNum() {
	for i := 0; i < t.g.L(); i++ {
		t.cores[i].ForEach(func(v int) bool {
			t.num[v]++
			return true
		})
	}
}

// Alive returns the set of vertices still in the graph. The returned set
// is owned by the tracker; callers must not modify it.
func (t *Tracker) Alive() *bitset.Set { return t.alive }

// Core returns the current d-core of the given layer. The returned set is
// owned by the tracker; callers must not modify it.
func (t *Tracker) Core(layer int) *bitset.Set { return t.cores[layer] }

// Num returns the number of layers whose current d-core contains v.
func (t *Tracker) Num(v int) int {
	if !t.alive.Contains(v) {
		return 0
	}
	return int(t.num[v])
}

// RemoveVertex deletes v from the graph and cascades the per-layer core
// maintenance. Removing a vertex that is already gone is a no-op.
func (t *Tracker) RemoveVertex(v int) {
	if !t.alive.Remove(v) {
		return
	}
	for i := range t.cores {
		if t.deg[i][v] >= 0 {
			t.removeFromCore(i, v)
		}
	}
	t.num[v] = 0
}

// removeFromCore removes v from layer i's core and peels the fallout.
// The inner loop tests membership through the deg sentinel (deg < 0 ⇔
// outside the core), so each neighbor costs one flat array access.
func (t *Tracker) removeFromCore(layer, v int) {
	core := t.cores[layer]
	deg := t.deg[layer]
	core.Remove(v)
	deg[v] = -1
	t.num[v]--
	if t.CoreListener != nil {
		t.CoreListener(layer, v)
	}
	offs, nbrs := t.g.LayerCSR(layer) // hot loop: flat CSR iteration
	queue := append(t.queue[:0], int32(v))
	for len(queue) > 0 {
		w := int(queue[len(queue)-1])
		queue = queue[:len(queue)-1]
		for _, u32 := range nbrs[offs[w]:offs[w+1]] {
			u := int(u32)
			du := deg[u]
			if du < 0 {
				continue
			}
			du--
			if du < int32(t.d) {
				deg[u] = -1
				core.Remove(u)
				t.num[u]--
				if t.NumListener != nil {
					t.NumListener(u)
				}
				if t.CoreListener != nil {
					t.CoreListener(layer, u)
				}
				queue = append(queue, u32)
			} else {
				deg[u] = du
			}
		}
	}
	t.queue = queue[:0]
}
