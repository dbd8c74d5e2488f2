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
	g        *multilayer.Graph
	d        int
	coreness [][]int32 // per-layer coreness the state was built from, read-only
	workers  int
	alive    *bitset.Set   // vertices still present in the graph
	cores    []*bitset.Set // cores[i] = d-core of G_i restricted to alive
	num      []int32       // num[v] = Num(v), valid while v ∈ alive

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

	// leavers[i][c] lists the vertices of layer i with coreness c, for
	// every c from the threshold of the first Raise up: the vertices a
	// raise past c removes from layer i's core. Built by that Raise.
	leavers [][][]int32
}

// NewTrackerFromCoreness builds a full-graph tracker from precomputed
// per-layer coreness arrays (see Coreness): the initial d-core of layer i
// is the level set {v : coreness[i][v] ≥ d}, so no peel is needed, only a
// linear scan plus the degree-in-core pass, sharded across layers on up
// to workers goroutines. The coreness arrays are graph-lifetime,
// d-independent artifacts; the prepared-engine path computes them once
// and seeds every per-d tracker from them, for several thresholds by
// raising one tracker across them (Raise, CopyInto).
func NewTrackerFromCoreness(g *multilayer.Graph, d int, coreness [][]int32, workers int) *Tracker {
	n := g.N()
	t := &Tracker{
		g:        g,
		d:        d,
		coreness: coreness,
		workers:  workers,
		alive:    bitset.NewFull(n),
		cores:    make([]*bitset.Set, g.L()),
		deg:      make([][]int32, g.L()),
		num:      make([]int32, n),
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

// Raise moves an unpeeled tracker (no RemoveVertex since
// NewTrackerFromCoreness or CopyInto) from its threshold up to d, leaving
// it exactly as NewTrackerFromCoreness(g, d, coreness, workers) builds
// it. The d-cores are nested level sets, C^d(G_i) = {v : coreness_i(v) ≥
// d}, so a raise only removes the leavers, whose coreness lies in
// [current threshold, d), and decrements their neighbours' in-core
// degrees: a vertex's row on a layer is read at most once over all
// raises of one tracker, where a tracker per threshold repeats the
// whole degree pass.
// The first raise that moves buckets the vertices by coreness (O(n·l));
// layers are raised in parallel on the tracker's workers. Raising below
// the current threshold panics.
func (t *Tracker) Raise(d int) {
	if d < t.d {
		panic("kcore: a tracker can only be raised to a higher threshold")
	}
	if d == t.d {
		return
	}
	if t.leavers == nil {
		t.bucketLeavers()
	}
	from := t.d
	pool.Run(t.workers, t.g.L(), func(i int) {
		core, deg := t.cores[i], t.deg[i]
		offs, nbrs := t.g.LayerCSR(i)
		for _, level := range t.levels(i, from, d) {
			for _, v32 := range level {
				v := int(v32)
				core.Remove(v)
				deg[v] = -1
				// A leaver not yet removed may be decremented too; its
				// entry becomes the sentinel when its own turn comes.
				for _, u := range nbrs[offs[v]:offs[v+1]] {
					if deg[u] >= 0 {
						deg[u]--
					}
				}
			}
		}
	})
	for i := range t.cores {
		for _, level := range t.levels(i, from, d) {
			for _, v := range level {
				t.num[v]--
			}
		}
	}
	t.d = d
}

// bucketLeavers buckets each layer's core by coreness.
func (t *Tracker) bucketLeavers() {
	t.leavers = make([][][]int32, t.g.L())
	pool.Run(t.workers, t.g.L(), func(i int) {
		cn := t.coreness[i]
		maxc := int32(0)
		for _, c := range cn {
			maxc = max(maxc, c)
		}
		levels := make([][]int32, maxc+1)
		for v, c := range cn {
			if int(c) >= t.d {
				levels[c] = append(levels[c], int32(v))
			}
		}
		t.leavers[i] = levels
	})
}

// levels returns the leaver buckets of layer i for the coreness values
// in [from, to).
func (t *Tracker) levels(i, from, to int) [][]int32 {
	levels := t.leavers[i]
	return levels[min(from, len(levels)):min(to, len(levels))]
}

// CopyInto copies t's state, listeners excepted, into shell, which must
// be nil (a new one is allocated) or come from an earlier CopyInto on
// the same graph, and returns it. The copy shares nothing mutable with
// t, so it can be peeled while t is raised further.
func (t *Tracker) CopyInto(shell *Tracker) *Tracker {
	n, l := t.g.N(), t.g.L()
	if shell == nil {
		shell = &Tracker{
			alive: bitset.New(n),
			cores: make([]*bitset.Set, l),
			deg:   make([][]int32, l),
			num:   make([]int32, n),
		}
		for i := 0; i < l; i++ {
			shell.cores[i] = bitset.New(n)
			shell.deg[i] = make([]int32, n)
		}
	}
	shell.g, shell.d, shell.coreness, shell.workers = t.g, t.d, t.coreness, t.workers
	shell.NumListener, shell.CoreListener, shell.leavers = nil, nil, nil
	shell.alive.CopyFrom(t.alive)
	for i := 0; i < l; i++ {
		shell.cores[i].CopyFrom(t.cores[i])
		copy(shell.deg[i], t.deg[i])
	}
	copy(shell.num, t.num)
	return shell
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
