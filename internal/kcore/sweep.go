package kcore

import (
	"repro/internal/bitset"
	"repro/internal/multilayer"
	"repro/internal/pool"
)

// sweepChunk is the vertex-range granularity of the parallel passes: big
// enough that the per-task scheduling cost vanishes, small enough that
// skewed CSR rows still balance across workers.
const sweepChunk = 2048

// Sweep produces the initial tracker state for every degree threshold in
// one incremental pass over the graph, exploiting that the per-layer
// d-cores are nested level sets of the coreness arrays:
//
//	C^d(G_i) = {v : coreness_i(v) ≥ d} ⊇ C^{d+1}(G_i)
//
// Building the state for each d independently (NewTrackerFromCoreness)
// costs O(Σ m_i) per d — the full degree-in-core pass — so D thresholds
// cost O(D·Σ m_i). A Sweep maintains one base state (per-layer cores,
// in-core degrees, support counts) and advances it threshold by
// threshold: moving from d to d+1 only touches the "leavers", the
// vertices with coreness exactly d, and each vertex leaves each layer's
// core exactly once over the whole sweep. The total advancement work is
// therefore O(Σ m_i) for ALL thresholds together, and TrackerAt(d) turns
// the base state into a ready tracker with flat word copies.
//
// The produced trackers are byte-identical to NewTrackerFromCoreness's
// (see TestSweepMatchesFromCoreness); the removal-hierarchy builder
// relies on that to make shared multi-d builds indistinguishable from
// independent ones.
//
// The base state is single-consumer: calls to TrackerAt must be
// serialized by the caller and request thresholds in ascending order.
// A positioned tracker shares nothing mutable with the sweep, so several
// trackers, each in its own caller-owned shell, may peel concurrently
// while the sweep positions the next one.
type Sweep struct {
	g        *multilayer.Graph
	coreness [][]int32
	workers  int

	d     int           // threshold the base state is positioned at
	cores []*bitset.Set // base: {v : coreness_i(v) ≥ d}
	deg   [][]int32     // base in-core degrees, -1 sentinel outside (see Tracker.deg)
	num   []int32       // base support counts

	// byLevel[i][c] lists the vertices with coreness_i(v) == c ≥ the
	// starting threshold — the leavers of layer i when the threshold
	// advances past c. Built once; total size Σ_i |initial core of layer i|.
	byLevel [][][]int32
}

// NewSweep positions a sweep at threshold d ≥ 1, the smallest it will be
// asked for, over precomputed per-layer coreness arrays (see Coreness
// with a nil mask). Starting at the first threshold needed rather than
// at 1 skips the vertices below it in the initial degree pass, and the
// advance past them. workers bounds the parallelism of the initial
// degree pass, which is sharded across CSR vertex ranges; ≤ 1 runs
// serially.
func NewSweep(g *multilayer.Graph, d int, coreness [][]int32, workers int) *Sweep {
	n, l := g.N(), g.L()
	if workers < 1 {
		workers = 1
	}
	s := &Sweep{
		g:        g,
		coreness: coreness,
		workers:  workers,
		d:        d,
		cores:    make([]*bitset.Set, l),
		deg:      make([][]int32, l),
		num:      make([]int32, n),
		byLevel:  make([][][]int32, l),
	}

	// Per-layer membership, leaver buckets and support counts. The layers
	// are independent; num is summed serially afterwards to keep the
	// cross-layer counter unsynchronized.
	pool.Run(workers, l, func(i int) {
		cn := coreness[i]
		core := bitset.New(n)
		maxc := int32(0)
		for _, c := range cn {
			if c > maxc {
				maxc = c
			}
		}
		levels := make([][]int32, maxc+1)
		for v, c := range cn {
			if int(c) >= d {
				core.Add(v)
				levels[c] = append(levels[c], int32(v))
			}
		}
		s.cores[i] = core
		s.byLevel[i] = levels
		s.deg[i] = make([]int32, n)
	})
	for i := 0; i < l; i++ {
		s.cores[i].ForEach(func(v int) bool {
			s.num[v]++
			return true
		})
	}

	// Initial in-core degree pass, parallel across (layer, CSR range)
	// chunks: deg[i][v] = |{u ∈ N_i(v) : coreness_i(u) ≥ d}|, writes are
	// chunk-disjoint so no synchronization is needed.
	nchunks := (n + sweepChunk - 1) / sweepChunk
	pool.Run(workers, l*nchunks, func(task int) {
		i, c := task/nchunks, task%nchunks
		lo, hi := c*sweepChunk, (c+1)*sweepChunk
		if hi > n {
			hi = n
		}
		cn := s.coreness[i]
		offs, nbrs := g.LayerCSR(i)
		di := s.deg[i]
		for v := lo; v < hi; v++ {
			if int(cn[v]) < d {
				di[v] = -1
				continue
			}
			dv := int32(0)
			for _, u := range nbrs[offs[v]:offs[v+1]] {
				if int(cn[u]) >= d {
					dv++
				}
			}
			di[v] = dv
		}
	})
	return s
}

// advance moves the base state from its current threshold up to d by
// processing the leavers of every intermediate step. Layer-local state
// (core bitsets, degree counters) advances in parallel across layers;
// the shared support counts are adjusted serially per step.
func (s *Sweep) advance(d int) {
	for t := s.d + 1; t <= d; t++ {
		pool.Run(s.workers, s.g.L(), func(i int) {
			cn := s.coreness[i]
			di := s.deg[i]
			core := s.cores[i]
			offs, nbrs := s.g.LayerCSR(i)
			for _, v32 := range s.levelOf(i, t-1) {
				v := int(v32)
				core.Remove(v)
				di[v] = -1
				for _, u := range nbrs[offs[v]:offs[v+1]] {
					if int(cn[u]) >= t {
						di[u]--
					}
				}
			}
		})
		for i := 0; i < s.g.L(); i++ {
			for _, v32 := range s.levelOf(i, t-1) {
				s.num[v32]--
			}
		}
		s.d = t
	}
}

// levelOf returns the vertices of layer i with coreness exactly c.
func (s *Sweep) levelOf(i, c int) []int32 {
	if c < 0 || c >= len(s.byLevel[i]) {
		return nil
	}
	return s.byLevel[i][c]
}

// TrackerAt advances the sweep to threshold d (which must be ≥ every
// previously requested threshold and ≥ 1) and positions the shell t
// exactly like NewTrackerFromCoreness(g, d, coreness, workers) would be,
// overwriting whatever t held; a nil t allocates a new shell. It returns
// the positioned tracker, so a caller owning one shell reuses it with
// t = s.TrackerAt(d, t).
func (s *Sweep) TrackerAt(d int, t *Tracker) *Tracker {
	if d < s.d {
		panic("kcore: sweep thresholds must be requested in ascending order")
	}
	s.advance(d)
	n, l := s.g.N(), s.g.L()
	if t == nil {
		t = &Tracker{
			g:     s.g,
			alive: bitset.New(n),
			cores: make([]*bitset.Set, l),
			deg:   make([][]int32, l),
			num:   make([]int32, n),
		}
		for i := 0; i < l; i++ {
			t.cores[i] = bitset.New(n)
			t.deg[i] = make([]int32, n)
		}
	}
	t.d = d
	t.NumListener, t.CoreListener = nil, nil
	t.alive.Fill()
	for i := 0; i < l; i++ {
		t.cores[i].CopyFrom(s.cores[i])
		copy(t.deg[i], s.deg[i])
	}
	copy(t.num, s.num)
	return t
}
