// Package kcore implements core decomposition on single layers and the
// paper's multi-layer dCC procedure (Appendix B): computing the d-coherent
// core C^d_L(G), the maximal vertex set whose induced subgraph has minimum
// degree ≥ d on every layer in L.
//
// Two interchangeable dCC implementations are provided: DCC, a queue-based
// peel in O(Σ_{i∈L} m_i) after O(n·|L|) initialization, and DCCBin, a
// faithful port of the bin-sorted procedure from the paper's Appendix B.
// They compute identical results (see the property tests); DCC is the
// default used by the algorithms.
package kcore

import (
	"repro/internal/bitset"
	"repro/internal/multilayer"
)

// Core returns the d-core of layer restricted to the alive vertices: the
// maximal S ⊆ alive such that every v ∈ S has at least d neighbors in S on
// the given layer. alive is not modified. Passing alive == nil means all
// vertices.
func Core(g *multilayer.Graph, layer int, alive *bitset.Set, d int) *bitset.Set {
	if alive == nil {
		alive = bitset.NewFull(g.N())
	}
	return DCC(g, alive, []int{layer}, d)
}

// DCC computes the d-coherent core of the multi-layer subgraph induced by
// S with respect to the given layers: the maximal subset of S in which
// every vertex has degree ≥ d on every listed layer. S is not modified.
//
// The peel runs the standard cascade: compute per-layer degrees inside S,
// enqueue vertices violating the threshold on any layer, and propagate
// deletions. Each edge of each listed layer is touched O(1) times.
//
// The hot loops run on flat arrays only: a tri-state byte per vertex
// (outside S / alive / dead) replaces the bitset membership probes of the
// earlier implementation, the per-layer degree counters live in pooled
// scratch (see dccScratch), and a vertex that already failed one layer's
// threshold during initialization skips its remaining per-layer degree
// scans — its counters can never be read. The result is byte-identical
// to the reference DCCBin (see the property tests).
func DCC(g *multilayer.Graph, S *bitset.Set, layers []int, d int) *bitset.Set {
	if len(layers) == 0 || d <= 0 {
		return S.Clone()
	}
	n := g.N()
	// Hot loop: iterate each listed layer's flat CSR arrays directly.
	offs := make([][]int64, len(layers))
	nbrs := make([][]int32, len(layers))
	for idx, layer := range layers {
		offs[idx], nbrs[idx] = g.LayerCSR(layer)
	}
	sc := getDCCScratch(n, len(layers))
	in, deg := sc.state, sc.deg
	members, queue := sc.members[:0], sc.queue[:0]
	S.ForEach(func(v int) bool {
		in[v] = 1
		members = append(members, int32(v))
		return true
	})

	for _, v32 := range members {
		v := int(v32)
		for idx := range layers {
			dv := int32(0)
			for _, u := range nbrs[idx][offs[idx][v]:offs[idx][v+1]] {
				if in[u] != 0 {
					dv++
				}
			}
			deg[idx][v] = dv
			if dv < int32(d) {
				in[v] = 2
				queue = append(queue, v32)
				break // remaining layers' counters are never read for a dead vertex
			}
		}
	}

	for len(queue) > 0 {
		v := int(queue[len(queue)-1])
		queue = queue[:len(queue)-1]
		for idx := range layers {
			for _, u32 := range nbrs[idx][offs[idx][v]:offs[idx][v+1]] {
				u := int(u32)
				if in[u] != 1 {
					continue
				}
				deg[idx][u]--
				if deg[idx][u] < int32(d) {
					in[u] = 2
					queue = append(queue, u32)
				}
			}
		}
	}

	out := bitset.New(n)
	for _, v32 := range members {
		if in[v32] == 1 {
			out.Add(int(v32))
		}
		in[v32] = 0 // restore the scratch invariant
	}
	sc.members, sc.queue = members, queue
	putDCCScratch(sc)
	return out
}

// Coreness computes the full core decomposition of one layer with the
// O(n + m) bin-sort algorithm of Batagelj and Zaversnik. The result maps
// each vertex to its coreness, the largest d such that the vertex
// belongs to the layer's d-core. Entries are int32 like vertex ids: a
// coreness is below n. The initial degrees are the CSR row lengths, so
// the whole decomposition runs on flat arrays.
func Coreness(g *multilayer.Graph, layer int) []int32 {
	n := g.N()
	offs, nbrs := g.LayerCSR(layer) // hot loop: flat CSR iteration
	coreness := make([]int32, n)
	deg := make([]int, n)
	maxDeg := 0
	for v := 0; v < n; v++ {
		dv := int(offs[v+1] - offs[v])
		deg[v] = dv
		if dv > maxDeg {
			maxDeg = dv
		}
	}

	// Bin sort vertices by degree.
	bin := make([]int, maxDeg+2)
	for v := 0; v < n; v++ {
		bin[deg[v]]++
	}
	start := 0
	for dv := 0; dv <= maxDeg; dv++ {
		num := bin[dv]
		bin[dv] = start
		start += num
	}
	vert := make([]int32, n)
	pos := make([]int, n)
	for v := 0; v < n; v++ {
		pos[v] = bin[deg[v]]
		vert[pos[v]] = int32(v)
		bin[deg[v]]++
	}
	for dv := maxDeg; dv > 0; dv-- {
		bin[dv] = bin[dv-1]
	}
	bin[0] = 0

	for i := 0; i < n; i++ {
		v := int(vert[i])
		coreness[v] = int32(deg[v])
		for _, u32 := range nbrs[offs[v]:offs[v+1]] {
			u := int(u32)
			if deg[u] <= deg[v] {
				continue
			}
			du, pu := deg[u], pos[u]
			pw := bin[du]
			w := int(vert[pw])
			if u != w {
				pos[u], pos[w] = pw, pu
				vert[pu], vert[pw] = int32(w), int32(u)
			}
			bin[du]++
			deg[u]--
		}
	}
	return coreness
}

// CoreFromCoreness converts a coreness array into the d-core vertex set.
func CoreFromCoreness(coreness []int32, d int) *bitset.Set {
	s := bitset.New(len(coreness))
	for v, c := range coreness {
		if int(c) >= d {
			s.Add(v)
		}
	}
	return s
}
