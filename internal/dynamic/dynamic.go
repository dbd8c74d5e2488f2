// Package dynamic holds the mutable graph behind a live-graph engine: a
// copy-on-write multi-layer CSR that takes single edge updates in
// O(deg) and freezes the edited layers into the next immutable
// generation. The root package's mutable Engine owns it; the engine
// refreshes its watched d-coherent cores once per batch, from the frozen
// generation, with the same kcore.DCC peel every search uses.
package dynamic

import (
	"fmt"
	"slices"

	"repro/internal/multilayer"
)

// Graph is a mutable multi-layer graph stored as a copy-on-write CSR: the
// last frozen generation (an immutable multilayer.Graph, shared with
// whoever holds it) plus, per layer, an overlay of the adjacency rows
// edited since. A row is copied out of the base on its first edit and
// kept sorted, so an edge update costs O(deg) — a binary search and a
// slice insert or delete — and Neighbors returns either kind of row
// without allocating. Freeze splices the overlay back into CSR form,
// rebuilding only the layers that have one.
type Graph struct {
	base    *multilayer.Graph
	overlay []map[int32][]int32 // overlay[layer][v] = v's edited row; nil while the layer is unedited
	m       []int               // per-layer undirected edge count
}

// FromMultilayer returns a mutable graph whose initial state is src, in
// O(l): src becomes the base generation and is never written, so the
// caller may keep using it.
func FromMultilayer(src *multilayer.Graph) *Graph {
	g := &Graph{base: src, overlay: make([]map[int32][]int32, src.L()), m: make([]int, src.L())}
	for layer := range g.m {
		g.m[layer] = src.M(layer)
	}
	return g
}

// N returns the vertex count.
func (g *Graph) N() int { return g.base.N() }

// L returns the layer count.
func (g *Graph) L() int { return g.base.L() }

// M returns the undirected edge count of a layer.
func (g *Graph) M(layer int) int { return g.m[layer] }

// HasEdge reports whether {u, v} is an edge on the layer.
func (g *Graph) HasEdge(layer, u, v int) bool {
	_, found := slices.BinarySearch(g.Neighbors(layer, u), int32(v))
	return found
}

// Degree returns the degree of v on the layer.
func (g *Graph) Degree(layer, v int) int { return len(g.Neighbors(layer, v)) }

// Neighbors returns the neighbors of v on the layer in ascending vertex
// id — the edited row if v has one, the base generation's CSR row
// otherwise — so HasEdge is a binary search. The slice is owned by the
// graph: callers must not modify it, and it is only valid until the next
// update of an edge at v.
func (g *Graph) Neighbors(layer, v int) []int32 {
	if row, ok := g.overlay[layer][int32(v)]; ok {
		return row
	}
	return g.base.Neighbors(layer, v)
}

// AddEdge inserts the undirected edge {u, v} on the layer; it reports
// whether the edge was new. Self-loops are rejected with false.
func (g *Graph) AddEdge(layer, u, v int) bool {
	g.check(layer, u, v)
	if u == v || g.HasEdge(layer, u, v) {
		return false
	}
	g.link(layer, int32(u), int32(v))
	g.link(layer, int32(v), int32(u))
	g.m[layer]++
	return true
}

// RemoveEdge deletes the undirected edge {u, v} from the layer; it
// reports whether the edge existed.
func (g *Graph) RemoveEdge(layer, u, v int) bool {
	g.check(layer, u, v)
	if !g.HasEdge(layer, u, v) {
		return false
	}
	g.unlink(layer, int32(u), int32(v))
	g.unlink(layer, int32(v), int32(u))
	g.m[layer]--
	return true
}

func (g *Graph) check(layer, u, v int) {
	if layer < 0 || layer >= g.L() || u < 0 || u >= g.N() || v < 0 || v >= g.N() {
		panic(fmt.Sprintf("dynamic: edge (%d: %d,%d) out of range", layer, u, v))
	}
}

// link inserts u into v's row, which must not contain it.
func (g *Graph) link(layer int, v, u int32) {
	row := g.edit(layer, v)
	i, _ := slices.BinarySearch(row, u)
	g.overlay[layer][v] = slices.Insert(row, i, u)
}

// unlink removes u from v's row, which must contain it.
func (g *Graph) unlink(layer int, v, u int32) {
	row := g.edit(layer, v)
	i, _ := slices.BinarySearch(row, u)
	g.overlay[layer][v] = slices.Delete(row, i, i+1)
}

// edit returns v's overlay row on the layer, copying it out of the base
// generation on first touch: frozen generations are shared with readers
// and are never written.
func (g *Graph) edit(layer int, v int32) []int32 {
	ov := g.overlay[layer]
	if ov == nil {
		ov = map[int32][]int32{}
		g.overlay[layer] = ov
	}
	row, ok := ov[v]
	if !ok {
		row = slices.Clone(g.base.Neighbors(layer, int(v)))
		ov[v] = row
	}
	return row
}

// Freeze returns the current graph as an immutable multilayer.Graph and
// makes it the new base generation. Layers not edited since the previous
// Freeze share their CSR arrays with the previous generation; each edited
// layer is rebuilt in O(n + m_layer) by splice. Without edits Freeze
// returns the base itself. The result is in canonical CSR form, so it is
// Equal to, and fingerprints like, a Builder build of the same edge set.
// Earlier generations are never modified.
func (g *Graph) Freeze() *multilayer.Graph {
	var layers []int
	var offsets [][]int64
	var neighbors [][]int32
	for layer, ov := range g.overlay {
		if ov == nil {
			continue
		}
		off, nbr := g.splice(layer, ov)
		layers = append(layers, layer)
		offsets = append(offsets, off)
		neighbors = append(neighbors, nbr)
	}
	if len(layers) == 0 {
		return g.base
	}
	next, err := g.base.ReplaceLayers(layers, offsets, neighbors)
	if err != nil {
		// Rows are kept sorted, duplicate- and self-loop-free and
		// symmetric by AddEdge/RemoveEdge; failing validation means this
		// package is broken, not the caller.
		panic(err)
	}
	for _, layer := range layers {
		g.overlay[layer] = nil
	}
	g.base = next
	return next
}

// splice builds the CSR arrays of one edited layer. Edited vertices are
// visited in ascending order; the base rows between two of them move as
// one span, their offsets shifted by the size change accumulated so far,
// and each edited row is copied in at its vertex. Every row is the sorted
// adjacency of its vertex, so the arrays are the canonical CSR a cold
// build produces.
func (g *Graph) splice(layer int, ov map[int32][]int32) ([]int64, []int32) {
	edited := make([]int32, 0, len(ov))
	for v := range ov {
		edited = append(edited, v)
	}
	slices.Sort(edited)
	n := g.N()
	baseOff, baseNbr := g.base.LayerCSR(layer)
	off := make([]int64, n+1)
	nbr := make([]int32, 2*g.m[layer])
	w, next := int64(0), 0 // write head; first vertex not yet emitted
	for i := 0; ; i++ {
		end := n
		if i < len(edited) {
			end = int(edited[i])
		}
		shift := w - baseOff[next]
		for v := next; v < end; v++ {
			off[v] = baseOff[v] + shift
		}
		w += int64(copy(nbr[w:], baseNbr[baseOff[next]:baseOff[end]]))
		if end == n {
			break
		}
		off[end] = w
		w += int64(copy(nbr[w:], ov[int32(end)]))
		next = end + 1
	}
	off[n] = w
	return off, nbr
}
