// Package multilayer implements the multi-layer graph substrate of the
// paper: a fixed vertex set V shared by l layers, each layer an undirected
// simple graph over V. Graph is immutable after Build and safe for
// concurrent readers. The DCCS algorithms run each query on one compact
// subgraph (Compact): the vertices that survive vertex deletion,
// renumbered densely, with every layer cut down to its reduced d-core.
// Within it they traverse the adjacency under bitset membership masks.
//
// Each layer is stored in CSR (compressed sparse row) form: one flat
// offsets array and one flat neighbor array, with vertex v's sorted
// adjacency at neighbors[offsets[v]:offsets[v+1]]. Compared to the
// earlier per-vertex slice-of-slices layout this removes 24 bytes of
// slice header per vertex per layer and one pointer indirection from
// Neighbors — the hot loop of every algorithm — and it makes the
// on-disk binary format (io_binary.go) a straight dump of the backing
// arrays.
package multilayer

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/bitset"
	"repro/internal/leio"
)

// csrLayer is one layer's adjacency in CSR form. offsets has length n+1
// with offsets[0] == 0; neighbors holds each undirected edge twice, the
// per-vertex ranges sorted ascending with no duplicates or self-loops.
type csrLayer struct {
	offsets   []int64
	neighbors []int32
}

// Graph is an immutable multi-layer graph (V, E1, …, El). Vertices are the
// integers 0..N()-1 on every layer; a vertex absent from some layer is
// simply isolated there, matching the paper's convention.
type Graph struct {
	n      int
	layers []csrLayer
}

// Edge is the undirected edge {U, V} on one layer.
type Edge struct {
	Layer, U, V int
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// L returns the number of layers.
func (g *Graph) L() int { return len(g.layers) }

// M returns the number of undirected edges on the given layer.
func (g *Graph) M(layer int) int { return len(g.layers[layer].neighbors) / 2 }

// MTotal returns Σ_i |E_i|, the total edge count across layers (edges
// present on several layers are counted once per layer), as reported in
// the second column of the paper's Fig 12.
func (g *Graph) MTotal() int {
	t := 0
	for i := range g.layers {
		t += g.M(i)
	}
	return t
}

// Neighbors returns the sorted adjacency list of v on the given layer.
// The returned slice is owned by the graph and must not be modified.
func (g *Graph) Neighbors(layer, v int) []int32 {
	la := &g.layers[layer]
	return la.neighbors[la.offsets[v]:la.offsets[v+1]]
}

// LayerCSR exposes the raw CSR arrays of one layer: offsets of length
// N()+1 and the flat neighbor array, with vertex v's sorted adjacency at
// neighbors[offsets[v]:offsets[v+1]]. Both slices are owned by the graph
// and must not be modified. Hot loops that sweep whole layers (the kcore
// peels) iterate these directly; everything else goes through Neighbors.
func (g *Graph) LayerCSR(layer int) (offsets []int64, neighbors []int32) {
	la := &g.layers[layer]
	return la.offsets, la.neighbors
}

// Degree returns the degree of v on the given layer.
func (g *Graph) Degree(layer, v int) int {
	la := &g.layers[layer]
	return int(la.offsets[v+1] - la.offsets[v])
}

// HasEdge reports whether {u, v} is an edge on the given layer.
func (g *Graph) HasEdge(layer, u, v int) bool {
	list := g.Neighbors(layer, u)
	i := sort.Search(len(list), func(i int) bool { return list[i] >= int32(v) })
	return i < len(list) && list[i] == int32(v)
}

// DegreeIn returns |N_layer(v) ∩ s|, the degree of v inside the subgraph
// induced by s on the given layer.
func (g *Graph) DegreeIn(layer, v int, s *bitset.Set) int {
	d := 0
	for _, u := range g.Neighbors(layer, v) {
		if s.Contains(int(u)) {
			d++
		}
	}
	return d
}

// UnionEdgeCount returns |∪_i E_i|, the number of distinct undirected
// edges across all layers (third column of Fig 12).
func (g *Graph) UnionEdgeCount() int {
	total := 0
	mark := make([]int, g.n) // mark[u] = v+1 when edge (v,u) already seen for current v
	for v := 0; v < g.n; v++ {
		for layer := 0; layer < g.L(); layer++ {
			for _, u := range g.Neighbors(layer, v) {
				if int(u) > v && mark[u] != v+1 {
					mark[u] = v + 1
					total++
				}
			}
		}
	}
	return total
}

// UnionNeighbors returns the sorted set of neighbors of v across all
// layers. It allocates; use for index construction, not inner loops.
func (g *Graph) UnionNeighbors(v int) []int32 {
	var out []int32
	for layer := 0; layer < g.L(); layer++ {
		out = append(out, g.Neighbors(layer, v)...)
	}
	slices.Sort(out)
	return dedupSorted(out)
}

func dedupSorted(xs []int32) []int32 {
	if len(xs) == 0 {
		return xs
	}
	w := 1
	for i := 1; i < len(xs); i++ {
		if xs[i] != xs[w-1] {
			xs[w] = xs[i]
			w++
		}
	}
	return xs[:w]
}

// Equal reports whether g and h are the same graph: same vertex count and
// the same adjacency on every layer. Because both CSR arrays are
// canonical (offsets determined by degrees, neighbor ranges sorted and
// deduplicated), structural equality is array equality; this is what the
// text↔binary round-trip tests assert.
func (g *Graph) Equal(h *Graph) bool {
	if g.n != h.n || g.L() != h.L() {
		return false
	}
	for i := range g.layers {
		if !slices.Equal(g.layers[i].offsets, h.layers[i].offsets) ||
			!slices.Equal(g.layers[i].neighbors, h.layers[i].neighbors) {
			return false
		}
	}
	return true
}

// Fingerprint returns the leio.Checksum of the graph's canonical .mlgb
// encoding (see EncodeBinary): the dimensions, then every layer's
// offsets and neighbor arrays as little-endian bytes. The encoding is a
// function of the arrays alone, so two graphs compare Equal iff their
// encodings match: equal graphs share a fingerprint, and distinct ones
// collide only with 64-bit checksum odds. The value does not depend on
// how the arrays were loaded or on the host, so a mapped graph and a
// heap decode of the same file agree. Engine snapshots embed it so that
// artifacts computed for one graph are never restored against another,
// and the engine's cache keys start with it. The sections stream
// through the hash in place, without a copy.
func (g *Graph) Fingerprint() uint64 {
	var c leio.Checksum
	_ = g.EncodeBinary(&c) // writing to a Checksum cannot fail
	return c.Sum64()
}

// Stats summarizes a multi-layer graph in the format of the paper's
// Fig 12.
type Stats struct {
	N          int // |V(G)|
	TotalEdges int // Σ_i |E(G_i)|
	UnionEdges int // |∪_i E(G_i)|
	Layers     int // l(G)
}

// Stats computes the Fig 12 summary of g.
func (g *Graph) Stats() Stats {
	return Stats{N: g.n, TotalEdges: g.MTotal(), UnionEdges: g.UnionEdgeCount(), Layers: g.L()}
}

func (s Stats) String() string {
	return fmt.Sprintf("n=%d totalEdges=%d unionEdges=%d layers=%d",
		s.N, s.TotalEdges, s.UnionEdges, s.Layers)
}

// Builder accumulates edges and produces an immutable Graph. Duplicate
// edges and self-loops are dropped at Build time, and edges are stored in
// both directions, so callers may add each undirected edge once in either
// orientation.
type Builder struct {
	n      int
	layers int
	edges  [][][2]int32 // per-layer edge list
}

// NewBuilder returns a Builder for a graph with n vertices and the given
// number of layers. It panics on negative dimensions — a programming
// error in generator code; decoders handling untrusted input use
// newBuilderChecked so malformed dimensions surface as errors.
func NewBuilder(n, layers int) *Builder {
	b, err := newBuilderChecked(n, layers)
	if err != nil {
		panic(err)
	}
	return b
}

// newBuilderChecked is the error-returning constructor behind NewBuilder,
// the form decode paths must use (dccs-vet's errpanic analyzer rejects
// decoder entry points that can reach a panic).
func newBuilderChecked(n, layers int) (*Builder, error) {
	if n < 0 || layers < 0 {
		return nil, fmt.Errorf("multilayer: negative dimensions n=%d layers=%d", n, layers)
	}
	return &Builder{n: n, layers: layers, edges: make([][][2]int32, layers)}, nil
}

// AddEdge records the undirected edge {u, v} on the given layer. It
// returns an error if the layer or endpoints are out of range. Self-loops
// are silently ignored (the d-CC definition concerns neighbors, and a
// self-loop never contributes to coherent density).
func (b *Builder) AddEdge(layer, u, v int) error {
	if layer < 0 || layer >= b.layers {
		return fmt.Errorf("multilayer: layer %d out of range [0,%d)", layer, b.layers)
	}
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		return fmt.Errorf("multilayer: edge (%d,%d) out of range [0,%d)", u, v, b.n)
	}
	if u == v {
		return nil
	}
	b.edges[layer] = append(b.edges[layer], [2]int32{int32(u), int32(v)})
	return nil
}

// MustAddEdge is AddEdge that panics on error, for use by generators whose
// inputs are correct by construction.
func (b *Builder) MustAddEdge(layer, u, v int) {
	if err := b.AddEdge(layer, u, v); err != nil {
		panic(err)
	}
}

// Build sorts, deduplicates and freezes the accumulated edges into a
// Graph in CSR form. The Builder may be reused afterwards; further
// AddEdge calls do not affect the built Graph.
func (b *Builder) Build() *Graph {
	g := &Graph{n: b.n, layers: make([]csrLayer, b.layers)}
	cursor := make([]int64, b.n)
	for layer := 0; layer < b.layers; layer++ {
		edges := b.edges[layer]
		// Counting pass: degrees (duplicates included for now).
		for i := range cursor {
			cursor[i] = 0
		}
		for _, e := range edges {
			cursor[e[0]]++
			cursor[e[1]]++
		}
		offsets := make([]int64, b.n+1)
		for v := 0; v < b.n; v++ {
			offsets[v+1] = offsets[v] + cursor[v]
		}
		// Scatter pass into the flat array, then sort each vertex range.
		neighbors := make([]int32, offsets[b.n])
		copy(cursor, offsets[:b.n])
		for _, e := range edges {
			neighbors[cursor[e[0]]] = e[1]
			cursor[e[0]]++
			neighbors[cursor[e[1]]] = e[0]
			cursor[e[1]]++
		}
		for v := 0; v < b.n; v++ {
			slices.Sort(neighbors[offsets[v]:offsets[v+1]])
		}
		// Dedup pass, compacting left in place. The write head never
		// overtakes the read head, so one sweep rebuilds both arrays.
		w := int64(0)
		for v := 0; v < b.n; v++ {
			start, end := offsets[v], offsets[v+1]
			offsets[v] = w
			for i := start; i < end; i++ {
				if i > start && neighbors[i] == neighbors[i-1] {
					continue
				}
				neighbors[w] = neighbors[i]
				w++
			}
		}
		offsets[b.n] = w
		g.layers[layer] = csrLayer{offsets: offsets, neighbors: neighbors[:w:w]}
	}
	return g
}

// ReplaceLayers returns a graph equal to g except that layer layers[i]
// takes the CSR arrays offsets[i] and neighbors[i] — the copy-on-write
// step of the dynamic graph's Freeze. Every other layer shares its
// arrays with g, as in LayerSample, so the cost is that of the replaced
// layers alone. The replacement arrays are adopted, not copied; the
// caller must not modify them afterwards. Only the replaced layers are
// validated (offset monotonicity, strictly ascending vertex ranges, ids
// in [0,n), no self-loops) so a buggy producer fails here rather than as
// a mid-query panic; edge symmetry is the caller's contract, as checking
// it would cost as much as rebuilding through Builder.
func (g *Graph) ReplaceLayers(layers []int, offsets [][]int64, neighbors [][]int32) (*Graph, error) {
	if len(offsets) != len(layers) || len(neighbors) != len(layers) {
		return nil, fmt.Errorf("multilayer: %d layers replaced with %d offset and %d neighbor arrays",
			len(layers), len(offsets), len(neighbors))
	}
	ng := &Graph{n: g.n, layers: slices.Clone(g.layers)}
	for i, layer := range layers {
		if layer < 0 || layer >= len(ng.layers) {
			return nil, fmt.Errorf("multilayer: replaced layer %d out of range [0,%d)", layer, len(ng.layers))
		}
		if err := validateCSR(g.n, offsets[i], neighbors[i]); err != nil {
			return nil, fmt.Errorf("multilayer: replaced layer %d: %w", layer, err)
		}
		ng.layers[layer] = csrLayer{offsets: offsets[i], neighbors: neighbors[i]}
	}
	return ng, nil
}

// FromEdgeLists builds a graph directly from per-layer edge lists, a
// convenience for tests and examples. Edges are pairs of vertex ids.
func FromEdgeLists(n int, layers [][][2]int) (*Graph, error) {
	b := NewBuilder(n, len(layers))
	for li, edges := range layers {
		for _, e := range edges {
			if err := b.AddEdge(li, e[0], e[1]); err != nil {
				return nil, err
			}
		}
	}
	return b.Build(), nil
}

// InducedVertexSample returns a new graph over the same vertex ids
// restricted to the vertices in keep: edges with an endpoint outside keep
// are dropped, and dropped vertices become isolated on every layer. This
// mirrors the paper's scalability experiment that selects a fraction p of
// vertices (Fig 26); retaining ids keeps ground-truth bookkeeping simple.
func (g *Graph) InducedVertexSample(keep *bitset.Set) *Graph {
	b := NewBuilder(g.n, g.L())
	for layer := 0; layer < g.L(); layer++ {
		for v := 0; v < g.n; v++ {
			if !keep.Contains(v) {
				continue
			}
			for _, u := range g.Neighbors(layer, v) {
				if int(u) > v && keep.Contains(int(u)) {
					b.MustAddEdge(layer, v, int(u))
				}
			}
		}
	}
	return b.Build()
}

// Compact returns the subgraph of g on the vertex list verts, renumbered
// so that verts[i] becomes vertex i, in which layer i keeps only the
// edges with both endpoints in keep[i] (a set over the new ids, of
// capacity len(verts)). verts must be strictly ascending: the
// renumbering is then monotone, so every neighbor list stays sorted.
// index maps each vertex of g to its position in verts, or to -1 when it
// is not listed; every member of a keep set must be listed.
//
// Each layer takes two passes: a sizing pass sums the kept rows'
// lengths, which bounds the layer's neighbor array, and a fill pass
// reads each kept row once, so every array is allocated once.
func (g *Graph) Compact(verts, index []int32, keep []*bitset.Set) *Graph {
	n := len(verts)
	c := &Graph{n: n, layers: make([]csrLayer, len(g.layers))}
	for i := range g.layers {
		src, in := &g.layers[i], keep[i]
		bound := int64(0)
		in.ForEach(func(v int) bool {
			bound += src.offsets[verts[v]+1] - src.offsets[verts[v]]
			return true
		})
		neighbors := make([]int32, 0, bound) // never reallocates: bound covers every kept row
		offsets := make([]int64, n+1)
		for v, ov := range verts {
			if in.Contains(v) {
				for _, u := range src.neighbors[src.offsets[ov]:src.offsets[ov+1]] {
					if nu := index[u]; nu >= 0 && in.Contains(int(nu)) {
						neighbors = append(neighbors, nu)
					}
				}
			}
			offsets[v+1] = int64(len(neighbors))
		}
		c.layers[i] = csrLayer{offsets: offsets, neighbors: neighbors}
	}
	return c
}

// LayerSample returns a new graph containing only the given layers, in
// the given order. This mirrors the paper's Fig 27 experiment selecting a
// fraction q of layers. The sampled graph shares the CSR arrays of the
// retained layers with g — both are immutable, so the aliasing is safe
// and the sample is O(1) per layer.
func (g *Graph) LayerSample(layers []int) *Graph {
	ng := &Graph{n: g.n, layers: make([]csrLayer, len(layers))}
	for i, layer := range layers {
		if layer < 0 || layer >= g.L() {
			panic(fmt.Sprintf("multilayer: layer %d out of range", layer))
		}
		ng.layers[i] = g.layers[layer] // immutable; sharing is safe
	}
	return ng
}
