// Package dynamic maintains a d-coherent core under edge insertions and
// deletions — the streaming counterpart of the static dCC procedure,
// motivated by the paper's story-identification application where hourly
// snapshot layers evolve as new posts arrive.
//
// Deletions shrink the core by exact cascade peeling. Insertions grow it:
// the only vertices that can join are those reachable from the new edge's
// endpoints through non-core vertices on the watched layers (a joining
// set must "activate" through the new edge, otherwise it would already
// have been in the maximal core), so the maintainer peels the old core
// plus that bounded candidate region. Both directions therefore keep the
// core exactly equal to a from-scratch recomputation, which the property
// tests assert after random update streams.
//
// Updates honor context cancellation under the engine-wide contract (PR
// 2): every Maintainer operation polls its ctx inside the unbounded
// cascade loops, and cancellation leaves a *valid* intermediate state —
// for deletions a superset core with the remaining peel worklist
// stashed, for insertions a pre-grow core marked for rebuild — reported
// by Truncated and finished by Repair (or automatically by the next
// update). A nil ctx runs every operation to completion.
//
// A Maintainer has one mutation protocol. It never writes the graph: the
// owner applies each edge change to the shared Graph (AddEdge,
// RemoveEdge) and then reports an effective one to every Maintainer over
// that graph through ObserveAdd or ObserveRemove, before the next change.
// The root package's mutable Engine is that owner for its watches.
package dynamic

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/bitset"
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
// otherwise. The sorted order makes every traversal built on it (cascade
// peels, region growth) deterministic. The slice is owned by the graph:
// callers must not modify it, and it is only valid until the next update
// of an edge at v.
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

// Maintainer keeps the d-coherent core of a fixed layer subset current
// while the underlying Graph changes. Its owner applies each change to
// the Graph and then observes it (see the package doc); a change that is
// applied but not observed desynchronizes the core.
//
// Operations take a context and poll it inside their cascade loops.
// Cancellation never corrupts the maintainer: the core is left in a
// valid intermediate state with Truncated reporting true — a superset
// core plus the stashed peel worklist when a deletion cascade was cut
// short (resumed incrementally by Repair), or the pre-insertion core
// marked insertDirty when an insertion grow was cut short (Repair falls
// back to a full rebuild, since the grow argument needs the previous
// core to be exact and maximal). Every observed change drains the
// backlog before applying its own incremental step; an insertion does
// so by a full rebuild.
type Maintainer struct {
	g      *Graph
	layers []int
	d      int
	inL    []bool
	core   *bitset.Set
	deg    map[int][]int32 // layer -> degree of core members inside the core

	pending     []int32 // peel worklist stashed by a cancelled cascade
	insertDirty bool    // cancelled insertion grow: full rebuild required

	// region and grown are ObserveAdd's scratch: the candidate-region set
	// and the list of its members, through which each grow clears exactly
	// the bits it set instead of allocating an n-bit set per insertion.
	region *bitset.Set
	grown  []int32
}

// NewMaintainer wraps g and computes the initial d-CC of the given layer
// subset. Cancelling ctx mid-initialization still returns a usable
// maintainer with Truncated set; a nil ctx initializes to completion.
func NewMaintainer(ctx context.Context, g *Graph, layers []int, d int) (*Maintainer, error) {
	if g == nil {
		return nil, fmt.Errorf("dynamic: nil graph")
	}
	if d < 1 {
		return nil, fmt.Errorf("dynamic: d = %d, want ≥ 1", d)
	}
	if len(layers) == 0 {
		return nil, fmt.Errorf("dynamic: empty layer set")
	}
	inL := make([]bool, g.L())
	for _, layer := range layers {
		if layer < 0 || layer >= g.L() {
			return nil, fmt.Errorf("dynamic: layer %d out of range [0,%d)", layer, g.L())
		}
		if inL[layer] {
			return nil, fmt.Errorf("dynamic: duplicate layer %d", layer)
		}
		inL[layer] = true
	}
	m := &Maintainer{
		g:      g,
		layers: append([]int(nil), layers...),
		d:      d,
		inL:    inL,
		deg:    map[int][]int32{},
		region: bitset.New(g.N()),
	}
	for _, layer := range layers {
		m.deg[layer] = make([]int32, g.N())
	}
	m.rebuild(ctx)
	return m, nil
}

// Core returns the current d-CC (a superset of it while Truncated
// reports true). The set is owned by the maintainer; callers must not
// modify it.
func (m *Maintainer) Core() *bitset.Set { return m.core }

// CoreSize returns |C^d_L| under the current graph.
func (m *Maintainer) CoreSize() int { return m.core.Count() }

// Truncated reports whether a cancelled operation left the core stale:
// either a peel cascade awaits resumption or a cancelled insertion grow
// awaits a full rebuild. While true, Core is a superset of (deletion
// backlog) or the pre-insertion value of (insertion backlog) the exact
// core. Repair — or any subsequent update with an uncancelled context —
// restores exactness.
func (m *Maintainer) Truncated() bool {
	return m.insertDirty || len(m.pending) > 0
}

// Repair finishes the maintenance a cancelled operation left behind:
// stashed peel cascades resume incrementally; a cancelled insertion
// grow triggers a full rebuild. It reports whether the core is exact on
// return (false only when ctx itself is cancelled).
func (m *Maintainer) Repair(ctx context.Context) bool {
	if m.insertDirty {
		m.rebuild(ctx)
	} else if len(m.pending) > 0 {
		m.pending = m.peel(ctx, m.pending)
	}
	return !m.Truncated()
}

// rebuild recomputes the core from scratch (initialization and
// insertDirty repair). The rebuild itself is resumable: cancellation
// stashes the remaining seed cascade in pending, which a later Repair
// continues — the full-core seed peel is an ordinary cascade.
func (m *Maintainer) rebuild(ctx context.Context) {
	m.core = bitset.NewFull(m.g.N())
	m.insertDirty = false
	m.pending = m.peel(ctx, m.seedAll())
}

// seedAll returns every current core vertex violating the threshold.
func (m *Maintainer) seedAll() []int32 {
	var queue []int32
	m.core.ForEach(func(v int) bool {
		for _, layer := range m.layers {
			dv := m.degIn(layer, v)
			m.deg[layer][v] = dv
			if dv < int32(m.d) {
				queue = append(queue, int32(v))
				break
			}
		}
		return true
	})
	return queue
}

// degIn counts v's neighbors inside the current core on the layer.
func (m *Maintainer) degIn(layer, v int) int32 {
	c := int32(0)
	for _, u := range m.g.Neighbors(layer, v) {
		if m.core.Contains(int(u)) {
			c++
		}
	}
	return c
}

// adjacentTo reports whether w has a neighbor in s on a watched layer.
func (m *Maintainer) adjacentTo(w int, s *bitset.Set) bool {
	for _, ly := range m.layers {
		for _, x := range m.g.Neighbors(ly, w) {
			if s.Contains(int(x)) {
				return true
			}
		}
	}
	return false
}

// peel removes the queued vertices and cascades until the core is
// d-dense on every watched layer again, or ctx is cancelled. It returns
// the unprocessed remainder of the worklist — nil on completion — which
// the caller stashes in pending; the core/deg state stays consistent at
// every pop, so a stashed worklist resumes exactly where it stopped.
func (m *Maintainer) peel(ctx context.Context, queue []int32) []int32 {
	// Deduplicate lazily: a vertex may be queued more than once; the
	// core membership check on pop makes extra entries harmless.
	steps := 0
	for len(queue) > 0 {
		if steps++; steps&255 == 0 && ctx != nil && ctx.Err() != nil {
			return queue
		}
		v := int(queue[len(queue)-1])
		queue = queue[:len(queue)-1]
		if !m.core.Contains(v) {
			continue
		}
		violates := false
		for _, layer := range m.layers {
			if m.deg[layer][v] < int32(m.d) {
				violates = true
				break
			}
		}
		if !violates {
			continue
		}
		m.core.Remove(v)
		for _, layer := range m.layers {
			for _, u := range m.g.Neighbors(layer, v) {
				if m.core.Contains(int(u)) {
					m.deg[layer][u]--
					if m.deg[layer][u] < int32(m.d) {
						queue = append(queue, u)
					}
				}
			}
		}
	}
	return nil
}

// ObserveRemove incorporates the deletion of {u, v}, which the owner
// has just applied to the Graph, into the maintained core by exact
// cascade. The edge must have existed; observing a deletion that never
// happened desynchronizes the degree counters. Cancellation stashes the
// remaining cascade (see Maintainer).
func (m *Maintainer) ObserveRemove(ctx context.Context, layer, u, v int) {
	if !m.inL[layer] {
		return
	}
	if m.insertDirty {
		// A cancelled grow already scheduled a full rebuild; it runs
		// against the current (post-deletion) graph, so it sees this
		// deletion too and incremental bookkeeping would be unsound.
		m.Repair(ctx)
		return
	}
	if m.core.Contains(u) && m.core.Contains(v) {
		m.deg[layer][u]--
		m.deg[layer][v]--
		m.pending = append(m.pending, int32(u), int32(v))
	}
	// Drain the worklist — this deletion's seeds plus any backlog a
	// cancelled predecessor stashed. A stale superset core with current
	// deg counters is exactly a cascade in progress, so resuming here is
	// sound: peel re-checks the violation on every pop.
	m.pending = m.peel(ctx, m.pending)
}

// ObserveAdd incorporates the insertion of {u, v}, which the owner has
// just applied to the Graph, into the maintained core and grows it
// exactly: any vertex joining the new core must be reachable from the
// new edge's endpoints through non-core vertices on watched layers
// (otherwise the old core was not maximal), so it suffices to peel the
// old core plus that candidate region. Cancellation before the grow
// commits marks the maintainer insertDirty (full rebuild on Repair);
// cancellation during the final peel stashes the cascade like a deletion
// would. A backlog stashed by an earlier cancelled operation cannot be
// resumed here — its counters predate this edge — so in that case the
// maintainer falls back to a full rebuild over the current graph.
func (m *Maintainer) ObserveAdd(ctx context.Context, layer, u, v int) {
	if !m.inL[layer] {
		return
	}
	if m.Truncated() {
		// Backlog unresolved: the incremental grow below needs the
		// previous core exact, and the stashed peel counters do not see
		// this edge, so resuming them could over-peel. Schedule a full
		// rebuild instead — it runs against the current graph, edge
		// included — and run it now unless ctx is already cancelled (then
		// it stays deferred to Repair or the next update).
		m.insertDirty = true
		if ctx == nil || ctx.Err() == nil {
			m.Repair(ctx)
		}
		return
	}
	if m.core.Contains(u) && m.core.Contains(v) {
		m.deg[layer][u]++
		m.deg[layer][v]++
		return
	}
	// Candidate region: search from the non-core endpoints over non-core
	// vertices along watched layers. The region is a reachability closure,
	// so the visit order does not affect it. The core is untouched until
	// the search completes, so cancellation here only marks the grow as
	// pending.
	region, grown := m.region, m.grown[:0]
	for _, w := range []int{u, v} {
		if !m.core.Contains(w) && region.Add(w) {
			grown = append(grown, int32(w))
		}
	}
	for i := 0; i < len(grown); i++ {
		if (i+1)&255 == 0 && ctx != nil && ctx.Err() != nil {
			m.clearRegion(grown)
			m.insertDirty = true
			return
		}
		for _, ly := range m.layers {
			for _, x := range m.g.Neighbors(ly, int(grown[i])) {
				if !m.core.Contains(int(x)) && region.Add(int(x)) {
					grown = append(grown, x)
				}
			}
		}
	}
	// Tentatively admit the region, recompute degrees over the enlarged
	// core, and peel. Old core members cannot be peeled: their degrees
	// only grew, and only those adjacent to the region changed at all.
	m.core.Or(region)
	var queue []int32
	m.core.ForEach(func(w int) bool {
		if region.Contains(w) || m.adjacentTo(w, region) {
			for _, ly := range m.layers {
				m.deg[ly][w] = m.degIn(ly, w)
			}
			for _, ly := range m.layers {
				if m.deg[ly][w] < int32(m.d) {
					queue = append(queue, int32(w))
					break
				}
			}
		}
		return true
	})
	m.clearRegion(grown)
	// Cancellation from here on is an ordinary interrupted cascade: the
	// enlarged core plus recomputed counters is a valid peel-in-progress
	// state, resumed incrementally by Repair.
	m.pending = m.peel(ctx, queue)
}

// clearRegion empties the region scratch set through its member list and
// keeps the list's storage for the next grow.
func (m *Maintainer) clearRegion(grown []int32) {
	for _, w := range grown {
		m.region.Remove(int(w))
	}
	m.grown = grown[:0]
}
