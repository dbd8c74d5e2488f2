// Live graphs: the mutable Engine mode.
//
// A mutable Engine serves the same query API as an immutable one but
// accepts batched edge updates through ApplyUpdates. Each accepted
// batch produces a brand-new engine generation — graph, artifacts,
// version — installed with one atomic pointer swap: queries in flight
// finish on the generation they started with, new queries (and new
// cache keys) see the next one. Artifact reconstruction is incremental
// via core.Derive — only the layers an update touched recompute their
// coreness, and only the per-d hierarchies at or below the batch's
// coreness bound are invalidated and rebuilt, on all of the engine's
// workers (DESIGN.md § Live graphs).
package dccs

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/bitset"
	"repro/internal/dynamic"
	"repro/internal/kcore"
	"repro/internal/multilayer"
)

// ErrImmutableEngine is returned by update operations on an engine that
// was created with NewEngine rather than NewMutableEngine.
var ErrImmutableEngine = errors.New("dccs: engine is immutable (created with NewEngine; use NewMutableEngine for live graphs)")

// EdgeOp selects the direction of one EdgeUpdate.
type EdgeOp uint8

const (
	// EdgeInsert adds the edge; inserting an existing edge is a no-op.
	EdgeInsert EdgeOp = iota
	// EdgeDelete removes the edge; deleting a missing edge is a no-op.
	EdgeDelete
)

// EdgeUpdate is one edge mutation on one layer of a mutable engine's
// graph.
type EdgeUpdate struct {
	Op    EdgeOp
	Layer int
	U, V  int
}

// UpdateStats reports what one ApplyUpdates batch did: how many updates
// changed the graph, what the incremental rebuild preserved, and the
// version the engine advanced to. A batch of pure no-ops leaves the
// version unchanged and skips the rebuild entirely.
type UpdateStats struct {
	Applied  int // updates in the batch
	Inserted int // edges actually added
	Deleted  int // edges actually removed
	NoOps    int // updates that matched existing state

	DirtyLayers            int // layers whose coreness was recomputed
	InvalidatedHierarchies int // per-d artifacts dropped by the batch
	RetainedHierarchies    int // per-d artifacts carried over unchanged
	RebuiltHierarchies     int // invalidated artifacts re-derived in one multi-d pass

	Version        uint64        // engine version after the batch
	FreezeElapsed  time.Duration // export of the mutated graph to CSR (0 for no-ops)
	DeriveElapsed  time.Duration // incremental artifact derivation (0 for no-ops)
	RebuildElapsed time.Duration // FreezeElapsed + DeriveElapsed
}

// NewMutableEngine returns a live-graph Engine initially serving g.
// Queries work exactly as on an immutable engine; ApplyUpdates mutates
// the graph. The initial version is 0 and the initial fingerprint equals
// g.Fingerprint(), so a mutable engine that never updates is
// cache-compatible with an immutable one over the same graph.
func NewMutableEngine(g *Graph, cfg EngineConfig) (*Engine, error) {
	e, err := NewEngine(g, cfg)
	if err != nil {
		return nil, err
	}
	e.mutable = true
	e.dyn = dynamic.FromMultilayer(g)
	return e, nil
}

// Mutable reports whether this engine accepts ApplyUpdates.
func (e *Engine) Mutable() bool { return e.mutable }

// ApplyUpdates applies a batch of edge updates and swaps in the next
// engine generation. Batches are validated up front (an invalid update
// rejects the whole batch before anything lands) and serialized per
// engine; concurrent queries never observe a half-applied batch —
// they run against either the previous generation or the next one.
//
// ctx is checked once before mutating; once mutation starts, the batch
// and its rebuild always complete (the rebuild is the cheap part —
// Derive retains everything the batch provably did not affect). After
// the rebuild each attached watch the batch can have changed is
// refreshed by one d-CC peel, and ctx is checked once more before each
// of those: a watch whose refresh it cancels keeps the exact core of an
// earlier generation and reports Truncated. A batch where every update
// is a no-op returns without bumping the version.
func (e *Engine) ApplyUpdates(ctx context.Context, updates []EdgeUpdate) (*UpdateStats, error) {
	if !e.mutable {
		return nil, ErrImmutableEngine
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := validateUpdates(e.Graph(), updates); err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	st := e.st.Load()
	stats := &UpdateStats{Applied: len(updates), Version: st.version}
	// changed lists the edge of every effective update in batch order, an
	// edge inserted and deleted within the batch twice; Derive reads it.
	var changed []multilayer.Edge
	marks := make([]watchMarks, len(e.watches))
	for _, up := range updates {
		switch {
		case up.Op == EdgeInsert && e.dyn.AddEdge(up.Layer, up.U, up.V):
			stats.Inserted++
			for i, w := range e.watches {
				marks[i].grew = marks[i].grew || slices.Contains(w.layers, up.Layer)
			}
		case up.Op == EdgeDelete && e.dyn.RemoveEdge(up.Layer, up.U, up.V):
			stats.Deleted++
			for i, w := range e.watches {
				marks[i].shrank = marks[i].shrank ||
					slices.Contains(w.layers, up.Layer) && w.core.Contains(up.U) && w.core.Contains(up.V)
			}
		default:
			stats.NoOps++
			continue
		}
		changed = append(changed, multilayer.Edge{Layer: up.Layer, U: up.U, V: up.V})
	}
	if len(changed) == 0 {
		return stats, nil
	}
	start := time.Now()
	ng := e.dyn.Freeze()
	stats.FreezeElapsed = time.Since(start)
	np, info := st.pr.Derive(ng, changed, st.version+1)
	stats.RebuildElapsed = time.Since(start)
	stats.DeriveElapsed = stats.RebuildElapsed - stats.FreezeElapsed
	stats.DirtyLayers = info.DirtyLayers
	stats.InvalidatedHierarchies = info.InvalidatedHierarchies
	stats.RetainedHierarchies = info.RetainedHierarchies
	stats.RebuiltHierarchies = info.RebuiltHierarchies
	stats.Version = st.version + 1
	next := &engineState{g: ng, pr: np, version: st.version + 1}
	e.st.Store(next)
	for i, w := range e.watches {
		w.refresh(ctx, next, marks[i])
	}
	return stats, nil
}

// validateUpdates checks a batch against g's dimensions, which never
// change on a live graph, so a malformed batch is rejected before any
// of it lands: once mutation starts, a batch is not transactional.
func validateUpdates(g *Graph, updates []EdgeUpdate) error {
	n, l := g.N(), g.L()
	for i, up := range updates {
		switch {
		case up.Op != EdgeInsert && up.Op != EdgeDelete:
			return fmt.Errorf("dccs: update %d: unknown op %d", i, uint8(up.Op))
		case up.Layer < 0 || up.Layer >= l:
			return fmt.Errorf("dccs: update %d: layer %d out of range [0,%d)", i, up.Layer, l)
		case up.U < 0 || up.U >= n || up.V < 0 || up.V >= n:
			return fmt.Errorf("dccs: update %d: endpoint out of range [0,%d): {%d,%d}", i, n, up.U, up.V)
		case up.U == up.V:
			return fmt.Errorf("dccs: update %d: self-loop at vertex %d", i, up.U)
		}
	}
	return nil
}

// CoreWatch is the d-coherent core of one layer subset of a mutable
// engine's graph, kept current by ApplyUpdates: after each batch's
// Derive, every watch the batch can have changed is refreshed by one
// kcore.DCC peel on the new generation, seeded with a superset of the
// new core (DESIGN.md § Watches). Every method takes the engine's
// update lock, so a watch never reads a half-applied batch.
type CoreWatch struct {
	e      *Engine
	layers []int
	d      int
	core   *bitset.Set // the exact d-CC of the current generation, or of an earlier one while stale
	stale  bool        // a cancelled refresh left core behind the current generation
	closed bool
}

// watchMarks records what one batch can have done to a watch's core: an
// insertion on a watched layer may grow it, and a deletion with both
// endpoints inside it may shrink it. Any other update leaves it as is.
type watchMarks struct{ grew, shrank bool }

// refresh brings the watch's core to the generation st after a batch
// with marks m. It polls ctx once when there is work; cancellation
// leaves the core exact for an earlier generation and marks it stale.
// The seed always contains the new d-CC, so the peel returns it exactly:
// the Lemma 1 scope of st's coreness contains every d-CC, and after a
// batch that only deleted edges on the watched layers the new d-CC lies
// inside the previous one. When no deletion lay inside the previous
// core, that core is still d-dense, so the peel is skipped.
func (w *CoreWatch) refresh(ctx context.Context, st *engineState, m watchMarks) {
	if !m.grew && !m.shrank && !w.stale {
		return
	}
	if ctx != nil && ctx.Err() != nil {
		w.stale = true
		return
	}
	seed := w.core
	if m.grew || w.stale {
		seed = st.pr.CoreIntersection(w.layers, w.d)
	}
	w.core = kcore.DCC(st.g, seed, w.layers, w.d)
	w.stale = false
}

// Watch attaches a d-CC over the given layer subset of a mutable engine,
// computed on the current graph. ctx is polled once before that peel:
// a watch created under a cancelled ctx is returned with an empty core
// and Truncated set, and Repair computes its core.
func (e *Engine) Watch(ctx context.Context, layers []int, d int) (*CoreWatch, error) {
	if !e.mutable {
		return nil, ErrImmutableEngine
	}
	if d < 1 {
		return nil, fmt.Errorf("dccs: degree threshold d = %d, want ≥ 1", d)
	}
	if err := checkLayers(e.Graph(), layers); err != nil {
		return nil, err
	}
	for i, layer := range layers {
		if slices.Contains(layers[:i], layer) {
			return nil, fmt.Errorf("dccs: duplicate layer %d", layer)
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.st.Load()
	w := &CoreWatch{e: e, layers: slices.Clone(layers), d: d, core: bitset.New(st.g.N()), stale: true}
	w.refresh(ctx, st, watchMarks{})
	e.watches = append(e.watches, w)
	return w, nil
}

// Core returns a sorted snapshot of the watched core: the exact d-CC of
// the engine's current graph, or, while Truncated reports true, the
// exact d-CC of an earlier generation (empty if the watch never had
// one).
func (w *CoreWatch) Core() []int32 {
	w.e.mu.Lock()
	defer w.e.mu.Unlock()
	return w.core.Slice32()
}

// Truncated reports whether a cancelled refresh left the core at an
// earlier generation of the graph.
func (w *CoreWatch) Truncated() bool {
	w.e.mu.Lock()
	defer w.e.mu.Unlock()
	return w.stale
}

// Repair refreshes a truncated watch on the current generation, polling
// ctx once before the peel; it reports whether the core is exact on
// return. On a closed watch it does no work (see Close).
func (w *CoreWatch) Repair(ctx context.Context) bool {
	w.e.mu.Lock()
	defer w.e.mu.Unlock()
	if !w.closed {
		w.refresh(ctx, w.e.st.Load(), watchMarks{})
	}
	return !w.stale
}

// Close detaches the watch and freezes it at its state at Close: later
// batches no longer refresh it, Core and Truncated keep reporting that
// state, and Repair does no work and returns !Truncated. Closing twice
// is a no-op.
func (w *CoreWatch) Close() {
	w.e.mu.Lock()
	defer w.e.mu.Unlock()
	w.closed = true
	w.e.watches = slices.DeleteFunc(w.e.watches, func(o *CoreWatch) bool { return o == w })
}
