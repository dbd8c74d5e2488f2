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

	"repro/internal/dynamic"
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
	RebuiltHierarchies     int // invalidated artifacts re-derived from one shared sweep

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
// ctx bounds only the incremental maintenance of attached watches and
// is checked once before mutating; once mutation starts, the batch and
// its rebuild always complete (the rebuild is the cheap part — Derive
// retains everything the batch provably did not affect). A batch where
// every update is a no-op returns without bumping the version.
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
	for _, up := range updates {
		switch {
		case up.Op == EdgeInsert && e.dyn.AddEdge(up.Layer, up.U, up.V):
			stats.Inserted++
			for _, w := range e.watches {
				w.m.ObserveAdd(ctx, up.Layer, up.U, up.V)
			}
		case up.Op == EdgeDelete && e.dyn.RemoveEdge(up.Layer, up.U, up.V):
			stats.Deleted++
			for _, w := range e.watches {
				w.m.ObserveRemove(ctx, up.Layer, up.U, up.V)
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
	e.st.Store(&engineState{g: ng, pr: np, version: st.version + 1})
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

// CoreWatch is a maintained d-coherent core over a mutable engine's
// graph. ApplyUpdates lands each edge change on the shared graph and
// then hands it to every open watch's dynamic.Maintainer, so the core
// follows every batch without a recomputation. Every method takes the
// engine's update lock, so a watch never reads a half-applied batch.
type CoreWatch struct {
	e      *Engine
	m      *dynamic.Maintainer
	closed bool
}

// Watch attaches a maintained d-CC over the given layer subset of a
// mutable engine, initialized against the current graph. Cancelling ctx
// mid-initialization still returns a usable watch with Truncated set.
func (e *Engine) Watch(ctx context.Context, layers []int, d int) (*CoreWatch, error) {
	if !e.mutable {
		return nil, ErrImmutableEngine
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	m, err := dynamic.NewMaintainer(ctx, e.dyn, layers, d)
	if err != nil {
		return nil, fmt.Errorf("dccs: %w", err)
	}
	w := &CoreWatch{e: e, m: m}
	e.watches = append(e.watches, w)
	return w, nil
}

// Core returns a sorted snapshot of the maintained core (a superset of
// the exact core while Truncated reports true).
func (w *CoreWatch) Core() []int32 {
	w.e.mu.Lock()
	defer w.e.mu.Unlock()
	return w.m.Core().Slice32()
}

// Truncated reports whether cancelled maintenance left the watch stale
// (see dynamic.Maintainer.Truncated).
func (w *CoreWatch) Truncated() bool {
	w.e.mu.Lock()
	defer w.e.mu.Unlock()
	return w.m.Truncated()
}

// Repair finishes deferred maintenance; it reports whether the core is
// exact on return. On a closed watch it does no work (see Close).
func (w *CoreWatch) Repair(ctx context.Context) bool {
	w.e.mu.Lock()
	defer w.e.mu.Unlock()
	if w.closed {
		return !w.m.Truncated()
	}
	return w.m.Repair(ctx)
}

// Close detaches the watch and freezes it at its state at Close: later
// batches no longer maintain it, Core and Truncated keep reporting that
// state, and Repair does no work and returns !Truncated. A truncated
// watch's deferred peel would read degree counters that missed every
// later batch against the current graph, and report a stale core as
// exact. Closing twice is a no-op.
func (w *CoreWatch) Close() {
	w.e.mu.Lock()
	defer w.e.mu.Unlock()
	w.closed = true
	w.e.watches = slices.DeleteFunc(w.e.watches, func(o *CoreWatch) bool { return o == w })
}
