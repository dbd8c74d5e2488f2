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
// degree bound are invalidated (DESIGN.md § Live graphs).
package dccs

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/live"
)

// ErrImmutableEngine is returned by update operations on an engine that
// was created with NewEngine rather than NewMutableEngine.
var ErrImmutableEngine = errors.New("dccs: engine is immutable (created with NewEngine; use NewMutableEngine for live graphs)")

// EdgeOp selects the direction of one EdgeUpdate.
type EdgeOp uint8

const (
	// EdgeInsert adds the edge; inserting an existing edge is a no-op.
	EdgeInsert EdgeOp = EdgeOp(live.OpInsert)
	// EdgeDelete removes the edge; deleting a missing edge is a no-op.
	EdgeDelete EdgeOp = EdgeOp(live.OpDelete)
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
	RebuiltHierarchies     int // invalidated artifacts re-derived in one shared sweep

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
	e.live = live.NewStore(g)
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
	ups := make([]live.Update, len(updates))
	for i, u := range updates {
		ups[i] = live.Update{Op: live.Op(u.Op), Layer: u.Layer, U: u.U, V: u.V}
	}
	if err := e.live.Validate(ups); err != nil {
		return nil, fmt.Errorf("dccs: %w", err)
	}
	e.updateMu.Lock()
	defer e.updateMu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res := e.live.Apply(ctx, ups)
	st := e.st.Load()
	stats := &UpdateStats{
		Applied:  len(updates),
		Inserted: res.Inserted,
		Deleted:  res.Deleted,
		NoOps:    res.NoOps,
		Version:  st.version,
	}
	if !res.Changed {
		return stats, nil
	}
	start := time.Now()
	ng := e.live.Freeze()
	stats.FreezeElapsed = time.Since(start)
	np, info := st.pr.Derive(ng, core.DirtySet{
		Layers:     res.DirtyLayers,
		UnionVerts: res.Touched,
		MaxDirtyD:  res.MaxDirtyD,
	}, st.version+1)
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

// CoreWatch is a maintained d-coherent core over a mutable engine's
// graph: it tracks every ApplyUpdates batch through the incremental
// maintainer instead of recomputing from scratch. See live.Watch.
type CoreWatch struct {
	w *live.Watch
}

// Watch attaches a maintained d-CC over the given layer subset of a
// mutable engine, initialized against the current graph. Cancelling ctx
// mid-initialization still returns a usable watch with Truncated set.
func (e *Engine) Watch(ctx context.Context, layers []int, d int) (*CoreWatch, error) {
	if !e.mutable {
		return nil, ErrImmutableEngine
	}
	w, err := e.live.Watch(ctx, layers, d)
	if err != nil {
		return nil, fmt.Errorf("dccs: %w", err)
	}
	return &CoreWatch{w: w}, nil
}

// Core returns a sorted snapshot of the maintained core (a superset of
// the exact core while Truncated reports true).
func (cw *CoreWatch) Core() []int32 { return cw.w.Core() }

// Truncated reports whether cancelled maintenance left the watch stale.
func (cw *CoreWatch) Truncated() bool { return cw.w.Truncated() }

// Repair finishes deferred maintenance; it reports whether the core is
// exact on return.
func (cw *CoreWatch) Repair(ctx context.Context) bool { return cw.w.Repair(ctx) }

// Close detaches the watch; later updates no longer maintain it.
func (cw *CoreWatch) Close() { cw.w.Close() }
