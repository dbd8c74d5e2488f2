// Package live owns the mutable half of a live-graph engine: a
// dynamic.Graph under a store lock, batch application of edge updates
// with dirty-set accounting for core.Derive, and optional maintained
// d-CC watches (dynamic.Maintainer) that observe every mutation exactly
// once even though several of them share the one graph.
//
// The store deliberately knows nothing about Prepared artifacts,
// caching, or HTTP: it turns a batch of updates into (a) the mutated
// graph and (b) the list of edges the batch changed, and core.Derive
// decides what that invalidates.
package live

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"repro/internal/dynamic"
	"repro/internal/multilayer"
)

// Op is an edge-update operation.
type Op uint8

const (
	// OpInsert adds the edge; inserting an existing edge is a no-op.
	OpInsert Op = iota
	// OpDelete removes the edge; deleting a missing edge is a no-op.
	OpDelete
)

// String returns the wire name of the operation.
func (op Op) String() string {
	switch op {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Update is one edge mutation on one layer.
type Update struct {
	Op    Op
	Layer int
	U, V  int
}

// BatchResult summarizes one applied batch.
type BatchResult struct {
	Inserted int
	Deleted  int
	NoOps    int

	// Edges lists the edge of every effective update, in batch order: an
	// edge inserted and then deleted within the batch appears twice. It
	// is what core.Derive reads, and empty when every update was a no-op
	// (the engine then skips the version bump and rebuild entirely).
	Edges []multilayer.Edge
}

// Store serializes all mutation and export of one mutable graph.
type Store struct {
	// n and l never change for a live graph. They are cached here
	// because Validate runs without the lock, while Freeze swaps the
	// dynamic graph's base that dyn.N and dyn.L read through.
	n, l int

	mu      sync.Mutex
	dyn     *dynamic.Graph
	watches []*Watch // slice, not a map: deterministic fan-out order
}

// NewStore returns a mutable store whose initial graph is src. src is
// shared, not copied, and never written.
func NewStore(src *multilayer.Graph) *Store {
	return &Store{n: src.N(), l: src.L(), dyn: dynamic.FromMultilayer(src)}
}

// N returns the vertex count.
func (s *Store) N() int { return s.n }

// L returns the layer count.
func (s *Store) L() int { return s.l }

// Validate checks a batch against the store's dimensions without
// applying anything, so callers can reject malformed input before any
// mutation lands (batches are not transactional once Apply starts).
func (s *Store) Validate(updates []Update) error {
	n, l := s.n, s.l
	for i, up := range updates {
		if up.Op != OpInsert && up.Op != OpDelete {
			return fmt.Errorf("update %d: unknown op %d", i, uint8(up.Op))
		}
		if up.Layer < 0 || up.Layer >= l {
			return fmt.Errorf("update %d: layer %d out of range [0,%d)", i, up.Layer, l)
		}
		if up.U < 0 || up.U >= n || up.V < 0 || up.V >= n {
			return fmt.Errorf("update %d: endpoint out of range [0,%d): {%d,%d}", i, n, up.U, up.V)
		}
		if up.U == up.V {
			return fmt.Errorf("update %d: self-loop at vertex %d", i, up.U)
		}
	}
	return nil
}

// Apply applies the batch in order under the store lock and returns
// what it changed. Updates must have passed Validate. Mutations always
// land in full — ctx only bounds the incremental maintenance of any
// attached watches, which stay in their documented valid-but-truncated
// state when cut short.
func (s *Store) Apply(ctx context.Context, updates []Update) BatchResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	var res BatchResult
	for _, up := range updates {
		switch up.Op {
		case OpInsert:
			if !s.dyn.AddEdge(up.Layer, up.U, up.V) {
				res.NoOps++
				continue
			}
			res.Inserted++
			for _, w := range s.watches {
				w.m.ObserveAdd(ctx, up.Layer, up.U, up.V)
			}
		case OpDelete:
			if !s.dyn.RemoveEdge(up.Layer, up.U, up.V) {
				res.NoOps++
				continue
			}
			res.Deleted++
			for _, w := range s.watches {
				w.m.ObserveRemove(ctx, up.Layer, up.U, up.V)
			}
		}
		res.Edges = append(res.Edges, multilayer.Edge{Layer: up.Layer, U: up.U, V: up.V})
	}
	return res
}

// Freeze exports the current graph as an immutable CSR graph, rebuilding
// only the layers edited since the previous Freeze (see
// dynamic.Graph.Freeze). It holds the store lock, so the export is never
// interleaved with an Apply.
func (s *Store) Freeze() *multilayer.Graph {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dyn.Freeze()
}

// Watch is a maintained d-coherent core over the store's graph. It
// observes every subsequent Apply through the maintainer's incremental
// machinery; all accessors take the store lock, so a watch never reads
// a half-applied batch.
type Watch struct {
	store *Store
	m     *dynamic.Maintainer
}

// Watch attaches a maintained d-CC over the given layer subset,
// initialized against the current graph. Cancelling ctx mid-init
// returns a usable watch with Truncated set (same contract as
// dynamic.NewMaintainer).
func (s *Store) Watch(ctx context.Context, layers []int, d int) (*Watch, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, err := dynamic.NewMaintainer(ctx, s.dyn, layers, d)
	if err != nil {
		return nil, err
	}
	w := &Watch{store: s, m: m}
	s.watches = append(s.watches, w)
	return w, nil
}

// Core returns a sorted snapshot of the current maintained core (a
// superset of the exact core while Truncated reports true).
func (w *Watch) Core() []int32 {
	w.store.mu.Lock()
	defer w.store.mu.Unlock()
	out := make([]int32, 0, w.m.CoreSize())
	w.m.Core().ForEach(func(v int) bool {
		out = append(out, int32(v))
		return true
	})
	return out
}

// Truncated reports whether a cancelled operation left the watch with
// deferred maintenance (see dynamic.Maintainer.Truncated).
func (w *Watch) Truncated() bool {
	w.store.mu.Lock()
	defer w.store.mu.Unlock()
	return w.m.Truncated()
}

// Repair finishes deferred maintenance; it reports whether the core is
// exact on return.
func (w *Watch) Repair(ctx context.Context) bool {
	w.store.mu.Lock()
	defer w.store.mu.Unlock()
	return w.m.Repair(ctx)
}

// Close detaches the watch from the store; subsequent updates no longer
// maintain it. Closing twice is a no-op.
func (w *Watch) Close() {
	w.store.mu.Lock()
	defer w.store.mu.Unlock()
	for i, o := range w.store.watches {
		if o == w {
			w.store.watches = slices.Delete(w.store.watches, i, i+1)
			return
		}
	}
}
