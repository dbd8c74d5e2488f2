package live

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dynamic"
	"repro/internal/multilayer"
	"repro/internal/testutil"
)

func TestValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := NewStore(testutil.RandomGraph(rng, 20, 3, 0.2))
	good := []Update{
		{Op: OpInsert, Layer: 0, U: 0, V: 1},
		{Op: OpDelete, Layer: 2, U: 19, V: 5},
	}
	if err := s.Validate(good); err != nil {
		t.Fatalf("valid batch rejected: %v", err)
	}
	bad := []Update{
		{Op: Op(7), Layer: 0, U: 0, V: 1},
		{Op: OpInsert, Layer: -1, U: 0, V: 1},
		{Op: OpInsert, Layer: 3, U: 0, V: 1},
		{Op: OpInsert, Layer: 0, U: -1, V: 1},
		{Op: OpInsert, Layer: 0, U: 0, V: 20},
		{Op: OpInsert, Layer: 0, U: 4, V: 4},
	}
	for i, up := range bad {
		if err := s.Validate([]Update{up}); err == nil {
			t.Errorf("bad update %d accepted: %+v", i, up)
		}
	}
	if OpInsert.String() != "insert" || OpDelete.String() != "delete" {
		t.Fatal("Op.String wire names changed")
	}
}

// TestApplyBookkeeping pins the changed-edge contract on a hand-built
// graph: every effective update reports its edge, in batch order and as
// given; no-ops report nothing; an edge inserted and then deleted within
// one batch is reported once per update.
func TestApplyBookkeeping(t *testing.T) {
	// Layer 0: path 0-1-2; layer 1: empty.
	dg := dynamic.NewGraph(5, 2)
	dg.AddEdge(0, 0, 1)
	dg.AddEdge(0, 1, 2)
	s := NewStore(dg.Freeze())

	res := s.Apply(context.Background(), []Update{
		{Op: OpInsert, Layer: 0, U: 0, V: 2}, // closes the triangle
		{Op: OpInsert, Layer: 0, U: 0, V: 2}, // no-op: already present
		{Op: OpDelete, Layer: 0, U: 3, V: 4}, // no-op: never existed
		{Op: OpInsert, Layer: 1, U: 3, V: 4}, // fresh edge on the empty layer
		{Op: OpDelete, Layer: 1, U: 4, V: 3}, // ...deleted again within the batch
	})
	if res.Inserted != 2 || res.Deleted != 1 || res.NoOps != 2 {
		t.Fatalf("counts: %+v", res)
	}
	want := []multilayer.Edge{{Layer: 0, U: 0, V: 2}, {Layer: 1, U: 3, V: 4}, {Layer: 1, U: 4, V: 3}}
	if !slices.Equal(res.Edges, want) {
		t.Fatalf("Edges = %v, want %v", res.Edges, want)
	}

	res = s.Apply(context.Background(), []Update{{Op: OpDelete, Layer: 0, U: 2, V: 0}})
	if res.Deleted != 1 || !slices.Equal(res.Edges, []multilayer.Edge{{Layer: 0, U: 2, V: 0}}) {
		t.Fatalf("delete: %+v", res)
	}

	// A batch of pure no-ops reports no edges.
	res = s.Apply(context.Background(), []Update{{Op: OpDelete, Layer: 0, U: 0, V: 2}})
	if res.NoOps != 1 || len(res.Edges) != 0 {
		t.Fatalf("no-op batch: %+v", res)
	}
}

// TestFreezeMatchesStream cross-checks the export path: a store that
// absorbed a random stream freezes to exactly the graph a cold Builder
// builds from a shadow edge set fed the same stream.
func TestFreezeMatchesStream(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	src := testutil.RandomGraph(rng, 40, 3, 0.15)
	s := NewStore(src)
	if s.N() != src.N() || s.L() != src.L() {
		t.Fatalf("store dims %dx%d, want %dx%d", s.N(), s.L(), src.N(), src.L())
	}
	type edge struct{ layer, u, v int }
	key := func(layer, u, v int) edge { return edge{layer, min(u, v), max(u, v)} }
	shadow := map[edge]bool{}
	for layer := 0; layer < src.L(); layer++ {
		for v := 0; v < src.N(); v++ {
			for _, u := range src.Neighbors(layer, v) {
				shadow[key(layer, v, int(u))] = true
			}
		}
	}

	for round := 0; round < 5; round++ {
		ups := make([]Update, 0, 30)
		for len(ups) < 30 {
			u, v := rng.Intn(src.N()), rng.Intn(src.N())
			if u == v {
				continue
			}
			op := OpInsert
			if rng.Intn(3) == 0 {
				op = OpDelete
			}
			ups = append(ups, Update{Op: op, Layer: rng.Intn(src.L()), U: u, V: v})
		}
		s.Apply(context.Background(), ups)
		for _, up := range ups {
			if up.Op == OpInsert {
				shadow[key(up.Layer, up.U, up.V)] = true
			} else {
				delete(shadow, key(up.Layer, up.U, up.V))
			}
		}
		// The Builder sorts its edge lists, so map order cannot leak.
		b := multilayer.NewBuilder(src.N(), src.L())
		for e := range shadow {
			b.MustAddEdge(e.layer, e.u, e.v)
		}
		if !s.Freeze().Equal(b.Build()) {
			t.Fatalf("round %d: store diverged from shadow graph", round)
		}
	}
}

// TestWatchLifecycle pins attach/observe/close: an attached watch tracks
// applies, a closed one stops observing (and stays usable read-only).
func TestWatchLifecycle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	src := testutil.RandomGraph(rng, 50, 3, 0.15)
	s := NewStore(src)
	w, err := s.Watch(context.Background(), []int{0, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if w.Truncated() {
		t.Fatal("fresh watch truncated")
	}

	check := func() {
		t.Helper()
		m, err := dynamic.NewMaintainer(nil, dynamic.FromMultilayer(s.Freeze()), []int{0, 1}, 2)
		if err != nil {
			t.Fatal(err)
		}
		got := w.Core()
		if len(got) != m.CoreSize() {
			t.Fatalf("watch core %d vertices, from-scratch %d", len(got), m.CoreSize())
		}
		for _, v := range got {
			if !m.Core().Contains(int(v)) {
				t.Fatalf("vertex %d in watch core only", v)
			}
		}
	}
	check()

	for round := 0; round < 3; round++ {
		ups := make([]Update, 0, 20)
		for len(ups) < 20 {
			u, v := rng.Intn(src.N()), rng.Intn(src.N())
			if u == v {
				continue
			}
			op := OpInsert
			if rng.Intn(3) == 0 {
				op = OpDelete
			}
			ups = append(ups, Update{Op: op, Layer: rng.Intn(src.L()), U: u, V: v})
		}
		s.Apply(context.Background(), ups)
		if !w.Repair(context.Background()) {
			t.Fatalf("round %d: repair under live context reported inexact", round)
		}
		check()
	}

	// After Close the watch stops observing: freeze the core, mutate
	// heavily, and the snapshot must not move. Closing twice is fine.
	w.Close()
	w.Close()
	before := w.Core()
	s.Apply(context.Background(), []Update{{Op: OpDelete, Layer: 0, U: int(before[0]), V: int(before[1])}})
	after := w.Core()
	if len(before) != len(after) {
		t.Fatal("closed watch still observing updates")
	}
}
