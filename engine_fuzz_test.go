package dccs

import (
	"context"
	"encoding/json"
	"math/rand"
	"testing"

	"repro/internal/testutil"
)

// FuzzApplyUpdates decodes arbitrary insert/delete batches and applies
// them to a small mutable engine with one watch attached. Each input
// byte triple is one update (op and layer, u, v), and a leading byte per
// batch sets its length. Endpoints and layers range one past the graph,
// and self-loops are allowed, so some batches are invalid; those must be
// rejected whole with nothing applied. After every batch:
//
//   - Engine.Graph() is Equal to a cold build of a shadow edge set;
//   - search answers are byte-equal to a cold NewEngine's, also when
//     they read memo entries an earlier batch carried;
//   - the watch core equals CoherentCore.
func FuzzApplyUpdates(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 2, 3, 4, 1, 1, 2})
	f.Add([]byte{2, 1, 0, 1, 0, 0, 1, 1, 4, 4, 5, 5, 6})
	f.Add([]byte{1, 6, 10, 3})
	// Two single inserts on layer 2: the second batch carries 5 of the
	// memo entries the queries after the first stored, so the replay
	// compares answers read from carried entries with a cold engine's.
	f.Add([]byte{0, 4, 0, 11, 0, 4, 1, 11})
	f.Fuzz(func(t *testing.T, data []byte) {
		const n, l = 12, 3
		watched := []int{0, 1}
		base := testutil.RandomCorrelatedGraph(rand.New(rand.NewSource(1)), n, l, 0.45, 0.85, 0.05)
		eng, err := NewMutableEngine(base, EngineConfig{})
		if err != nil {
			t.Fatal(err)
		}
		w, err := eng.Watch(context.Background(), watched, 2)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		var adj [l][n][n]bool
		for layer := 0; layer < l; layer++ {
			for v := 0; v < n; v++ {
				for _, u := range base.Neighbors(layer, v) {
					adj[layer][v][u] = true
				}
			}
		}
		queries := []Query{
			{D: 1, S: 1, K: 3, Seed: 1},
			{D: 2, S: 2, K: 2, Seed: 2, Algorithm: AlgoBottomUp},
			{D: 2, S: 3, K: 2, Seed: 3, Algorithm: AlgoTopDown},
			{D: 3, S: 1, K: 3, Seed: 4, Algorithm: AlgoGreedy},
		}

		for batches := 0; len(data) > 0 && batches < 8; batches++ {
			size := 1 + int(data[0]%8)
			data = data[1:]
			var ups []EdgeUpdate
			valid := true
			for ; size > 0 && len(data) >= 3; size-- {
				up := EdgeUpdate{Op: EdgeInsert, Layer: int(data[0]>>1) % (l + 1), U: int(data[1]) % (n + 1), V: int(data[2]) % (n + 1)}
				if data[0]&1 == 1 {
					up.Op = EdgeDelete
				}
				data = data[3:]
				ups = append(ups, up)
				valid = valid && up.Layer < l && up.U < n && up.V < n && up.U != up.V
			}
			if len(ups) == 0 {
				break
			}
			before := eng.Version()
			if _, err := eng.ApplyUpdates(context.Background(), ups); (err == nil) != valid {
				t.Fatalf("batch %d %+v: error %v, want valid=%v", batches, ups, err, valid)
			}
			if !valid {
				if eng.Version() != before {
					t.Fatalf("rejected batch %d advanced the version", batches)
				}
			} else {
				for _, up := range ups {
					present := up.Op == EdgeInsert
					adj[up.Layer][up.U][up.V], adj[up.Layer][up.V][up.U] = present, present
				}
			}

			b := NewBuilder(n, l)
			for layer := 0; layer < l; layer++ {
				for u := 0; u < n; u++ {
					for v := u + 1; v < n; v++ {
						if adj[layer][u][v] {
							b.MustAddEdge(layer, u, v)
						}
					}
				}
			}
			cold := b.Build()
			if !eng.Graph().Equal(cold) {
				t.Fatalf("batch %d: engine graph differs from the shadow edge set", batches)
			}
			coldEng, err := NewEngine(cold, EngineConfig{})
			if err != nil {
				t.Fatal(err)
			}
			for i, q := range queries {
				if got, want := answerBytes(t, eng, q), answerBytes(t, coldEng, q); got != want {
					t.Fatalf("batch %d query %d: mutated engine answers\n%s\ncold engine\n%s", batches, i, got, want)
				}
			}
			want, err := CoherentCore(cold, watched, 2)
			if err != nil {
				t.Fatal(err)
			}
			got := w.Core()
			if w.Truncated() || len(got) != len(want) {
				t.Fatalf("batch %d: watch core %v, CoherentCore %v", batches, got, want)
			}
			for i := range got {
				if int(got[i]) != want[i] {
					t.Fatalf("batch %d: watch core %v, CoherentCore %v", batches, got, want)
				}
			}
		}
	})
}

// answerBytes is the JSON of a search result with its wall-clock time
// zeroed: everything else in a result is deterministic.
func answerBytes(t *testing.T, e *Engine, q Query) string {
	t.Helper()
	res, err := e.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	res.Stats.Elapsed = 0
	out, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}
