package kcore

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/multilayer"
	"repro/internal/testutil"
)

// trackerDiff compares the full observable state of two positioned
// trackers — alive set, per-layer cores, in-core degrees (including the
// -1 sentinel), and support counts — and describes the first difference,
// or returns "" when there is none.
func trackerDiff(got, want *Tracker) string {
	if !got.alive.Equal(want.alive) {
		return "alive sets differ"
	}
	for i := range want.cores {
		if !got.cores[i].Equal(want.cores[i]) {
			return fmt.Sprintf("layer %d cores differ", i)
		}
		for v := range want.deg[i] {
			if got.deg[i][v] != want.deg[i][v] {
				return fmt.Sprintf("layer %d deg[%d] = %d, want %d", i, v, got.deg[i][v], want.deg[i][v])
			}
		}
	}
	for v := range want.num {
		if got.num[v] != want.num[v] {
			return fmt.Sprintf("num[%d] = %d, want %d", v, got.num[v], want.num[v])
		}
	}
	return ""
}

func trackersEqual(t *testing.T, got, want *Tracker, label string) {
	t.Helper()
	if diff := trackerDiff(got, want); diff != "" {
		t.Fatalf("%s: %s", label, diff)
	}
}

// raiseFixture returns a random correlated graph with its per-layer
// coreness and maximum coreness.
func raiseFixture(t *testing.T, seed int64) (*multilayer.Graph, [][]int32, int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := testutil.RandomCorrelatedGraph(rng, 120, 4, 0.2, 0.85, 0.1)
	coreness := make([][]int32, g.L())
	maxc := 0
	for i := range coreness {
		coreness[i] = Coreness(g, i)
		for _, c := range coreness[i] {
			maxc = max(maxc, int(c))
		}
	}
	if maxc < 2 {
		t.Fatalf("seed %d: test graph too sparse (max coreness %d)", seed, maxc)
	}
	return g, coreness, maxc
}

// replayRemovals removes every seventh vertex, the removal sequence the
// raise tests replay on both trackers of a comparison.
func replayRemovals(tr *Tracker) {
	for v := 0; v < tr.g.N(); v += 7 {
		tr.RemoveVertex(v)
	}
}

// TestRaiseMatchesFromCoreness pins the byte-identity contract the
// multi-d hierarchy pass relies on: from every start threshold, a
// tracker raised to each higher d is indistinguishable from an
// independently built NewTrackerFromCoreness tracker at d — both in its
// initial state and in its behaviour under an identical removal
// sequence. The base is raised one threshold at a time and by several
// at once, and copies of it alternate between two shells; each copy is
// checked again after the base has been raised past it: a copy shares
// nothing mutable with its base.
func TestRaiseMatchesFromCoreness(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		g, coreness, maxc := raiseFixture(t, 40+seed)
		for start := 1; start <= maxc+1; start++ {
			for _, step := range []int{1, 2} {
				base := NewTrackerFromCoreness(g, start, coreness, 3)
				var shells [2]*Tracker
				var prevGot, prevWant *Tracker
				for d, k := start, 0; d <= maxc+1; d, k = d+step, k+1 {
					base.Raise(d)
					got := base.CopyInto(shells[k%2])
					shells[k%2] = got
					want := NewTrackerFromCoreness(g, d, coreness, 1)
					trackersEqual(t, base, want, fmt.Sprintf("start %d: base raised to %d", start, d))
					trackersEqual(t, got, want, fmt.Sprintf("start %d: copy at %d", start, d))
					if prevGot != nil {
						trackersEqual(t, prevGot, prevWant, "previous copy after the base was raised")
					}

					// The copy must also *behave* identically: replay one
					// removal sequence on both.
					replayRemovals(got)
					replayRemovals(want)
					trackersEqual(t, got, want, fmt.Sprintf("start %d d=%d: after removals", start, d))
					prevGot, prevWant = got, want
				}
				// The raised base itself peels like a fresh tracker too.
				want := NewTrackerFromCoreness(g, base.d, coreness, 1)
				replayRemovals(base)
				replayRemovals(want)
				trackersEqual(t, base, want, fmt.Sprintf("start %d: raised base after removals", start))
			}
		}
	}
}

// TestRaisedCopiesConcurrent is the multi-d hierarchy pass's access
// pattern: several goroutines take thresholds in ascending order from
// one base under a lock, each raising the base and copying it into its
// own shell, and peel their copies concurrently outside the lock. Run
// with -race it checks that copies share no mutable state with the
// base or with each other.
func TestRaisedCopiesConcurrent(t *testing.T) {
	g, coreness, maxc := raiseFixture(t, 43)
	base := NewTrackerFromCoreness(g, 1, coreness, 2)
	var (
		mu   sync.Mutex
		next = 1
		wg   sync.WaitGroup
	)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var tr *Tracker
			for {
				mu.Lock()
				d := next
				if d > maxc+1 {
					mu.Unlock()
					return
				}
				next++
				base.Raise(d)
				tr = base.CopyInto(tr)
				mu.Unlock()
				want := NewTrackerFromCoreness(g, d, coreness, 1)
				replayRemovals(tr)
				replayRemovals(want)
				if diff := trackerDiff(tr, want); diff != "" {
					t.Errorf("d=%d: concurrently peeled copy: %s", d, diff)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestRaiseAscendingOnly pins that a tracker only moves up: raising it
// to a lower threshold panics.
func TestRaiseAscendingOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := testutil.RandomCorrelatedGraph(rng, 40, 3, 0.3, 0.85, 0.1)
	coreness := make([][]int32, g.L())
	for i := range coreness {
		coreness[i] = Coreness(g, i)
	}
	tr := NewTrackerFromCoreness(g, 1, coreness, 1)
	tr.Raise(3)
	tr.Raise(3) // the current threshold is a no-op
	defer func() {
		if recover() == nil {
			t.Fatal("descending Raise did not panic")
		}
	}()
	tr.Raise(2)
}

// TestCorenessFullMatchesMasked pins Coreness, the bin-sort
// decomposition on flat CSR arrays, against CoherentCoreness of the same
// single layer, an independent peel through degree counters: a vertex's
// coreness is the largest d whose d-core holds it either way.
func TestCorenessFullMatchesMasked(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 4; trial++ {
		g := testutil.RandomCorrelatedGraph(rng, 90, 3, 0.15+0.1*float64(trial), 0.8, 0.1)
		for layer := 0; layer < g.L(); layer++ {
			got := Coreness(g, layer)
			want := CoherentCoreness(g, []int{layer}, nil)
			for v := range want {
				if int(got[v]) != want[v] {
					t.Fatalf("trial %d layer %d: coreness[%d] = %d, want %d", trial, layer, v, got[v], want[v])
				}
			}
		}
	}
}
