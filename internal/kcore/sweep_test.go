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

// sweepFixture returns a random correlated graph with its per-layer
// coreness and maximum coreness.
func sweepFixture(t *testing.T, seed int64) (*multilayer.Graph, [][]int32, int) {
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
// sweep tests replay on both trackers of a comparison.
func replayRemovals(tr *Tracker) {
	for v := 0; v < tr.g.N(); v += 7 {
		tr.RemoveVertex(v)
	}
}

// TestSweepMatchesFromCoreness pins the byte-identity contract the shared
// multi-d hierarchy pass relies on: for every threshold from the sweep's
// starting one up, the tracker a Sweep positions is indistinguishable
// from an independently built NewTrackerFromCoreness tracker — both in
// its initial state and in its behaviour under an identical removal
// sequence. Two shells alternate, and each is checked again after the
// sweep has positioned the other at the next threshold: a positioned
// tracker shares nothing mutable with the sweep.
func TestSweepMatchesFromCoreness(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		g, coreness, maxc := sweepFixture(t, 40+seed)
		start := 1 + int(seed) // maxc ≥ 2, so every start is addressable
		sw := NewSweep(g, start, coreness, 3)
		var shells [2]*Tracker
		var prevGot, prevWant *Tracker
		for d := start; d <= maxc+1; d++ {
			got := sw.TrackerAt(d, shells[d%2])
			shells[d%2] = got
			want := NewTrackerFromCoreness(g, d, coreness, 1)
			trackersEqual(t, got, want, "initial state")
			if prevGot != nil {
				trackersEqual(t, prevGot, prevWant, "previous shell after the sweep advanced")
			}

			// The shell must also *behave* identically: replay one removal
			// sequence on both.
			replayRemovals(got)
			replayRemovals(want)
			trackersEqual(t, got, want, "after removals")
			prevGot, prevWant = got, want
		}
	}
}

// TestSweepShellsConcurrent is the multi-d hierarchy pass's access
// pattern: several goroutines take thresholds in ascending order from
// one sweep under a lock, each positioning its own shell, and peel
// their trackers concurrently outside the lock. Run with -race it checks
// that positioned shells share no mutable state with the sweep or with
// each other.
func TestSweepShellsConcurrent(t *testing.T) {
	g, coreness, maxc := sweepFixture(t, 43)
	sw := NewSweep(g, 1, coreness, 2)
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
				tr = sw.TrackerAt(d, tr)
				mu.Unlock()
				want := NewTrackerFromCoreness(g, d, coreness, 1)
				replayRemovals(tr)
				replayRemovals(want)
				if diff := trackerDiff(tr, want); diff != "" {
					t.Errorf("d=%d: concurrently peeled shell: %s", d, diff)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestSweepAscendingOnly pins the single-consumer contract: thresholds
// must be requested in ascending order.
func TestSweepAscendingOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := testutil.RandomCorrelatedGraph(rng, 40, 3, 0.3, 0.85, 0.1)
	coreness := make([][]int32, g.L())
	for i := range coreness {
		coreness[i] = Coreness(g, i)
	}
	sw := NewSweep(g, 1, coreness, 1)
	sw.TrackerAt(3, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("descending TrackerAt did not panic")
		}
	}()
	sw.TrackerAt(2, nil)
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
