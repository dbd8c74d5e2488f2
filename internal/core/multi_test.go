package core

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/multilayer"
	"repro/internal/testutil"
)

// sameHierarchy reports whether two hierarchies agree array by array on
// everything the search reads: h and coreh.
func sameHierarchy(a, b *hierarchy) bool {
	return slices.Equal(a.h, b.h) && reflect.DeepEqual(a.coreh, b.coreh)
}

// hierarchyFor returns the per-d removal hierarchy the way a query's
// first use of d gets it, building it then, or nil when ctx cancelled
// the build.
func (pr *Prepared) hierarchyFor(ctx context.Context, d int) *hierarchy {
	if a := pr.builtArtifact(ctx, d); a != nil {
		return a.hier
	}
	return nil
}

// buildOne builds the hierarchy of the single threshold d at one
// worker: a pass whose base tracker is never raised or copied.
func buildOne(g *multilayer.Graph, d int, coreness [][]int32) *hierarchy {
	var hr *hierarchy
	buildHierarchies(context.Background(), g, []int{d}, coreness, 1, func(_ int, h *hierarchy) { hr = h })
	return hr
}

// TestBuildHierarchiesMatchesPerD pins the byte-identity contract of the
// multi-d pass: with the base tracker raised across every threshold and
// copied for all but the last, it must produce, for every threshold and
// at every worker count, a hierarchy deeply equal to a single-threshold
// build — same removal thresholds, same coreh thresholds — and emit
// each threshold exactly once.
func TestBuildHierarchiesMatchesPerD(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	g := testutil.RandomCorrelatedGraph(rng, 100, 4, 0.25, 0.85, 0.1)
	pr := NewPrepared(g, 2)
	coreness := pr.layerCoreness()
	maxc := pr.maxCoreness
	if maxc < 2 {
		t.Fatalf("test graph too sparse: max coreness %d", maxc)
	}

	ds := make([]int, 0, maxc+1)
	for d := 1; d <= maxc+1; d++ {
		ds = append(ds, d)
	}
	for _, workers := range []int{1, 2, 3, 4} {
		shared := map[int]*hierarchy{}
		var order []int
		err := buildHierarchies(context.Background(), g, ds, coreness, workers, func(d int, hr *hierarchy) {
			if shared[d] != nil {
				t.Errorf("workers=%d d=%d: emitted twice", workers, d)
			}
			shared[d] = hr
			order = append(order, d)
		})
		if err != nil {
			t.Fatal(err)
		}
		if workers == 1 && !slices.Equal(order, ds) {
			t.Fatalf("one worker emitted %v, want the ascending order %v", order, ds)
		}
		for _, d := range ds {
			got := shared[d]
			if got == nil {
				t.Fatalf("workers=%d d=%d: shared pass emitted nothing", workers, d)
			}
			want := buildOne(g, d, coreness)
			if !reflect.DeepEqual(got.coreh, want.coreh) {
				t.Fatalf("workers=%d d=%d: coreh differs between shared and per-d build", workers, d)
			}
			if !slices.Equal(got.h, want.h) {
				t.Fatalf("workers=%d d=%d: removal thresholds differ between shared and per-d build", workers, d)
			}
		}
	}
}

// TestPrepareDsMatchesLazy checks the cache-facing contract: PrepareDs
// installs, per distinct pending threshold, exactly one hierarchy that is
// deeply equal to the one the lazy per-query path would build.
func TestPrepareDsMatchesLazy(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	g := testutil.RandomCorrelatedGraph(rng, 80, 4, 0.25, 0.85, 0.1)
	prA := NewPrepared(g, 2)
	prB := NewPrepared(g, 2)
	maxc := prA.MaxCoreness()

	// Duplicates and beyond-clamp values must coalesce.
	ds := []int{2, 1, 2, maxc + 1, maxc + 50, 3}
	if err := prA.PrepareDs(context.Background(), ds...); err != nil {
		t.Fatal(err)
	}
	distinct := map[int]bool{1: true, 2: true, 3: true, maxc + 1: true}
	if got := prA.Counters().HierarchyBuilds; got != int64(len(distinct)) {
		t.Fatalf("HierarchyBuilds = %d, want %d", got, len(distinct))
	}
	for d := range distinct {
		got := prA.hierarchyFor(context.Background(), d)
		want := prB.hierarchyFor(context.Background(), d)
		if !sameHierarchy(got, want) {
			t.Fatalf("d=%d: PrepareDs hierarchy differs from lazy build", d)
		}
	}
	// Re-preparing a fully warmed set is a no-op.
	if err := prA.PrepareDs(context.Background(), ds...); err != nil {
		t.Fatal(err)
	}
	if got := prA.Counters().HierarchyBuilds; got != int64(len(distinct)) {
		t.Fatalf("repeat PrepareDs rebuilt: HierarchyBuilds = %d, want %d", got, len(distinct))
	}
	if err := prA.PrepareDs(context.Background(), 0); err == nil {
		t.Fatal("PrepareDs accepted d = 0")
	}
}

// cancelAfterInstall is a context that reports cancellation as soon as
// the watched threshold's artifact is installed — a deterministic way to
// cancel a multi-d sweep exactly between two hierarchies.
type cancelAfterInstall struct {
	context.Context
	pr *Prepared
	d  int
}

func (c cancelAfterInstall) Err() error {
	if c.pr.artifact(c.d).done.Load() {
		return context.Canceled
	}
	return nil
}

// TestPrepareDsCancellationCachesCompleted pins the batch cancellation
// contract: a sweep cancelled mid-run caches every fully completed
// threshold — and nothing else — and a later PrepareDs resumes from
// exactly that point.
func TestPrepareDsCancellationCachesCompleted(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	g := testutil.RandomCorrelatedGraph(rng, 80, 4, 0.3, 0.85, 0.1)
	pr := NewPrepared(g, 1)
	maxc := pr.MaxCoreness()
	if maxc < 3 {
		t.Fatalf("test graph too sparse: max coreness %d", maxc)
	}
	ds := make([]int, 0, maxc+1)
	for d := 1; d <= maxc+1; d++ {
		ds = append(ds, d)
	}

	ctx := cancelAfterInstall{Context: context.Background(), pr: pr, d: 1}
	if err := pr.PrepareDs(ctx, ds...); err != context.Canceled {
		t.Fatalf("cancelled PrepareDs returned %v, want context.Canceled", err)
	}
	if !pr.artifact(1).done.Load() {
		t.Fatal("completed threshold d=1 was not cached")
	}
	for d := 2; d <= maxc+1; d++ {
		if pr.artifact(d).done.Load() {
			t.Fatalf("threshold d=%d cached despite cancellation before its build", d)
		}
	}
	if got := pr.Counters().HierarchyBuilds; got != 1 {
		t.Fatalf("HierarchyBuilds = %d after cancelled sweep, want 1", got)
	}

	// Resume: the fresh sweep builds only the missing thresholds, and the
	// results match a cold handle.
	if err := pr.PrepareDs(context.Background(), ds...); err != nil {
		t.Fatal(err)
	}
	if got := pr.Counters().HierarchyBuilds; got != int64(maxc+1) {
		t.Fatalf("HierarchyBuilds = %d after resume, want %d", got, maxc+1)
	}
	cold := NewPrepared(g, 1)
	for _, d := range ds {
		got := pr.hierarchyFor(context.Background(), d)
		want := cold.hierarchyFor(context.Background(), d)
		if !sameHierarchy(got, want) {
			t.Fatalf("d=%d: resumed hierarchy differs from cold build", d)
		}
	}

	// A pre-cancelled context caches nothing.
	pre := NewPrepared(g, 1)
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := pre.PrepareDs(cctx, ds...); err == nil {
		t.Fatal("pre-cancelled PrepareDs succeeded")
	}
	if got := pre.Counters().HierarchyBuilds; got != 0 {
		t.Fatalf("pre-cancelled PrepareDs built %d hierarchies", got)
	}
}

// cancelAfterBuilds is a context that reports cancellation once the
// handle has counted n hierarchy builds: a way to cancel a parallel
// multi-d pass after its first completions, wherever the other workers
// are.
type cancelAfterBuilds struct {
	context.Context
	pr *Prepared
	n  int64
}

func (c cancelAfterBuilds) Err() error {
	if c.pr.Counters().HierarchyBuilds >= c.n {
		return context.Canceled
	}
	return nil
}

// TestPrepareDsCancellationParallel is the cancellation contract at two
// workers, where completions race: after a cancelled PrepareDs, the
// cached set is exactly the set of hierarchies the pass completed, each
// equal to a cold build; HierarchyBuilds counts exactly those; every
// slot lock is free again; and a resumed PrepareDs builds exactly the
// rest.
func TestPrepareDsCancellationParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	g := testutil.RandomCorrelatedGraph(rng, 300, 4, 0.08, 0.85, 0.05)
	cold := NewPrepared(g, 1)
	maxc := cold.MaxCoreness()
	if maxc < 3 {
		t.Fatalf("test graph too sparse: max coreness %d", maxc)
	}
	ds := make([]int, 0, maxc+1)
	for d := 1; d <= maxc+1; d++ {
		ds = append(ds, d)
	}
	sameAsCold := func(pr *Prepared, d int) bool {
		got := pr.artifact(d).hier
		return got != nil && sameHierarchy(got, cold.hierarchyFor(context.Background(), d))
	}

	for rep := 0; rep < 5; rep++ {
		pr := NewPrepared(g, 2)
		ctx := cancelAfterBuilds{Context: context.Background(), pr: pr, n: 1}
		if err := pr.PrepareDs(ctx, ds...); err != context.Canceled {
			t.Fatalf("rep %d: cancelled pass returned %v, want context.Canceled", rep, err)
		}
		completed := doneSlots(pr)
		if len(completed) == 0 || len(completed) == len(ds) {
			t.Fatalf("rep %d: %d of %d thresholds completed, want some but not all", rep, len(completed), len(ds))
		}
		for _, d := range ds {
			a := pr.artifact(d)
			if cached := a.hier != nil; cached != completed[d] {
				t.Fatalf("rep %d d=%d: cached %v, completed %v", rep, d, cached, completed[d])
			}
			if completed[d] && !sameAsCold(pr, d) {
				t.Fatalf("rep %d d=%d: cached hierarchy differs from a cold build", rep, d)
			}
			if !a.buildMu.TryLock() {
				t.Fatalf("rep %d d=%d: the cancelled pass left the slot locked", rep, d)
			}
			a.buildMu.Unlock()
		}
		if got := pr.Counters().HierarchyBuilds; got != int64(len(completed)) {
			t.Fatalf("rep %d: HierarchyBuilds = %d, want %d cached", rep, got, len(completed))
		}

		if err := pr.PrepareDs(context.Background(), ds...); err != nil {
			t.Fatal(err)
		}
		if got := pr.Counters().HierarchyBuilds; got != int64(len(ds)) {
			t.Fatalf("rep %d: HierarchyBuilds = %d after resume, want %d", rep, got, len(ds))
		}
		for _, d := range ds {
			if !sameAsCold(pr, d) {
				t.Fatalf("rep %d d=%d: resumed hierarchy differs from a cold build", rep, d)
			}
		}
	}
}

// firstPollWaits is a context that counts its Err calls and holds the
// first one back, long enough that a caller started beside the first
// decides what to build while the first has built nothing yet. The wait
// only makes a second build likely where one can happen; the count
// matches in every schedule when none can.
type firstPollWaits struct {
	context.Context
	calls atomic.Int64
}

func (c *firstPollWaits) Err() error {
	if c.calls.Add(1) == 1 {
		time.Sleep(20 * time.Millisecond)
	}
	return nil
}

// TestConcurrentPrepareDsBuildsOnce pins that concurrent warms build each
// d once: two concurrent PrepareDs(ctx, 3, 4) calls on a cold handle
// poll a counting context exactly as often as one such call alone. The
// batch loop polls once per batch and a build is deterministic, so a
// second build of either hierarchy would add its polls.
func TestConcurrentPrepareDsBuildsOnce(t *testing.T) {
	g := testutil.RandomCorrelatedGraph(rand.New(rand.NewSource(95)), 300, 4, 0.08, 0.85, 0.05)
	for _, workers := range []int{1, 2} {
		alone := &firstPollWaits{Context: context.Background()}
		if err := NewPrepared(g, workers).PrepareDs(alone, 3, 4); err != nil {
			t.Fatal(err)
		}
		pr := NewPrepared(g, workers)
		pr.MaxCoreness()
		ctx := &firstPollWaits{Context: context.Background()}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if err := pr.PrepareDs(ctx, 3, 4); err != nil {
					t.Error(err)
				}
			}()
		}
		close(start)
		wg.Wait()
		if got, want := ctx.calls.Load(), alone.calls.Load(); got != want {
			t.Fatalf("workers=%d: two concurrent calls polled %d times, one call alone %d", workers, got, want)
		}
		if got := pr.Counters().HierarchyBuilds; got != 2 {
			t.Fatalf("workers=%d: HierarchyBuilds = %d, want 2", workers, got)
		}
	}
}

// TestWarmsBesideSearchesBuildOnce runs warms over overlapping, unsorted
// d lists beside searches that build their d on first use, all on one
// cold handle at Workers 2. Every caller takes its slot locks in
// ascending d, so no order of calls deadlocks: each repetition finishes
// within a bounded wait. Every distinct clamped d is built exactly once,
// and every hierarchy equals a single-threshold build on a cold handle.
func TestWarmsBesideSearchesBuildOnce(t *testing.T) {
	ctx := context.Background()
	g := testutil.RandomCorrelatedGraph(rand.New(rand.NewSource(95)), 300, 4, 0.08, 0.85, 0.05)
	cold := NewPrepared(g, 1)
	maxc := cold.MaxCoreness()
	warms := [][]int{
		{maxc + 1, 5, 4, 3, 2, 1},
		{1, 2, 3, 4, 5, maxc + 1},
		{4, maxc + 7, 2, 2},
		{3, 1, 5},
	}
	searches := []int{2, 5, maxc + 9, 6}
	distinct := map[int]bool{}
	for _, ds := range append(warms, searches) {
		for _, d := range ds {
			distinct[min(d, maxc+1)] = true
		}
	}
	// A lock-order cycle needs two callers inside their lock loops at
	// once, which a repetition sets up only now and then.
	for rep := 0; rep < 40; rep++ {
		pr := NewPrepared(g, 2)
		pr.MaxCoreness()
		start := make(chan struct{})
		var wg sync.WaitGroup
		for _, ds := range warms {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if err := pr.PrepareDs(ctx, ds...); err != nil {
					t.Error(err)
				}
			}()
		}
		for i, d := range searches {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if _, err := pr.BottomUp(ctx, Options{D: d, S: 2, K: 2, Seed: int64(i)}); err != nil {
					t.Error(err)
				}
			}()
		}
		finished := make(chan struct{})
		go func() {
			wg.Wait()
			close(finished)
		}()
		close(start)
		select {
		case <-finished:
		case <-time.After(30 * time.Second):
			t.Fatalf("rep %d: warms and searches still running after 30 s", rep)
		}
		if got := pr.Counters().HierarchyBuilds; got != int64(len(distinct)) {
			t.Fatalf("rep %d: HierarchyBuilds = %d, want %d distinct clamped d", rep, got, len(distinct))
		}
		for d := range distinct {
			if !sameHierarchy(pr.artifact(d).hier, cold.hierarchyFor(ctx, d)) {
				t.Fatalf("rep %d d=%d: hierarchy differs from a cold build", rep, d)
			}
		}
	}
}

// TestArenaReuseDeterminism hammers one Prepared with repeated and
// concurrent queries across all algorithms: the pooled query arenas must
// never leak state between queries, so every repetition of a query
// reproduces its first answer exactly. Run with -race this also checks
// the arena pool under contention.
func TestArenaReuseDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	g := testutil.RandomCorrelatedGraph(rng, 60, 4, 0.3, 0.85, 0.1)
	pr := NewPrepared(g, 2)
	ctx := context.Background()

	type runner func(context.Context, Options) (*Result, error)
	algos := map[string]runner{"bu": pr.BottomUp, "td": pr.TopDown, "gd": pr.Greedy}
	queries := []Options{
		{D: 2, S: 2, K: 2, Seed: 1},
		{D: 2, S: 3, K: 1, Seed: 5},
		{D: 3, S: 1, K: 3, Seed: 7},
		{D: 2, S: 4, K: 2, Seed: 2},
	}

	// Baselines from the first pass (arena cold).
	base := map[string]*Result{}
	for name, run := range algos {
		for qi, opts := range queries {
			res, err := run(ctx, opts)
			if err != nil {
				t.Fatal(err)
			}
			base[name+string(rune('0'+qi))] = res
		}
	}

	// Sequential repetitions force arena reuse on a warm pool.
	for rep := 0; rep < 3; rep++ {
		for name, run := range algos {
			for qi, opts := range queries {
				res, err := run(ctx, opts)
				if err != nil {
					t.Fatal(err)
				}
				want := base[name+string(rune('0'+qi))]
				if res.CoverSize != want.CoverSize || !reflect.DeepEqual(res.Cores, want.Cores) {
					t.Fatalf("rep %d %s query %d: arena reuse changed the result", rep, name, qi)
				}
			}
		}
	}

	// Concurrent burst: arenas check out per query, so parallel queries
	// must neither race nor share state.
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				for name, run := range algos {
					qi := (w + rep) % len(queries)
					res, err := run(ctx, queries[qi])
					if err != nil {
						errs <- err
						return
					}
					want := base[name+string(rune('0'+qi))]
					if res.CoverSize != want.CoverSize || !reflect.DeepEqual(res.Cores, want.Cores) {
						t.Errorf("worker %d %s query %d: concurrent arena reuse changed the result", w, name, qi)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
