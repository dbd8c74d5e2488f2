package core

import (
	"context"
	"math/bits"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bitset"
	"repro/internal/coverage"
	"repro/internal/kcore"
	"repro/internal/multilayer"
	"repro/internal/testutil"
)

// memoAlgos names the four algorithms as Prepared methods.
var memoAlgos = []struct {
	name string
	run  func(*Prepared, context.Context, Options) (*Result, error)
}{
	{"bu", (*Prepared).BottomUp},
	{"td", (*Prepared).TopDown},
	{"greedy", (*Prepared).Greedy},
	{"exact", (*Prepared).Exact},
}

// freshAnswer runs opts on a new Prepared over g.
func freshAnswer(g *multilayer.Graph, run func(*Prepared, context.Context, Options) (*Result, error), opts Options) (*Result, error) {
	return run(NewPrepared(g, 1), context.Background(), opts)
}

// sameAnswer reports whether two runs returned the same result, Stats
// included and Elapsed aside, or the same error.
func sameAnswer(a *Result, errA error, b *Result, errB error) bool {
	if errA != nil || errB != nil {
		return errA != nil && errB != nil && errA.Error() == errB.Error()
	}
	x, y := *a, *b
	x.Stats.Elapsed, y.Stats.Elapsed = 0, 0
	return reflect.DeepEqual(x, y)
}

// TestMemoMatchesFreshHandle runs a query stream that repeats (d, s)
// with new seeds and k on one Prepared, so later queries read the d-CC
// memo, and checks every answer against the same query on a fresh
// Prepared. After the stream every stored entry must still equal the
// d-CC recomputed from all survivors, which catches a caller that
// mutates a shared entry.
func TestMemoMatchesFreshHandle(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := testutil.RandomCorrelatedGraph(rng, 30+rng.Intn(30), 3+rng.Intn(3), 0.12, 0.8, 0.03)
		pr := NewPrepared(g, 1)
		ctx := context.Background()
		for trial := 0; trial < 24; trial++ {
			opts := Options{
				D:       1 + trial%3,
				S:       1 + (trial/3)%g.L(),
				K:       1 + rng.Intn(4),
				Seed:    rng.Int63(),
				Workers: 1 + trial%2,
			}
			for _, nvd := range []bool{false, true} {
				opts.NoVertexDeletion = nvd
				for _, a := range memoAlgos {
					got, err := a.run(pr, ctx, opts)
					want, wantErr := freshAnswer(g, a.run, opts)
					if !sameAnswer(got, err, want, wantErr) {
						t.Fatalf("seed %d %s %+v: memo answer differs from a fresh handle's:\n got %+v (%v)\nwant %+v (%v)",
							seed, a.name, opts, got, err, want, wantErr)
					}
				}
			}
		}
		if c := pr.Counters(); c.MemoHits == 0 || c.MemoBytes == 0 {
			t.Fatalf("seed %d: the stream never reused the memo: %+v", seed, c)
		}
		if checkMemoEntries(t, pr) == 0 {
			t.Fatalf("seed %d: the stream stored no potential set", seed)
		}
	}
}

// TestMemoConcurrentQueries runs queries that share (d, s) from several
// goroutines on one Prepared, so they read and fill the same memo at
// once; every answer must equal a fresh handle's.
func TestMemoConcurrentQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := testutil.RandomCorrelatedGraph(rng, 60, 5, 0.12, 0.8, 0.03)
	pr := NewPrepared(g, 1)
	const goroutines = 8
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a := memoAlgos[i%len(memoAlgos)]
			opts := Options{D: 2, S: 2 + i%2, K: 3, Seed: int64(i), Workers: 1 + i%2}
			got, err := a.run(pr, context.Background(), opts)
			want, wantErr := freshAnswer(g, a.run, opts)
			if !sameAnswer(got, err, want, wantErr) {
				t.Errorf("%s %+v: concurrent answer differs from a fresh handle's", a.name, opts)
			}
		}(i)
	}
	wg.Wait()
	checkMemoEntries(t, pr)
}

// checkMemoEntries recomputes every stored memo entry on its compact
// space — a d-CC with kcore.DCC from the full survivor set, a potential
// set with refineU along its root path — and returns how many potential
// sets it checked.
func checkMemoEntries(t *testing.T, pr *Prepared) (potentials int) {
	t.Helper()
	entries, potentials := checkMemoEntriesOn(t, pr, pr)
	if entries == 0 {
		t.Fatal("memo holds no entries")
	}
	return potentials
}

// checkMemoEntriesOn recomputes every memo entry of pr on the compact
// space of its key built by ref, a handle on the same graph, and returns
// how many entries and how many potential sets it checked.
func checkMemoEntriesOn(t *testing.T, pr, ref *Prepared) (entries, potentials int) {
	t.Helper()
	for d, a := range pr.byD {
		for k, got := range a.memo.entries {
			opts := Options{D: d, S: int(k.s), K: 1, NoVertexDeletion: k.nvd, NoSortLayers: k.noSort}
			p := ref.newPrep(context.Background(), opts, k.potential)
			var want *bitset.Set
			if k.potential {
				want = potentialAlongRootPath(p, k.mask)
				potentials++
			} else {
				var layers []int
				for m := k.mask; m != 0; m &= m - 1 {
					layers = append(layers, bits.TrailingZeros64(m))
				}
				want = kcore.DCC(p.g, p.alive, layers, d)
			}
			p.release()
			if !got.Equal(want) {
				t.Fatalf("d=%d %+v: stored entry has %d vertices, recomputed %d", d, k, got.Count(), want.Count())
			}
			entries++
		}
	}
	return entries, potentials
}

// potentialAlongRootPath recomputes U^d_L, for the layer set mask, with
// refineU from the root of the top-down tree on p, bypassing the memo:
// the path drops L's missing positions in ascending order, each of which
// is removable from the node before it.
func potentialAlongRootPath(p *prep, mask uint64) *bitset.Set {
	p.sortLayers(true)
	ts := newTDSearch(p, coverage.New(p.g.N(), 1))
	lpos := make([]int, p.g.L())
	for pos := range lpos {
		lpos[pos] = pos
	}
	u := p.alive
	for pos := range p.order {
		if mask&(1<<uint(p.order[pos])) == 0 {
			lpos = removePos(lpos, pos)
			u = ts.refineU(u, lpos)
		}
	}
	return u
}

// TestMemoSurvivesCancellation cancels a query before its hierarchy is
// built — it then searches an empty survivor space — and runs the same
// query uncancelled on the same Prepared: the answer must equal a fresh
// handle's, so the cancelled query left nothing in the memo. A top-down
// query cancelled inside refineC, whose aborted flood returns the empty
// set, must not leave that set behind either, and the potential sets it
// stored before the cancellation must be exact. A potential set computed
// after the query observed cancellation is not stored at all.
func TestMemoSurvivesCancellation(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	nonEmpty := 0
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := testutil.RandomCorrelatedGraph(rng, 20+rng.Intn(20), 3+rng.Intn(3), 0.35, 0.9, 0.05)
		l := g.L()
		cases := []struct {
			name string
			run  func(*Prepared, context.Context, Options) (*Result, error)
			s    int
		}{
			{"bu", (*Prepared).BottomUp, 2},
			{"td s<l", (*Prepared).TopDown, l - 1},
			{"td s=l", (*Prepared).TopDown, l},
			{"greedy", (*Prepared).Greedy, 2},
		}
		for _, c := range cases {
			opts := Options{D: 2, S: c.s, K: 3, Seed: seed}
			pr := NewPrepared(g, 1)
			res, err := c.run(pr, cancelled, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Stats.Interrupted {
				t.Fatalf("seed %d %s: cancelled query not flagged interrupted", seed, c.name)
			}
			got, err := c.run(pr, context.Background(), opts)
			want, wantErr := freshAnswer(g, c.run, opts)
			if !sameAnswer(got, err, want, wantErr) {
				t.Fatalf("seed %d %s: answer after a cancelled first query differs from a fresh handle's:\n got %+v\nwant %+v",
					seed, c.name, got, want)
			}
			if want.CoverSize > 0 {
				nonEmpty++
			}
		}
	}
	if nonEmpty == 0 {
		t.Fatal("every answer was empty; the check proves nothing")
	}

	t.Run("mid-refineC", func(t *testing.T) {
		// Without InitTopK and with k = l every child of the root enters
		// the result, so a child whose d-CC came back empty shows.
		g := blockRingGraph(12000, []int{300, 500, 700, 900, 1100})
		opts := Options{D: 2, S: g.L() - 1, K: g.L(), Seed: 1, NoInitResult: true}
		pr := NewPrepared(g, 1)
		if err := pr.PrepareDs(context.Background(), opts.D); err != nil {
			t.Fatal(err)
		}
		ctx := &refineCancelCtx{Context: context.Background()}
		res, err := pr.TopDown(ctx, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !ctx.fired.Load() || !res.Stats.Interrupted {
			t.Fatalf("refineC never observed the cancellation (fired %v, stats %+v)", ctx.fired.Load(), res.Stats)
		}
		if checkMemoEntries(t, pr) == 0 {
			t.Fatal("the cancelled query stored no potential set")
		}
		got, err := pr.TopDown(context.Background(), opts)
		want, wantErr := freshAnswer(g, (*Prepared).TopDown, opts)
		if !sameAnswer(got, err, want, wantErr) {
			t.Fatalf("answer after a query cancelled inside refineC differs from a fresh handle's:\n got %+v\nwant %+v", got, want)
		}
	})
}

// TestMemoSkipsPotentialSetsAfterCancellation computes one root child's
// potential set on a query that has observed cancellation and then on
// an uncancelled one: only the second stores it.
func TestMemoSkipsPotentialSetsAfterCancellation(t *testing.T) {
	g := testutil.RandomCorrelatedGraph(rand.New(rand.NewSource(3)), 40, 5, 0.3, 0.85, 0.05)
	opts := Options{D: 2, S: 2, K: 3, Seed: 1}
	pr := NewPrepared(g, 1)
	slot := pr.builtArtifact(context.Background(), opts.D)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []struct {
		ctx    context.Context
		stored int
	}{{cancelled, 0}, {context.Background(), 1}} {
		p := pr.newPrep(c.ctx, opts, true)
		p.interrupted()
		p.sortLayers(true)
		newTDSearch(p, coverage.New(p.g.N(), opts.K)).childU(p.alive, []int{0, 1, 2, 3})
		p.release()
		if n := len(slot.memo.entries); n != c.stored {
			t.Fatalf("interrupted %v: memo holds %d entries, want %d", p.stats.interrupted.Load(), n, c.stored)
		}
	}
}

// refineCancelCtx reports cancellation from the first time refineC —
// its flood or its discard cascade — polls it, so the cancelled query
// aborts a refineC mid-flood.
type refineCancelCtx struct {
	context.Context
	fired atomic.Bool
}

func (c *refineCancelCtx) Err() error {
	if c.fired.Load() {
		return context.Canceled
	}
	pcs := make([]uintptr, 16)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs)])
	for {
		f, more := frames.Next()
		if strings.Contains(f.Function, ".refineC") {
			c.fired.Store(true)
			return context.Canceled
		}
		if !more {
			return nil
		}
	}
}

// blockRingGraph returns n vertices on len(blocks) layers. Every layer is
// the ring lattice joining each vertex to the two next ones, except that
// layer i drops every edge touching its own block of blocks[i] vertices
// (the blocks are disjoint and spread around the ring). At d = 2 the
// d-CC of a layer set is every vertex outside the set's blocks, so the
// cores differ by layer set while each one spans thousands of vertices,
// enough for refineC to poll its context.
func blockRingGraph(n int, blocks []int) *multilayer.Graph {
	b := multilayer.NewBuilder(n, len(blocks))
	gap := n / len(blocks)
	for layer, size := range blocks {
		lo, hi := layer*gap, layer*gap+size
		in := func(v int) bool { return v >= lo && v < hi }
		for v := 0; v < n; v++ {
			for _, u := range []int{(v + 1) % n, (v + 2) % n} {
				if !in(v) && !in(u) {
					b.MustAddEdge(layer, v, u)
				}
			}
		}
	}
	return b.Build()
}

// TestMemoBudget fills a memo past its Prepared's byte budget: inserts
// stop once the next entry would overflow it, and nothing is evicted.
func TestMemoBudget(t *testing.T) {
	g := testutil.RandomCorrelatedGraph(rand.New(rand.NewSource(1)), 20, 3, 0.3, 0.85, 0.05)
	pr := NewPrepared(g, 1)
	var m dccMemo
	set := bitset.New(1 << 14)
	size := int64(1<<14/8 + memoEntryOverhead)
	for i := 0; i < 100; i++ {
		m.put(pr, memoKey{s: 1, mask: uint64(i)}, set)
	}
	budget := memoBudget(g)
	stored := int64(len(m.entries))
	if want := budget / size; stored != want {
		t.Fatalf("stored %d entries of %d bytes under a %d-byte budget, want %d", stored, size, budget, want)
	}
	if used := pr.memoBytes.Load(); used != stored*size {
		t.Fatalf("memoBytes = %d, want %d", used, stored*size)
	}
	for i := int64(0); i < stored; i++ {
		if m.entries[memoKey{s: 1, mask: uint64(i)}] == nil {
			t.Fatalf("entry %d, stored before the budget filled, is gone", i)
		}
	}
}
