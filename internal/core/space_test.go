package core

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/multilayer"
	"repro/internal/testutil"
)

// TestSpaceReuseMatchesFreshBuild runs two queries with one space key on
// one Prepared — a bottom-up one, then a top-down one — so the second
// checks out the space the first built and adds the union rows to it.
// The reused space must equal a fresh handle's build: survivors, cores,
// compact CSR, index view and union rows. Under NoVertexDeletion the
// second query asks another s, which shares the space. Each query counts
// as one build or one reuse; with the race detector off the second one
// must be a reuse.
func TestSpaceReuseMatchesFreshBuild(t *testing.T) {
	// sync.Pool keeps an item in the putting P's private slot, which a
	// Get on another P does not reach; with one P the reuse is certain.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ctx := context.Background()
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := testutil.RandomCorrelatedGraph(rng, 20+rng.Intn(40), 2+rng.Intn(4), 0.25, 0.85, 0.05)
		opts := Options{D: 1 + rng.Intn(3), S: 1 + rng.Intn(g.L()), K: 2, NoVertexDeletion: seed%4 == 0}
		pr := NewPrepared(g, 1)
		first := pr.newPrep(ctx, opts, false)
		built := first.arena
		first.release()
		if opts.NoVertexDeletion {
			opts.S = 1 + rng.Intn(g.L())
		}
		reused := pr.newPrep(ctx, opts, true)
		if !raceEnabled && reused.arena != built {
			t.Fatalf("seed %d %+v: the second query rebuilt its space", seed, opts)
		}
		fresh := NewPrepared(g, 1).newPrep(ctx, opts, true)
		sameSpace(t, reused, fresh)
		reused.release()
		fresh.release()
		if c := pr.Counters(); c.SpaceBuilds+c.SpaceReuses != 2 || c.SpaceBuilds < 1 {
			t.Fatalf("seed %d: %+v, want one build and then a build or a reuse", seed, c)
		}
	}
}

// sameSpace fails unless two preps hold equal compact spaces with their
// top-down index views.
func sameSpace(t *testing.T, got, want *prep) {
	t.Helper()
	if !slices.Equal(got.verts, want.verts) || !got.alive.Equal(want.alive) {
		t.Fatalf("survivors %v, want %v", got.verts, want.verts)
	}
	if got.stats.preprocessRemoved.Load() != want.stats.preprocessRemoved.Load() {
		t.Fatalf("PreprocessRemoved %d, want %d", got.stats.preprocessRemoved.Load(), want.stats.preprocessRemoved.Load())
	}
	for i := range want.cores {
		if !got.cores[i].Equal(want.cores[i]) {
			t.Fatalf("layer %d: reduced core %v, want %v", i, got.cores[i].Slice(), want.cores[i].Slice())
		}
		gOff, gNbr := got.g.LayerCSR(i)
		wOff, wNbr := want.g.LayerCSR(i)
		if !slices.Equal(gOff, wOff) || !slices.Equal(gNbr, wNbr) {
			t.Fatalf("layer %d: compact CSR differs", i)
		}
	}
	if !reflect.DeepEqual(got.idx, want.idx) {
		t.Fatalf("index view %+v, want %+v", got.idx, want.idx)
	}
}

// TestSpaceKeySeparatesNoVertexDeletion alternates NoVertexDeletion
// (whose space key takes s as 1) with s = 1 on one Prepared, over a
// graph with vertices no layer supports: both thresholds are 1, but only
// vertex deletion drops those vertices, so the two keys must not share a
// space. Every answer must equal a fresh handle's.
func TestSpaceKeySeparatesNoVertexDeletion(t *testing.T) {
	ctx := context.Background()
	const isolated = 3
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		base := testutil.RandomCorrelatedGraph(rng, 30, 3+rng.Intn(2), 0.3, 0.85, 0.05)
		b := multilayer.NewBuilder(base.N()+isolated, base.L())
		for i := 0; i < base.L(); i++ {
			for u := 0; u < base.N(); u++ {
				for _, v := range base.Neighbors(i, u) {
					if int(v) > u {
						b.MustAddEdge(i, u, int(v))
					}
				}
			}
		}
		g := b.Build()
		pr := NewPrepared(g, 1)
		shapes := []Options{
			{D: 2, S: 1, K: 3, Seed: seed},
			{D: 2, S: 1, K: 3, Seed: seed, NoVertexDeletion: true},
			{D: 2, S: 2, K: 3, Seed: seed, NoVertexDeletion: true},
		}
		for rep := 0; rep < 3; rep++ {
			for _, opts := range shapes {
				p := pr.newPrep(ctx, opts, false)
				survivors := len(p.verts)
				p.release()
				if opts.NoVertexDeletion && survivors != g.N() || !opts.NoVertexDeletion && survivors > g.N()-isolated {
					t.Fatalf("seed %d %+v: %d survivors of %d vertices, %d of them isolated", seed, opts, survivors, g.N(), isolated)
				}
				for _, a := range memoAlgos[:3] {
					got, err := a.run(pr, ctx, opts)
					want, wantErr := freshAnswer(g, a.run, opts)
					if !sameAnswer(got, err, want, wantErr) {
						t.Fatalf("seed %d rep %d %s %+v: answer differs from a fresh handle's:\n got %+v\nwant %+v",
							seed, rep, a.name, opts, got, want)
					}
				}
			}
		}
	}
}
