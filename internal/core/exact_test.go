package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
	"repro/internal/kcore"
	"repro/internal/multilayer"
	"repro/internal/testutil"
)

func TestExactMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := testutil.RandomCorrelatedGraph(rng, 8+rng.Intn(15), 2+rng.Intn(3), 0.4, 0.85, 0.1)
		d := 1 + rng.Intn(2)
		s := 1 + rng.Intn(g.L())
		k := 1 + rng.Intn(3)
		cands := naiveCandidates(g, d, s)
		if len(cands) > 12 {
			return true
		}
		opt := bruteForceOptimal(g.N(), cands, k)
		res, err := ExactDCCS(g, Options{D: d, S: s, K: k, Seed: seed})
		if err != nil {
			return false
		}
		return res.CoverSize == opt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestExactDominatesApproximations(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := testutil.RandomCorrelatedGraph(rng, 10+rng.Intn(15), 2+rng.Intn(3), 0.35, 0.85, 0.08)
		d := 1 + rng.Intn(2)
		s := 1 + rng.Intn(g.L())
		k := 1 + rng.Intn(3)
		opts := Options{D: d, S: s, K: k, Seed: seed}
		exact, err := ExactDCCS(g, opts)
		if err != nil {
			return true // too many candidates — out of the exact regime
		}
		for _, algo := range []func(*multilayer.Graph, Options) (*Result, error){
			GreedyDCCS, BottomUpDCCS, TopDownDCCS,
		} {
			res, err := algo(g, opts)
			if err != nil || res.CoverSize > exact.CoverSize {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestExactLimit(t *testing.T) {
	// A graph engineered to have many distinct candidates: disjoint
	// triangles lighting up different layer pairs.
	l := 14
	b := multilayer.NewBuilder(3*91+10, l)
	idx := 0
	for i := 0; i < l; i++ {
		for j := i + 1; j < l; j++ {
			base := 3 * idx
			idx++
			for _, layer := range []int{i, j} {
				b.MustAddEdge(layer, base, base+1)
				b.MustAddEdge(layer, base+1, base+2)
				b.MustAddEdge(layer, base, base+2)
			}
		}
	}
	g := b.Build()
	if _, err := ExactDCCS(g, Options{D: 2, S: 2, K: 3}); err == nil {
		t.Fatal("expected candidate-limit error")
	}
}

func TestValidateResultAcceptsAlgorithms(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := testutil.RandomCorrelatedGraph(rng, 10+rng.Intn(20), 2+rng.Intn(4), 0.35, 0.85, 0.08)
		opts := Options{D: 1 + rng.Intn(3), S: 1 + rng.Intn(g.L()), K: 1 + rng.Intn(4), Seed: seed}
		for _, algo := range []func(*multilayer.Graph, Options) (*Result, error){
			GreedyDCCS, BottomUpDCCS, TopDownDCCS, ExactDCCS,
		} {
			res, err := algo(g, opts)
			if err != nil {
				continue // exact may refuse large instances
			}
			if err := ValidateResult(g, opts, res); err != nil {
				t.Logf("seed=%d: %v", seed, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateResultRejectsCorruption(t *testing.T) {
	g := figure1Graph(t)
	opts := Options{D: 3, S: 2, K: 2}
	res, err := BottomUpDCCS(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateResult(g, opts, res); err != nil {
		t.Fatalf("valid result rejected: %v", err)
	}

	corrupt := func(mod func(*Result)) *Result {
		c := &Result{CoverSize: res.CoverSize}
		for _, core := range res.Cores {
			c.Cores = append(c.Cores, CC{
				Layers:   append([]int(nil), core.Layers...),
				Vertices: append([]int32(nil), core.Vertices...),
			})
		}
		mod(c)
		return c
	}
	cases := map[string]*Result{
		"nil result":      nil,
		"wrong cover":     corrupt(func(r *Result) { r.CoverSize++ }),
		"dropped vertex":  corrupt(func(r *Result) { r.Cores[0].Vertices = r.Cores[0].Vertices[1:] }),
		"bad layer count": corrupt(func(r *Result) { r.Cores[0].Layers = r.Cores[0].Layers[:1] }),
		"layer range":     corrupt(func(r *Result) { r.Cores[0].Layers[0] = 99 }),
		"duplicate set":   corrupt(func(r *Result) { r.Cores[1].Layers = append([]int(nil), r.Cores[0].Layers...) }),
		"vertex range":    corrupt(func(r *Result) { r.Cores[0].Vertices[0] = 99 }),
		// A repeated layer set [i i] whose vertices are the d-CC of [i]
		// alone: the peel sees the same layer set, so only the order check
		// catches it.
		"repeated layer": corrupt(func(r *Result) {
			ly := r.Cores[0].Layers[1]
			vs := kcore.DCC(g, bitset.NewFull(g.N()), []int{ly}, opts.D).Slice32()
			r.Cores = []CC{{Layers: []int{ly, ly}, Vertices: vs}}
			r.CoverSize = len(vs)
		}),
		"layers out of order": corrupt(func(r *Result) { slices.Reverse(r.Cores[0].Layers) }),
		"repeated vertex": corrupt(func(r *Result) {
			vs := r.Cores[0].Vertices
			r.Cores[0].Vertices = append(vs, vs[len(vs)-1])
		}),
		"vertices out of order": corrupt(func(r *Result) { slices.Reverse(r.Cores[0].Vertices) }),
	}
	for name, bad := range cases {
		if err := ValidateResult(g, opts, bad); err == nil {
			t.Errorf("%s: corruption not detected", name)
		}
	}
	tooMany := corrupt(func(r *Result) {})
	if err := ValidateResult(g, Options{D: 3, S: 2, K: 1}, tooMany); err == nil {
		t.Error("k overflow not detected")
	}
}
