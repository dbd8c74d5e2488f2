package dccs

import (
	"context"
	"math"
	"slices"
	"sync"
	"testing"
)

// fuzzAlgorithms are the algorithms a FuzzSearch input can select.
var fuzzAlgorithms = []Algorithm{AlgoBottomUp, AlgoTopDown, AlgoGreedy, AlgoExact}

// FuzzSearch decodes a small graph (n ≤ 14, l ≤ 6) and one query from
// the input and runs the query twice on one engine, with one query of
// another shape (s′ = 1 + s mod l) in between, so the second run reads
// the memo the first filled and checks out a pooled search space after
// another shape has used the engine; then once on a fresh engine. The
// six leading bytes set n, l, d, s, k and the algorithm, the seventh the
// seed; every following bit is one edge, in (layer, u, v) order with
// u < v, so short inputs give sparse graphs. It requires:
//
//   - the three answers are byte-equal;
//   - every CC a run on the shared engine streams to OnCandidate has s
//     layers and equals CoherentCore on the original graph;
//   - dccs.Validate accepts the answer;
//   - for n ≤ 12, when Exact accepts the instance, BU and TD cover at
//     least 1/4 of Exact's cover and GD at least 1 − 1/e of it.
//
// The seed corpus in testdata/fuzz/FuzzSearch plants two or three
// communities on layer subsets, so its answers hold several partial
// cores.
func FuzzSearch(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 7 {
			return
		}
		n, l := 2+int(data[0])%13, 1+int(data[1])%6
		q := Query{
			D:         1 + int(data[2])%3,
			S:         1 + int(data[3])%l,
			K:         1 + int(data[4])%4,
			Algorithm: fuzzAlgorithms[int(data[5])%len(fuzzAlgorithms)],
			Seed:      int64(data[6]),
		}
		edges := data[7:]
		b := NewBuilder(n, l)
		bit := 0
		for layer := 0; layer < l; layer++ {
			for u := 0; u < n; u++ {
				for v := u + 1; v < n; v++ {
					if bit/8 < len(edges) && edges[bit/8]&(1<<(bit%8)) != 0 {
						b.MustAddEdge(layer, u, v)
					}
					bit++
				}
			}
		}
		g := b.Build()

		eng, err := NewEngine(g, EngineConfig{})
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := NewEngine(g, EngineConfig{})
		if err != nil {
			t.Fatal(err)
		}
		// run answers q on eng and checks the CCs it streams.
		run := func(q Query) string {
			var mu sync.Mutex
			var streamed []CC
			q.OnCandidate = func(c CC) {
				mu.Lock()
				streamed = append(streamed, c)
				mu.Unlock()
			}
			out := answerBytes(t, eng, q)
			for _, c := range streamed {
				want, err := CoherentCore(g, c.Layers, q.D)
				if err != nil {
					t.Fatal(err)
				}
				got := make([]int, len(c.Vertices))
				for i, v := range c.Vertices {
					got[i] = int(v)
				}
				if len(c.Layers) != q.S || !slices.Equal(got, want) {
					t.Fatalf("%+v: streamed CC on layers %v has %v, want %d layers and the d-CC %v", q, c.Layers, got, q.S, want)
				}
			}
			return out
		}
		first := run(q)
		other := q
		other.S = 1 + q.S%l
		run(other)
		if again := run(q); again != first {
			t.Fatalf("%+v: repeated query on one engine\n%s\nfirst run\n%s", q, again, first)
		}
		if cold := answerBytes(t, fresh, q); cold != first {
			t.Fatalf("%+v: warm engine\n%s\nfresh engine\n%s", q, first, cold)
		}
		res, err := eng.Search(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if err := Validate(g, Options{D: q.D, S: q.S, K: q.K}, res); err != nil {
			t.Fatalf("%+v: %v", q, err)
		}

		if n > 12 || q.Algorithm == AlgoExact {
			return
		}
		eq := q
		eq.Algorithm = AlgoExact
		opt, err := fresh.Search(context.Background(), eq)
		if err != nil {
			return // more candidates than the exact solver takes
		}
		ratio := 0.25
		if q.Algorithm == AlgoGreedy {
			ratio = 1 - 1/math.E
		}
		if float64(res.CoverSize) < ratio*float64(opt.CoverSize) {
			t.Fatalf("%+v: cover %d below %.3f of the optimum %d", q, res.CoverSize, ratio, opt.CoverSize)
		}
	})
}
