package kcore

import (
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/multilayer"
	"repro/internal/testutil"
)

// benchGraph is the shared fixture of the package benchmarks: dense
// enough that the peels have real cascades, small enough for -benchtime
// smoke runs in CI.
func benchGraph(b *testing.B) (*graphFixture, []int) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	g := testutil.RandomCorrelatedGraph(rng, 600, 6, 0.1, 0.85, 0.1)
	layers := make([]int, g.L())
	for i := range layers {
		layers[i] = i
	}
	coreness := make([][]int32, g.L())
	maxc := 0
	for i := range coreness {
		coreness[i] = Coreness(g, i)
		for _, c := range coreness[i] {
			maxc = max(maxc, int(c))
		}
	}
	return &graphFixture{g: g, coreness: coreness, maxc: maxc}, layers
}

type graphFixture struct {
	g        *multilayer.Graph
	coreness [][]int32
	maxc     int
}

// BenchmarkDCC measures the flat O(m) peel over the full vertex set and
// all layers — the innermost primitive of every search.
func BenchmarkDCC(b *testing.B) {
	fx, layers := benchGraph(b)
	full := bitset.NewFull(fx.g.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DCC(fx.g, full, layers, 4)
	}
}

// BenchmarkCoreness measures the unmasked bin-sort core decomposition of
// a single layer.
func BenchmarkCoreness(b *testing.B) {
	fx, _ := benchGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Coreness(fx.g, 0)
	}
}

// BenchmarkTrackerInitPerD measures maxc+1 independent coreness-seeded
// tracker initializations, each paying the whole degree pass.
func BenchmarkTrackerInitPerD(b *testing.B) {
	fx, _ := benchGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for d := 1; d <= fx.maxc+1; d++ {
			NewTrackerFromCoreness(fx.g, d, fx.coreness, 1)
		}
	}
}

// BenchmarkTrackerInitRaise measures the same maxc+1 tracker states the
// way the multi-d hierarchy pass makes them: one tracker raised across
// the nested level sets and copied into a shell at each threshold.
func BenchmarkTrackerInitRaise(b *testing.B) {
	fx, _ := benchGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := NewTrackerFromCoreness(fx.g, 1, fx.coreness, 1)
		var tr *Tracker
		for d := 1; d <= fx.maxc+1; d++ {
			base.Raise(d)
			tr = base.CopyInto(tr)
		}
	}
}
