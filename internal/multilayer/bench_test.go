package multilayer_test

import (
	"path/filepath"
	"testing"

	"repro/internal/datasets"
	"repro/internal/multilayer"
)

// serveGraph is the serve-shaped planted graph (n = 20,000, l = 10,
// about 3.5 MB of CSR) of the cold-search and cold-start benchmark
// workloads.
func serveGraph() *multilayer.Graph {
	const n = 20000
	return datasets.Generate(datasets.Config{
		Name: "serve", N: n, Layers: 10, Seed: 1,
		AvgDegree: 2.2, Gamma: 2.3, Correlation: 0.5,
		Communities: n / 500, MinSize: 12, MaxSize: 30,
		MinSupport: 3, MaxSupport: 6, PIn: 0.6,
		Persistent: 4, CrossLayerNoise: 0.05,
	}).Graph
}

// BenchmarkFingerprint times Graph.Fingerprint on the serve graph.
// Snapshot restore pays it once, and a mutable engine pays it on the
// first cache key after every update batch.
func BenchmarkFingerprint(b *testing.B) {
	g := serveGraph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Fingerprint()
	}
}

// BenchmarkReadGraph times loading the serve graph from disk three
// ways: parsing the text edge list, decoding the .mlgb binary image onto
// the heap (full validation), and mapping the same image (O(n) eager
// validation, no copy). Compare text with binary for the cost of
// parsing, and binary with mapped for the cost of the copy.
func BenchmarkReadGraph(b *testing.B) {
	g := serveGraph()
	dir := b.TempDir()
	textPath := filepath.Join(dir, "serve.mlg")
	binPath := filepath.Join(dir, "serve.mlgb")
	if err := g.WriteFile(textPath); err != nil {
		b.Fatal(err)
	}
	if err := g.WriteBinaryFile(binPath); err != nil {
		b.Fatal(err)
	}
	b.Run("text", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := multilayer.ReadFile(textPath); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("binary", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := multilayer.ReadBinaryFile(binPath); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mapped", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mg, err := multilayer.OpenMapped(binPath)
			if err != nil {
				b.Fatal(err)
			}
			if err := mg.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
