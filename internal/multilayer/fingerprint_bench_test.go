package multilayer_test

import (
	"testing"

	"repro/internal/datasets"
)

// BenchmarkFingerprint times Graph.Fingerprint on the serve-shaped
// planted graph (n = 20,000, l = 10, about 3.5 MB of CSR) of the
// cold-search and cold-start benchmark workloads. Snapshot restore pays
// it once, and a mutable engine pays it on the first cache key after
// every update batch.
func BenchmarkFingerprint(b *testing.B) {
	const n = 20000
	g := datasets.Generate(datasets.Config{
		Name: "serve", N: n, Layers: 10, Seed: 1,
		AvgDegree: 2.2, Gamma: 2.3, Correlation: 0.5,
		Communities: n / 500, MinSize: 12, MaxSize: 30,
		MinSupport: 3, MaxSupport: 6, PIn: 0.6,
		Persistent: 4, CrossLayerNoise: 0.05,
	}).Graph
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Fingerprint()
	}
}
