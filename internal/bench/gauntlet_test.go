package bench

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/multilayer"
)

// splitTestGraph: two triangles {0,1,2} and {3,4,5}, both replicated on
// layers 0 and 1, plus a bridge edge 2–3 present only on layer 0.
func splitTestGraph(t *testing.T) *multilayer.Graph {
	t.Helper()
	tri := func(b *multilayer.Builder, layer int, base int) {
		b.MustAddEdge(layer, base, base+1)
		b.MustAddEdge(layer, base+1, base+2)
		b.MustAddEdge(layer, base, base+2)
	}
	b := multilayer.NewBuilder(6, 2)
	for layer := 0; layer < 2; layer++ {
		tri(b, layer, 0)
		tri(b, layer, 3)
	}
	b.MustAddEdge(0, 2, 3)
	return b.Build()
}

// TestSplitOnLayersCoherence: the split keeps only coherent edges, so a
// single-layer bridge does not merge groups — but the same bridge does
// connect them when the supporting layer set shrinks to the layer that
// carries it.
func TestSplitOnLayersCoherence(t *testing.T) {
	g := splitTestGraph(t)
	all := []int32{0, 1, 2, 3, 4, 5}

	got := splitOnLayers(g, all, []int{0, 1})
	want := [][]int32{{0, 1, 2}, {3, 4, 5}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("split on layers {0,1} = %v, want %v", got, want)
	}

	got = splitOnLayers(g, all, []int{0})
	if len(got) != 1 || len(got[0]) != 6 {
		t.Fatalf("split on layer {0} = %v, want one 6-vertex component", got)
	}

	// Vertices outside the set never leak in, and isolated members come
	// back as singletons.
	got = splitOnLayers(g, []int32{0, 1, 5}, []int{0, 1})
	want = [][]int32{{0, 1}, {5}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("split of subset = %v, want %v", got, want)
	}

	if got := splitOnLayers(g, nil, []int{0}); got != nil {
		t.Fatalf("split of empty set = %v, want nil", got)
	}
}

// TestGauntletGate: the gate passes only when DCCS wins both criteria
// on every dataset, and its error names each failing dataset.
func TestGauntletGate(t *testing.T) {
	ok := gauntletEntry{DCCSF1: 0.9, MimagF1: 0.9, DCCSP50MS: 1, MimagP50MS: 100}
	if err := gauntletGate(&gauntletReport{Datasets: map[string]gauntletEntry{"a": ok, "b": ok}}); err != nil {
		t.Fatalf("gate failed on a winning report: %v", err)
	}

	slowEntry := ok
	slowEntry.DCCSP50MS = 100
	weakEntry := ok
	weakEntry.DCCSF1 = 0.5
	err := gauntletGate(&gauntletReport{Datasets: map[string]gauntletEntry{
		"fine": ok, "slow": slowEntry, "weak": weakEntry,
	}})
	if err == nil {
		t.Fatal("gate passed a losing report")
	}
	for _, name := range []string{"slow", "weak"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("gate error does not name %q: %v", name, err)
		}
	}
	if strings.Contains(err.Error(), "fine") {
		t.Errorf("gate error names a passing dataset: %v", err)
	}
}

// TestGauntletMetricsRows: BENCH_scale.json lists the five gated values
// of every dataset, in dataset order, each stating its unit and
// direction; the budget constant is not gated.
func TestGauntletMetricsRows(t *testing.T) {
	rows := gauntletMetrics(map[string]gauntletEntry{
		"b": {DCCSP50MS: 1, DCCSP99MS: 2, MimagP50MS: 30, MimagP99MS: 40, P50Speedup: 30, BudgetMS: 2000},
		"a": {DCCSP50MS: 5},
	})
	if len(rows) != 10 {
		t.Fatalf("%d rows, want 5 per dataset: %+v", len(rows), rows)
	}
	want := []metricRow{
		{"b", "dccs_p50_ms", "ms", "lower", 1},
		{"b", "dccs_p99_ms", "ms", "lower", 2},
		{"b", "mimag_p50_ms", "ms", "lower", 30},
		{"b", "mimag_p99_ms", "ms", "lower", 40},
		{"b", "p50_speedup", "ratio", "higher", 30},
	}
	if rows[0] != (metricRow{"a", "dccs_p50_ms", "ms", "lower", 5}) {
		t.Errorf("first row %+v, want dataset a's dccs_p50_ms", rows[0])
	}
	if !reflect.DeepEqual(rows[5:], want) {
		t.Errorf("dataset b rows = %+v, want %+v", rows[5:], want)
	}
}
