package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"
)

func TestTailRefusesThinPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if _, err := tail(xs, 0.95); err == nil {
		t.Error("p95 of 100 samples has 5 beyond it; want a refusal")
	}
	got, err := tail(xs, 0.90)
	if err != nil || got != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90", got, err)
	}
	if _, err := tail(xs[:10], 0.01); err == nil {
		t.Error("10 samples leave fewer than 10 beyond any percentile; want a refusal")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q2, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v %v %v, want 0.75 1.5 2.25", q1, q2, q3)
	}
}

func TestJudge(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(parent))
		for i, x := range parent {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		change []float64
		better string
		want   string
	}{
		{scale(1.05), "lower", "ok"},
		{scale(1.2), "lower", "REGRESSED"},
		{scale(0.8), "higher", "REGRESSED"},
		{scale(1.2), "higher", "ok"},
	} {
		if got := judge(parent, tc.change, tc.better, 0.1); got != tc.want {
			t.Errorf("judge(x%v, %s) = %s, want %s", tc.change[0]/parent[0], tc.better, got, tc.want)
		}
	}
	noisy := []float64{50, 150, 60, 140, 100, 100, 70, 130}
	if got := judge(noisy, []float64{110, 120}, "lower", 0.1); got != "unresolved" {
		t.Errorf("noisy parent: %s, want unresolved", got)
	}
	if got := judge(noisy, []float64{40, 45}, "lower", 0.1); got != "better" {
		t.Errorf("noisy parent, every change run faster: %s, want better", got)
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{StartNS: 0, DurNS: 100}
	kids := []span{
		{StartNS: 20, DurNS: 30}, // [20,50) overlaps the next
		{StartNS: 10, DurNS: 20}, // [10,30)
		{StartNS: 90, DurNS: 30}, // clipped to [90,100)
		{StartNS: 200, DurNS: 5}, // outside the parent
	}
	if got := selfTime(parent, kids); got != 50 {
		t.Errorf("self time = %d, want 100 - 40 - 10 = 50", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("self time without children = %d, want 100", got)
	}
	spans := []span{
		{Trace: 1, Span: "search", StartNS: 0, DurNS: 10},
		{Trace: 1, Span: "server.handler", Parent: "search", StartNS: 0, DurNS: 7},
		{Trace: 1, Span: "core.search", Parent: "server.handler", StartNS: 0, DurNS: 5},
		{Trace: 2, Span: "search", StartNS: 50, DurNS: 4},
	}
	if got := selfTimes(spans, "server.handler"); len(got) != 1 || got[0] != 2e-6 {
		t.Errorf("handler self times = %v, want [2e-6 ms]", got)
	}
	if got := selfTimes(spans, "search"); len(got) != 2 || got[0] != 3e-6 || got[1] != 4e-6 {
		t.Errorf("root self times = %v, want [3e-6 4e-6]", got)
	}
}

// streamBytes renders every workload's op stream for a seed.
func streamBytes(seed int64) []byte {
	var b bytes.Buffer
	put := func(ops ...op) {
		for _, o := range ops {
			fmt.Fprintf(&b, "%d %v %s %s %v\n", o.due, o.side, o.path, o.body, o.items)
		}
	}
	put(hotOps(seed, 2*time.Second)...)
	for i := 0; i < 100; i++ {
		put(coldOp(seed, 10, i))
	}
	searches, updates := liveOps(seed, liveGraph(seed, 2000), 3*time.Second)
	put(searches...)
	put(updates...)
	return b.Bytes()
}

func TestOpStreamsDependOnlyOnSeed(t *testing.T) {
	a, b, c := streamBytes(7), streamBytes(7), streamBytes(8)
	if !bytes.Equal(a, b) {
		t.Error("equal seeds gave different op streams")
	}
	if bytes.Equal(a, c) {
		t.Error("different seeds gave the same op stream")
	}
}

func TestGateMarksWrongItems(t *testing.T) {
	for _, tc := range []struct {
		it   reply
		want bool
	}{
		{reply{Source: "cache"}, false},
		{reply{Source: "engine"}, true},
		{reply{Source: "cache", Truncated: true}, true},
		{reply{Source: "cache", Error: "boom"}, true},
	} {
		rc := rec{items: []item{{num: 3, reply: tc.it}}}
		checkItems(&rc, "cache")
		if (rc.bad != "") != tc.want {
			t.Errorf("%+v: bad = %q, want bad %v", tc.it, rc.bad, tc.want)
		}
	}
	// A batch item omits empty cores where a single search sends [].
	if (&reply{}).answer() != (&reply{Cores: json.RawMessage("[]")}).answer() {
		t.Error("an empty batch item and an empty search answer differ")
	}
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	for _, tc := range []struct {
		kind string
		json []struct{ Name, Unit, Better string }
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(tc.json) != len(tc.defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", tc.kind, len(tc.json), len(tc.defs))
			continue
		}
		for i, m := range tc.json {
			if d := tc.defs[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json %v, program %v", tc.kind, i, m, d)
			}
		}
	}
}

// TestSmoke runs every workload, traced, on small graphs and short
// windows, correctness gates included, and checks that both metric sets
// come out complete.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	// The windows give every stream the 11 samples a tail needs: hot-cache
	// sends 10 batches/s and live-mixed 4 updates/s.
	windows := map[string]time.Duration{
		"hot-cache": 1500 * time.Millisecond, "cold-search": time.Second,
		"live-mixed": 3 * time.Second, "cold-start": time.Second,
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var log bytes.Buffer
			r := &runner{
				seed: 3, window: raceSlowdown * windows[w.name], size: sizes{serveN: 2000, liveN: 2000, setups: 2, prefix: 8},
				mainTail: 0.05, sideTail: 0.05, trace: &tracer{origin: time.Now()},
				workDir: t.TempDir(), log: &log,
			}
			o, err := w.run(r)
			if err != nil {
				t.Fatalf("%v\n%s", err, log.String())
			}
			if len(o.wrong) > 0 {
				t.Fatalf("gate failed: %v", o.wrong)
			}
			if o.failed > 0 {
				t.Errorf("%d of %d ops failed", o.failed, o.attempted)
			}
			for _, traced := range []bool{false, true} {
				if _, err := finish(o, traced); err != nil {
					t.Errorf("traced=%v: %v", traced, err)
				}
			}
			if len(r.trace.spans) == 0 {
				t.Error("no spans recorded")
			}
		})
	}
}
