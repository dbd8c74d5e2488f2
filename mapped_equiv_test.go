package dccs

import (
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/datasets"
	"repro/internal/testutil"
)

// TestMappedEngineEquivalence is the PR 9 mmap acceptance test: an
// Engine over an OpenMappedGraphFile graph must answer every query
// byte-identically to an Engine over the heap-decoded graph, must be
// safe under concurrent queries (run with -race), and its results must
// stay valid after the mapping is closed — the engine never hands out
// slices aliasing the mapped CSR arrays.
func TestMappedEngineEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	g := testutil.RandomCorrelatedGraph(rng, 80, 6, 0.2, 0.85, 0.05)
	path := filepath.Join(t.TempDir(), "g.mlgb")
	if err := g.WriteBinaryFile(path); err != nil {
		t.Fatal(err)
	}

	heap, err := ReadGraphFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenMappedGraphFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !mapped.Equal(heap) {
		t.Fatal("mapped graph differs from heap decode")
	}

	queries := []Query{
		{D: 2, S: 2, K: 5, Seed: 3, Algorithm: AlgoBottomUp},
		{D: 2, S: 4, K: 5, Seed: 3, Algorithm: AlgoTopDown},
		{D: 3, S: 3, K: 4, Seed: 9, Algorithm: AlgoGreedy},
		{D: 3, S: 3, K: 4, Seed: 9}, // auto
	}

	engHeap, err := NewEngine(heap, EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	engMapped, err := NewEngine(mapped.Graph, EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}

	// Concurrent queries against the mapped engine: with -race this
	// pins down that the zero-copy load path introduced no write to the
	// shared CSR arrays.
	var wg sync.WaitGroup
	mappedRes := make([][]*Result, 4)
	for w := range mappedRes {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, q := range queries {
				res, err := engMapped.Search(context.Background(), q)
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				mappedRes[w] = append(mappedRes[w], res)
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	var heapRes []*Result
	for _, q := range queries {
		res, err := engHeap.Search(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		heapRes = append(heapRes, res)
	}

	check := func() {
		t.Helper()
		for w := range mappedRes {
			for i := range queries {
				got, want := mappedRes[w][i], heapRes[i]
				if got.CoverSize != want.CoverSize || !reflect.DeepEqual(got.Cores, want.Cores) {
					t.Errorf("worker %d query %d: mapped result differs from heap result", w, i)
				}
			}
		}
	}
	check()

	// Close the mapping, then re-validate every already-returned result:
	// touching a slice that aliased the unmapped pages would fault, so a
	// clean pass proves results are independent of the mapping lifetime.
	if err := mapped.Close(); err != nil {
		t.Fatal(err)
	}
	check()
}

// TestMappedRestartAnswersWarm restarts an engine the way a server does
// after a drain save: map the .mlgb, create an engine and load the
// .mlgs the saved engine wrote after answering a query stream. The
// restarted engine answers the stream with JSON byte-equal to the saved
// engine's answers (Stats.Elapsed aside) without building an artifact
// or missing the memo once: the snapshot carries every d-CC and
// potential set the stream looks up.
func TestMappedRestartAnswersWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	g := testutil.RandomCorrelatedGraph(rng, 80, 6, 0.2, 0.85, 0.05)
	dir := t.TempDir()
	graphPath, snapPath := filepath.Join(dir, "g.mlgb"), filepath.Join(dir, "g.mlgs")
	if err := g.WriteBinaryFile(graphPath); err != nil {
		t.Fatal(err)
	}
	queries := []Query{
		{D: 2, S: 2, K: 5, Seed: 3, Algorithm: AlgoBottomUp},
		{D: 2, S: 4, K: 5, Seed: 3, Algorithm: AlgoTopDown},
		{D: 3, S: 3, K: 4, Seed: 9, Algorithm: AlgoGreedy},
		{D: 3, S: 3, K: 4, Seed: 9}, // auto
	}
	answer := func(eng *Engine) []string {
		t.Helper()
		var out []string
		for _, q := range queries {
			res, err := eng.Search(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			res.Stats.Elapsed = 0
			b, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, string(b))
		}
		return out
	}

	saved, err := NewEngine(g, EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want := answer(saved)
	if err := saved.SaveSnapshot(snapPath); err != nil {
		t.Fatal(err)
	}

	mapped, err := OpenMappedGraphFile(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	restarted, err := NewEngine(mapped.Graph, EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := restarted.LoadSnapshot(snapPath); err != nil {
		t.Fatal(err)
	}
	if m := restarted.Metrics(); m.MemoBytes != saved.Metrics().MemoBytes {
		t.Fatalf("restored MemoBytes %d, the saved engine's %d", m.MemoBytes, saved.Metrics().MemoBytes)
	}
	got := answer(restarted)
	for i := range queries {
		if got[i] != want[i] {
			t.Fatalf("query %d: restarted engine answers\n%s\nwant\n%s", i, got[i], want[i])
		}
	}
	if m := restarted.Metrics(); m.CorenessBuilds != 0 || m.HierarchyBuilds != 0 || m.MemoMisses != 0 || m.MemoHits == 0 {
		t.Fatalf("restarted engine was not warm: %+v", m)
	}
}

// TestWriteOverMappedGraph writes a graph over the file an engine serves
// mapped, then searches: the engine must keep answering on the graph it
// mapped. A writer that truncated the file in place took the mapped
// pages past the new end of file, and the search died on SIGBUS, which
// kills the whole test binary. So the body runs in a re-exec'd child,
// and the parent only reads how the child ended.
func TestWriteOverMappedGraph(t *testing.T) {
	const dirEnv = "DCCS_WRITE_OVER_MAPPED_DIR"
	if dir := os.Getenv(dirEnv); dir != "" {
		writeOverMappedGraph(t, dir)
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestWriteOverMappedGraph$", "-test.count=1", "-test.v")
	cmd.Env = append(os.Environ(), dirEnv+"="+t.TempDir())
	out, err := cmd.CombinedOutput()
	if err != nil || !strings.Contains(string(out), "--- PASS: TestWriteOverMappedGraph") {
		t.Fatalf("child: %v\n%s", err, out)
	}
}

// writeOverMappedGraph is the child half of TestWriteOverMappedGraph.
func writeOverMappedGraph(t *testing.T, dir string) {
	g := datasets.Generate(datasets.Config{
		Name: "mapped", N: 20000, Layers: 4, Seed: 1,
		AvgDegree: 3, Gamma: 2.3, Correlation: 0.5,
		Communities: 40, MinSize: 12, MaxSize: 30,
		MinSupport: 2, MaxSupport: 4, PIn: 0.6,
	}).Graph
	path := filepath.Join(dir, "g.mlgb")
	if err := g.WriteBinaryFile(path); err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenMappedGraphFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	eng, err := NewEngine(mapped.Graph, EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	small := testutil.RandomCorrelatedGraph(rand.New(rand.NewSource(1)), 10, 2, 0.3, 0.85, 0.05)
	if err := small.WriteBinaryFile(path); err != nil {
		t.Fatal(err)
	}
	ref, err := NewEngine(g, EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{D: 2, S: 2, K: 5, Seed: 1}
	got, err := eng.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if got.CoverSize != want.CoverSize || !reflect.DeepEqual(got.Cores, want.Cores) {
		t.Fatal("the mapped engine's answer changed when its file was rewritten")
	}
	if reread, err := ReadGraphFile(path); err != nil || !reread.Equal(small) {
		t.Fatalf("the file does not hold the graph written over it (%v)", err)
	}
}
