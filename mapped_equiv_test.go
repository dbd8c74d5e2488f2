package dccs

import (
	"context"
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
