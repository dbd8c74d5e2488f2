package main

import (
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	dccs "repro"
)

// writeGraph writes a small random three-layer graph as a .mlgb file and
// returns its path and vertex count.
func writeGraph(t *testing.T) (string, int) {
	t.Helper()
	const n = 200
	rng := rand.New(rand.NewSource(11))
	b := dccs.NewBuilder(n, 3)
	for l := 0; l < 3; l++ {
		for i := 0; i < 1200; i++ {
			b.MustAddEdge(l, rng.Intn(n), rng.Intn(n))
		}
	}
	path := filepath.Join(t.TempDir(), "g.mlgb")
	if err := b.Build().WriteBinaryFile(path); err != nil {
		t.Fatal(err)
	}
	return path, n
}

func TestLoadGraphsMapsCleanFile(t *testing.T) {
	path, n := writeGraph(t)
	specs, mappings, err := loadGraphs([]string{"demo=" + path}, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, mg := range mappings {
		defer mg.Close()
	}
	if len(specs) != 1 || len(mappings) != 1 || specs[0].Name != "demo" || specs[0].Graph.N() != n {
		t.Fatalf("specs %+v, %d mappings", specs, len(mappings))
	}
	if specs[0].Mmap != mappings[0].ZeroCopy() {
		t.Fatalf("spec Mmap = %v, mapping ZeroCopy = %v", specs[0].Mmap, mappings[0].ZeroCopy())
	}
}

// TestLoadGraphsRejectsCorruptMappedFile sets the first neighbor id of
// layer 0 — after the 48-byte header of a three-layer file and the
// layer's n+1 offsets — to 10^6. The mapped open defers that check, so
// loadGraphs must catch it before the graph is used.
func TestLoadGraphsRejectsCorruptMappedFile(t *testing.T) {
	path, n := writeGraph(t)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(blob[48+(n+1)*8:], 1_000_000)
	bad := filepath.Join(t.TempDir(), "bad.mlgb")
	if err := os.WriteFile(bad, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	mg, err := dccs.OpenMappedGraphFile(bad)
	if err != nil {
		t.Fatalf("the mapped open no longer defers the neighbor scan: %v", err)
	}
	mg.Close()

	specs, mappings, err := loadGraphs([]string{bad}, true)
	if err == nil {
		t.Fatalf("loadGraphs served a corrupt mapped file: %d specs, %d mappings", len(specs), len(mappings))
	}
	if !strings.Contains(err.Error(), bad) {
		t.Fatalf("error does not name the file: %v", err)
	}
}
