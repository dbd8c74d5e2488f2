package multilayer

import (
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testGraphForMapping(t *testing.T) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	b := NewBuilder(200, 3)
	for l := 0; l < 3; l++ {
		for i := 0; i < 1200; i++ {
			b.MustAddEdge(l, rng.Intn(200), rng.Intn(200))
		}
	}
	return b.Build()
}

func writeTestBinary(t *testing.T, g *Graph) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.mlgb")
	if err := g.WriteBinaryFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestOpenMappedEquivalence: a mapped graph must be indistinguishable
// from the fully-validated heap decode of the same file.
func TestOpenMappedEquivalence(t *testing.T) {
	g := testGraphForMapping(t)
	path := writeTestBinary(t, g)

	heap, err := ReadBinaryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mg, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mg.Close()

	if mg.ZeroCopy() != wantZeroCopy {
		t.Fatalf("ZeroCopy() = %v, want %v on this build", mg.ZeroCopy(), wantZeroCopy)
	}
	if !mg.Equal(heap) {
		t.Fatal("mapped graph differs from heap decode")
	}
	if mg.Fingerprint() != heap.Fingerprint() {
		t.Fatal("mapped fingerprint differs from heap decode")
	}
	if err := mg.Verify(); err != nil {
		t.Fatalf("Verify on a well-formed file: %v", err)
	}
}

func TestOpenMappedRejectsNonBinary(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.mlg")
	if err := os.WriteFile(path, []byte("# text graph\n0 1 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenMapped(path)
	if err == nil {
		t.Fatal("no error mapping a text graph")
	}
	if !strings.Contains(err.Error(), "not a binary graph") {
		t.Fatalf("error %q, want the magic-sniff message", err)
	}
}

// corruptAt flips bytes at off in a copy of the file and returns the
// new path.
func corruptAt(t *testing.T, path string, off int64, val []byte) string {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	copy(blob[off:], val)
	out := filepath.Join(t.TempDir(), "corrupt.mlgb")
	if err := os.WriteFile(out, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestOpenMappedValidatesOffsets: corrupting the offsets array (the
// O(n) eagerly-validated half) must fail at OpenMapped, since broken
// offsets would allow out-of-range indexing.
func TestOpenMappedValidatesOffsets(t *testing.T) {
	g := testGraphForMapping(t)
	path := writeTestBinary(t, g)

	// Header: magic(4) version(4) n(8) l(8) lens(3×8) = 48 bytes, then
	// layer 0's offsets array. Make offsets[1] enormous.
	var huge [8]byte
	binary.LittleEndian.PutUint64(huge[:], 1<<40)
	bad := corruptAt(t, path, 48+8, huge[:])
	if _, err := OpenMapped(bad); err == nil {
		t.Fatal("OpenMapped accepted a corrupt offsets array")
	}
}

// TestOpenMappedDefersNeighborScan: corrupting a neighbor id (the O(m)
// half) passes OpenMapped's eager checks under the documented trust
// model, is caught by Verify, and is also caught by the fully-validated
// DecodeBinary path.
func TestOpenMappedDefersNeighborScan(t *testing.T) {
	g := testGraphForMapping(t)
	path := writeTestBinary(t, g)

	// Find a neighbor byte offset: after the 48-byte header comes layer
	// 0's offsets ((n+1)×8 bytes), then its neighbors. Write a negative
	// id into the first neighbor slot.
	off := int64(48 + (g.N()+1)*8)
	neg := []byte{0xff, 0xff, 0xff, 0xff}
	bad := corruptAt(t, path, off, neg)

	mg, err := OpenMapped(bad)
	if err != nil {
		t.Fatalf("OpenMapped must defer the O(m) scan, got: %v", err)
	}
	defer mg.Close()
	if err := mg.Verify(); err == nil {
		t.Fatal("Verify missed the corrupt neighbor id")
	}

	blob, err := os.ReadFile(bad)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeBinary(blob); err == nil {
		t.Fatal("DecodeBinary (untrusted path) missed the corrupt neighbor id")
	}
}

func TestMappedCloseIdempotent(t *testing.T) {
	g := testGraphForMapping(t)
	mg, err := OpenMapped(writeTestBinary(t, g))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := mg.Close(); err != nil {
			t.Fatalf("Close #%d: %v", i+1, err)
		}
	}
}
