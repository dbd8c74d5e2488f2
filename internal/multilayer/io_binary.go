package multilayer

import (
	"bytes"
	"fmt"
	"io"
	"os"

	"repro/internal/leio"
)

// The .mlgb binary format, version 1, is a raw dump of the CSR backing
// arrays so loading is section slurps instead of per-edge parsing. All
// integers are little-endian; every section starts on an 8-byte boundary
// so the loader can alias the file buffer in place (see internal/leio).
//
//	offset  size      field
//	0       4         magic "MLGB"
//	4       4         format version, uint32 (currently 1)
//	8       8         n, int64 — vertex count
//	16      8         l, int64 — layer count
//	24      8·l       per-layer neighbor-array length, int64 each
//	        per layer i, in order:
//	        8·(n+1)   offsets_i, int64 each; offsets_i[n] = length of neighbors_i
//	        4·len     neighbors_i, int32 each, zero-padded to an 8-byte boundary
//
// The writer guarantees the CSR invariants (offsets non-decreasing from
// 0, per-vertex neighbor ranges strictly increasing, ids in [0,n), both
// directions of every undirected edge present); the reader re-validates
// everything except cross-vertex symmetry, so a corrupt or adversarial
// file yields an error, never a panic or an out-of-range index.

// BinaryMagic is the 4-byte magic prefix of the .mlgb format, used by
// OpenFile (and the CLIs) to sniff binary graphs.
const BinaryMagic = "MLGB"

const binaryVersion = 1

// EncodeBinary serializes g in the .mlgb binary format.
func (g *Graph) EncodeBinary(w io.Writer) error {
	lw := leio.NewWriter(w)
	lw.Raw([]byte(BinaryMagic))
	lw.U32(binaryVersion)
	lw.I64(int64(g.n))
	lw.I64(int64(g.L()))
	for i := range g.layers {
		lw.I64(int64(len(g.layers[i].neighbors)))
	}
	for i := range g.layers {
		lw.I64s(g.layers[i].offsets)
		lw.I32s(g.layers[i].neighbors)
		lw.Pad8()
	}
	return lw.Flush()
}

// WriteBinaryFile saves g to a file in the .mlgb binary format. It
// replaces path through a temporary file and a rename
// (leio.WriteFileAtomic), so a process serving the old file mapped keeps
// it.
func (g *Graph) WriteBinaryFile(path string) error {
	return leio.WriteFileAtomic(path, 0o644, g.EncodeBinary)
}

// DecodeBinary deserializes a graph from one in-memory .mlgb image,
// typically a whole-file read. The returned graph's CSR arrays alias
// data where alignment allows (they always do for writer-produced
// files on little-endian hosts), so the caller must not modify data
// afterwards. Corrupt input of any shape yields an error, never a panic
// (see FuzzDecodeBinary).
func DecodeBinary(data []byte) (*Graph, error) {
	return decodeBinary(data, true)
}

// decodeBinary is the shared decode body. With checkNeighbors true it
// runs the full O(n+m) validateCSR per layer (the DecodeBinary contract
// for untrusted input); with false it runs only the O(n) validateOffsets
// half, the trust model OpenMapped documents.
func decodeBinary(data []byte, checkNeighbors bool) (*Graph, error) {
	r := leio.NewReader(data)
	if magic := r.Bytes(4); r.Err() != nil || string(magic) != BinaryMagic {
		return nil, fmt.Errorf("multilayer: not a binary graph (missing %q magic)", BinaryMagic)
	}
	if v := r.U32(); r.Err() != nil || v != binaryVersion {
		return nil, fmt.Errorf("multilayer: unsupported binary graph version %d (want %d)", v, binaryVersion)
	}
	n := r.I64()
	l := r.I64()
	if r.Err() == nil && (n < 0 || n > int64(maxVertices)) {
		r.Failf("multilayer: vertex count %d out of range [0,%d]", n, maxVertices)
	}
	// Each layer needs at least its length record; a tighter bound than
	// Count alone, rejecting absurd layer counts before the loop.
	if cnt := r.Count(l, 8); cnt >= 0 {
		lens := make([]int64, cnt)
		for i := range lens {
			lens[i] = r.I64()
		}
		g := &Graph{n: int(n), layers: make([]csrLayer, cnt)}
		for i := range g.layers {
			offsets := r.I64s(r.Count(n+1, 8))
			neighbors := r.I32s(r.Count(lens[i], 4))
			r.Align8()
			if r.Err() != nil {
				break
			}
			if err := validateOffsets(int(n), offsets, neighbors); err != nil {
				return nil, fmt.Errorf("multilayer: binary graph layer %d: %w", i, err)
			}
			if checkNeighbors {
				if err := validateNeighbors(int(n), offsets, neighbors); err != nil {
					return nil, fmt.Errorf("multilayer: binary graph layer %d: %w", i, err)
				}
			}
			g.layers[i] = csrLayer{offsets: offsets, neighbors: neighbors}
		}
		if r.Err() == nil {
			if rem := r.Remaining(); rem != 0 {
				return nil, fmt.Errorf("multilayer: %d trailing bytes after binary graph", rem)
			}
			return g, nil
		}
	}
	return nil, r.Err()
}

// maxVertices bounds n so vertex ids fit int32 and n+1 fits int;
// maxLayers bounds l so per-layer bookkeeping cannot be made to
// allocate unboundedly by a corrupt header.
const (
	maxVertices = 1<<31 - 2
	maxLayers   = 1 << 20
)

// validateCSR checks the per-layer CSR invariants the algorithms rely
// on: offsets span the neighbor array monotonically, and every vertex's
// range is strictly increasing with ids in [0,n) and no self-loop.
func validateCSR(n int, offsets []int64, neighbors []int32) error {
	if err := validateOffsets(n, offsets, neighbors); err != nil {
		return err
	}
	return validateNeighbors(n, offsets, neighbors)
}

// validateOffsets is the O(n) half of validateCSR: the offsets array has
// the right shape and spans the neighbor array monotonically. Once it
// passes, every neighbors[offsets[v]:offsets[v+1]] slice is in bounds;
// the ids inside those slices are validateNeighbors' job, which the mmap
// trust model defers to Mapped.Verify (see Mapped).
func validateOffsets(n int, offsets []int64, neighbors []int32) error {
	if len(offsets) != n+1 {
		return fmt.Errorf("offsets length %d, want %d", len(offsets), n+1)
	}
	if offsets[0] != 0 {
		return fmt.Errorf("offsets[0] = %d, want 0", offsets[0])
	}
	if offsets[n] != int64(len(neighbors)) {
		return fmt.Errorf("offsets[%d] = %d, want neighbor count %d", n, offsets[n], len(neighbors))
	}
	for v := 0; v < n; v++ {
		// The upper bound matters even with the offsets[n] check above: a
		// non-monotonic array can spike past the neighbor array mid-way
		// and still end on the right value.
		if offsets[v+1] < offsets[v] || offsets[v+1] > int64(len(neighbors)) {
			return fmt.Errorf("offsets invalid at vertex %d", v)
		}
	}
	return nil
}

// validateNeighbors is the O(m) half of validateCSR: per-vertex neighbor
// ranges are strictly increasing with ids in [0,n) and no self-loops.
// Callers must have passed validateOffsets first.
func validateNeighbors(n int, offsets []int64, neighbors []int32) error {
	for v := 0; v < n; v++ {
		prev := int32(-1)
		for _, u := range neighbors[offsets[v]:offsets[v+1]] {
			if u < 0 || u >= int32(n) {
				return fmt.Errorf("vertex %d: neighbor %d out of range [0,%d)", v, u, n)
			}
			if u == int32(v) {
				return fmt.Errorf("vertex %d: self-loop", v)
			}
			if u <= prev {
				return fmt.Errorf("vertex %d: neighbors not strictly increasing", v)
			}
			prev = u
		}
	}
	return nil
}

// ReadBinaryFile loads a graph from a .mlgb file by slurping the whole
// file and decoding it in place.
func ReadBinaryFile(path string) (*Graph, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	g, err := DecodeBinary(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

// OpenFile loads a graph from a file in either supported format,
// sniffing the leading magic bytes: files starting with "MLGB" decode as
// the binary format, everything else parses as the text edge-list
// format. This is the entry point the CLIs use, so a .mlg and a .mlgb
// path are interchangeable on every command line.
func OpenFile(path string) (*Graph, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if bytes.HasPrefix(data, []byte(BinaryMagic)) {
		g, err := DecodeBinary(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return g, nil
	}
	g, err := Decode(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}
