package multilayer

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/bitset"
)

func encodeBinaryBytes(t *testing.T, g *Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.EncodeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestBinaryRoundTrip(t *testing.T) {
	g := mustGraph(t, 6, [][][2]int{
		{{0, 1}, {1, 2}, {4, 5}},
		{{0, 5}},
		{}, // empty layer
	})
	g2, err := DecodeBinary(encodeBinaryBytes(t, g))
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(g2) {
		t.Fatal("binary round trip changed the graph")
	}
	assertGraphsEqual(t, g, g2)
}

func TestBinaryRoundTripEmptyGraph(t *testing.T) {
	for _, dims := range [][2]int{{0, 0}, {0, 3}, {5, 0}} {
		g := NewBuilder(dims[0], dims[1]).Build()
		g2, err := DecodeBinary(encodeBinaryBytes(t, g))
		if err != nil {
			t.Fatalf("n=%d l=%d: %v", dims[0], dims[1], err)
		}
		if !g.Equal(g2) {
			t.Fatalf("n=%d l=%d: round trip changed the graph", dims[0], dims[1])
		}
	}
}

func TestBinaryRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(60)
		l := 1 + rng.Intn(5)
		b := NewBuilder(n, l)
		for e := 0; e < 200; e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				b.MustAddEdge(rng.Intn(l), u, v)
			}
		}
		g := b.Build()

		// Text and binary must agree with each other, not just with g.
		var tbuf bytes.Buffer
		if err := g.Encode(&tbuf); err != nil {
			t.Fatal(err)
		}
		fromText, err := Decode(&tbuf)
		if err != nil {
			t.Fatal(err)
		}
		fromBin, err := DecodeBinary(encodeBinaryBytes(t, g))
		if err != nil {
			t.Fatal(err)
		}
		if !fromText.Equal(fromBin) || !fromBin.Equal(g) {
			t.Fatal("text and binary decodings disagree")
		}
		if fromBin.Fingerprint() != g.Fingerprint() {
			t.Fatal("fingerprint changed across binary round trip")
		}
	}
}

func TestBinaryFileRoundTripAndSniffing(t *testing.T) {
	g := mustGraph(t, 5, [][][2]int{{{0, 1}, {1, 2}}, {{3, 4}}})
	dir := t.TempDir()
	binPath := filepath.Join(dir, "g.mlgb")
	textPath := filepath.Join(dir, "g.mlg")
	if err := g.WriteBinaryFile(binPath); err != nil {
		t.Fatal(err)
	}
	if err := g.WriteFile(textPath); err != nil {
		t.Fatal(err)
	}
	fromBin, err := ReadBinaryFile(binPath)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(fromBin) {
		t.Fatal("binary file round trip changed the graph")
	}
	// OpenFile must sniff the magic, not the extension.
	for _, path := range []string{binPath, textPath} {
		got, err := OpenFile(path)
		if err != nil {
			t.Fatalf("OpenFile(%s): %v", path, err)
		}
		if !g.Equal(got) {
			t.Fatalf("OpenFile(%s) changed the graph", path)
		}
	}
	if _, err := OpenFile(filepath.Join(dir, "nope")); err == nil {
		t.Fatal("expected error for missing file")
	}
}

// TestBinaryMalformed pins the error-not-panic contract for corrupt
// binary images: every mutation below must be rejected cleanly.
func TestBinaryMalformed(t *testing.T) {
	g := mustGraph(t, 4, [][][2]int{{{0, 1}, {1, 2}, {2, 3}}, {{0, 3}}})
	valid := encodeBinaryBytes(t, g)

	mutate := func(name string, fn func([]byte) []byte) {
		t.Helper()
		data := fn(append([]byte(nil), valid...))
		if _, err := DecodeBinary(data); err == nil {
			t.Errorf("%s: expected decode error", name)
		}
	}

	mutate("empty", func(b []byte) []byte { return nil })
	mutate("bad magic", func(b []byte) []byte { b[0] = 'X'; return b })
	mutate("bad version", func(b []byte) []byte { b[4] = 99; return b })
	mutate("negative n", func(b []byte) []byte { b[15] = 0x80; return b })
	mutate("negative l", func(b []byte) []byte { b[23] = 0x80; return b })
	mutate("huge l", func(b []byte) []byte { b[20] = 0xff; b[21] = 0xff; return b })
	mutate("trailing garbage", func(b []byte) []byte { return append(b, 0xab) })
	for cut := 1; cut < len(valid); cut += 7 {
		mutate("truncated", func(b []byte) []byte { return b[:len(b)-cut] })
	}
	// Corrupt the first layer's first neighbor entry (offset: 24 bytes
	// header + 2×8 layer lengths + 5×8 offsets) to an out-of-range id.
	nbr0 := 24 + 2*8 + 5*8
	mutate("neighbor out of range", func(b []byte) []byte {
		b[nbr0], b[nbr0+1], b[nbr0+2], b[nbr0+3] = 0xff, 0xff, 0xff, 0x7f
		return b
	})
	mutate("unsorted neighbors", func(b []byte) []byte {
		// Vertex 1's list is [0, 2]; swapping makes it decreasing.
		copy(b[nbr0+4:], []byte{2, 0, 0, 0, 0, 0, 0, 0})
		return b
	})
	mutate("self loop", func(b []byte) []byte {
		// Vertex 0's single neighbor becomes 0 itself.
		copy(b[nbr0:], []byte{0, 0, 0, 0})
		return b
	})
}

func TestFingerprintDistinguishesGraphs(t *testing.T) {
	a := mustGraph(t, 4, [][][2]int{{{0, 1}}, {{2, 3}}})
	a2 := mustGraph(t, 4, [][][2]int{{{1, 0}}, {{3, 2}}}) // same edges, other orientation
	if a.Fingerprint() != a2.Fingerprint() {
		t.Fatal("equal graphs disagree on fingerprint")
	}
	b := mustGraph(t, 5, [][][2]int{{{0, 1}, {1, 2}}, {{2, 3}}, {{3, 4}}})
	for _, c := range []struct {
		name string
		x, y *Graph
	}{
		{"other edge", a, mustGraph(t, 4, [][][2]int{{{0, 1}}, {{1, 3}}})},
		{"layers swapped", a, mustGraph(t, 4, [][][2]int{{{2, 3}}, {{0, 1}}})},
		{"edge moved to an empty layer", a, mustGraph(t, 4, [][][2]int{{{0, 1}, {2, 3}}, {}})},
		{"extra isolated vertex", a, mustGraph(t, 5, [][][2]int{{{0, 1}}, {{2, 3}}})},
		{"extra empty layer", a, mustGraph(t, 4, [][][2]int{{{0, 1}}, {{2, 3}}, {}})},
		// These two keep the multiset of edges intact.
		{"layers 1 and 2 swapped", b, mustGraph(t, 5, [][][2]int{{{0, 1}, {1, 2}}, {{3, 4}}, {{2, 3}}})},
		{"edge moved from layer 0 to layer 2", b, mustGraph(t, 5, [][][2]int{{{0, 1}}, {{2, 3}}, {{1, 2}, {3, 4}}})},
	} {
		if c.x.Fingerprint() == c.y.Fingerprint() {
			t.Errorf("%s: distinct graphs share fingerprint %016x", c.name, c.x.Fingerprint())
		}
	}
}

// TestFingerprintGolden pins fingerprint values. Engine snapshots embed
// the fingerprint and restore checks it, so a change to the hash or to
// the .mlgb encoding orphans every snapshot already saved. If this test
// fails, that change must also bump the snapshot format version. The
// values were cross-checked against an independent CRC-32/CRC-32C
// implementation over hand-built .mlgb bytes.
func TestFingerprintGolden(t *testing.T) {
	for _, c := range []struct {
		name string
		g    *Graph
		want uint64
	}{
		{"two layers", mustGraph(t, 4, [][][2]int{{{0, 1}, {1, 2}}, {{2, 3}, {0, 3}}}), 0x4fff0f9ed77ad926},
		{"empty layer", mustGraph(t, 3, [][][2]int{{{0, 1}, {1, 2}, {0, 2}}, {}}), 0xda1e1c58d01bd6b3},
		{"one vertex, no layers", mustGraph(t, 1, nil), 0xcea1f70a2445c76e},
		{"n = 0", mustGraph(t, 0, [][][2]int{{}, {}}), 0xe2aac12365476da3},
	} {
		if got := c.g.Fingerprint(); got != c.want {
			t.Errorf("%s: fingerprint %016x, want %016x", c.name, got, c.want)
		}
	}
}

// TestLayerSampleSharingIsAliasSafe pins the CSR sharing contract of
// LayerSample: the sample serves the exact same adjacency (ids
// retained), survives both serialization round trips, and never
// perturbs its parent.
func TestLayerSampleSharingIsAliasSafe(t *testing.T) {
	g := mustGraph(t, 6, [][][2]int{
		{{0, 1}, {1, 2}},
		{{3, 4}},
		{{4, 5}, {0, 5}},
	})
	fpBefore := g.Fingerprint()
	sub := g.LayerSample([]int{2, 0})

	if sub.L() != 2 || sub.N() != g.N() {
		t.Fatalf("sample dims: n=%d l=%d", sub.N(), sub.L())
	}
	for v := 0; v < g.N(); v++ {
		na, nb := sub.Neighbors(0, v), g.Neighbors(2, v)
		if len(na) != len(nb) {
			t.Fatalf("vertex %d adjacency differs from source layer", v)
		}
		for i := range na {
			if na[i] != nb[i] {
				t.Fatalf("vertex %d adjacency differs from source layer", v)
			}
		}
	}

	// Round-trip the sample through both formats; decoding must produce
	// fresh storage that still compares Equal.
	fromBin, err := DecodeBinary(encodeBinaryBytes(t, sub))
	if err != nil {
		t.Fatal(err)
	}
	var tbuf bytes.Buffer
	if err := sub.Encode(&tbuf); err != nil {
		t.Fatal(err)
	}
	fromText, err := Decode(&tbuf)
	if err != nil {
		t.Fatal(err)
	}
	if !sub.Equal(fromBin) || !sub.Equal(fromText) {
		t.Fatal("layer sample round trip changed the graph")
	}
	if g.Fingerprint() != fpBefore {
		t.Fatal("sampling or serialization perturbed the source graph")
	}
}

// TestReplaceLayers pins the copy-on-write constructor: replaced layers
// take the given arrays, the others share g's, g is untouched, and
// malformed replacements are errors rather than adopted graphs.
func TestReplaceLayers(t *testing.T) {
	g := mustGraph(t, 4, [][][2]int{{{0, 1}, {1, 2}}, {{2, 3}}})
	fpBefore := g.Fingerprint()
	want := mustGraph(t, 4, [][][2]int{{{0, 1}, {1, 2}}, {{0, 3}, {2, 3}}})
	off, nbr := want.LayerCSR(1)
	got, err := g.ReplaceLayers([]int{1}, [][]int64{off}, [][]int32{nbr})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) || g.Fingerprint() != fpBefore {
		t.Fatal("replacement produced the wrong graph or modified the source")
	}
	o0, _ := got.LayerCSR(0)
	g0, _ := g.LayerCSR(0)
	if &o0[0] != &g0[0] {
		t.Fatal("unreplaced layer not shared with the source")
	}

	bad := []struct {
		name   string
		layers []int
		off    [][]int64
		nbr    [][]int32
	}{
		{"layer out of range", []int{2}, [][]int64{off}, [][]int32{nbr}},
		{"length mismatch", []int{1}, [][]int64{off, off}, [][]int32{nbr}},
		{"short offsets", []int{1}, [][]int64{off[:3]}, [][]int32{nbr}},
		{"unsorted row", []int{1}, [][]int64{{0, 1, 1, 2, 4}}, [][]int32{{3, 3, 2, 1}}},
		{"self-loop", []int{1}, [][]int64{{0, 1, 1, 1, 2}}, [][]int32{{0, 0}}},
	}
	for _, c := range bad {
		if _, err := g.ReplaceLayers(c.layers, c.off, c.nbr); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// TestInducedVertexSampleSemantics pins the vertex-sample contract under
// the CSR representation: ids are retained (dropped vertices become
// isolated, keepers keep their numbers), and the result round-trips
// through both formats.
func TestInducedVertexSampleSemantics(t *testing.T) {
	g := mustGraph(t, 6, [][][2]int{
		{{0, 1}, {1, 2}, {2, 3}, {4, 5}},
		{{0, 5}, {1, 4}},
	})
	keep := bitset.New(6)
	for _, v := range []int{0, 1, 2, 5} {
		keep.Add(v)
	}
	sub := g.InducedVertexSample(keep)

	if sub.N() != g.N() || sub.L() != g.L() {
		t.Fatalf("sample dims changed: n=%d l=%d", sub.N(), sub.L())
	}
	if !sub.HasEdge(0, 0, 1) || !sub.HasEdge(0, 1, 2) || !sub.HasEdge(1, 0, 5) {
		t.Fatal("kept edges missing")
	}
	if sub.HasEdge(0, 2, 3) || sub.HasEdge(0, 4, 5) || sub.HasEdge(1, 1, 4) {
		t.Fatal("edges with dropped endpoints survived")
	}
	if sub.Degree(0, 3) != 0 || sub.Degree(0, 4) != 0 || sub.Degree(1, 4) != 0 {
		t.Fatal("dropped vertices not isolated")
	}

	fromBin, err := DecodeBinary(encodeBinaryBytes(t, sub))
	if err != nil {
		t.Fatal(err)
	}
	if !sub.Equal(fromBin) {
		t.Fatal("vertex sample binary round trip changed the graph")
	}
}
