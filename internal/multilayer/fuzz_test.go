package multilayer

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// FuzzDecode pins the error-not-panic contract of the text parser:
// arbitrary input either parses into a graph whose serialization
// round-trips, or fails with an error — it never panics or produces an
// inconsistent graph.
func FuzzDecode(f *testing.F) {
	f.Add("mlg 3 2\n0 0 1\n1 1 2\n")
	f.Add("# comment\n\nmlg 5 1\n0 0 4\n0 4 0\n0 1 1\n")
	f.Add("mlg 0 0\n")
	f.Add("")
	f.Add("mlg 3\n")
	f.Add("mlg -1 2\n")
	f.Add("mlg x 2\n")
	f.Add("graph 3 2\n0 0 1\n")
	f.Add("mlg 3 2\n0 1\n")
	f.Add("mlg 3 2\n0 a 1\n")
	f.Add("mlg 3 2\n5 0 1\n")             // layer out of range
	f.Add("mlg 3 2\n0 0 9\n")             // vertex out of range
	f.Add("mlg 3 2\n0 0 -1\n")            // negative vertex
	f.Add("mlg 3 2\n0 0 1")               // truncated final line
	f.Add("mlg 99999999999999999999 2\n") // overflows int
	f.Fuzz(func(t *testing.T, in string) {
		// A well-formed header may legitimately declare a graph whose CSR
		// representation is gigabytes (isolated vertices are free to
		// declare, offsets arrays are not). That is a property of the
		// format, not a parser bug; keep the fuzz exploring parse logic
		// instead of the allocator.
		if dimsTooLargeForFuzz(in) {
			t.Skip("declared dimensions exceed the fuzz memory budget")
		}
		g, err := Decode(strings.NewReader(in))
		if err != nil {
			return
		}
		// A successful parse must yield a self-consistent graph: encoding
		// and re-decoding reproduces it exactly.
		var buf bytes.Buffer
		if err := g.Encode(&buf); err != nil {
			t.Fatalf("encode after successful decode: %v", err)
		}
		g2, err := Decode(&buf)
		if err != nil {
			t.Fatalf("re-decode after successful decode: %v", err)
		}
		if !g.Equal(g2) {
			t.Fatal("decode/encode/decode not a fixpoint")
		}
	})
}

// FuzzDecodeBinary pins the same contract for the binary reader, which
// faces raw attacker-controlled bytes: arbitrary mutations of a valid
// image (and arbitrary garbage) must error cleanly, and any accepted
// image must describe a graph the encoder reproduces. It also checks the
// deferred path OpenMapped takes: the O(n) decode followed by Verify's
// neighbor checks must accept exactly what DecodeBinary accepts, with
// the same graph. The seed corpus in testdata/fuzz/FuzzDecodeBinary
// holds the f.Add seeds below plus an image cut inside its first offsets
// section and one whose first neighbor id is out of range.
func FuzzDecodeBinary(f *testing.F) {
	seed := func(g *Graph) []byte {
		var buf bytes.Buffer
		if err := g.EncodeBinary(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	small := mustGraphF(f, 4, [][][2]int{{{0, 1}, {1, 2}}, {{2, 3}}})
	valid := seed(small)
	f.Add(valid)
	f.Add(seed(NewBuilder(0, 0).Build()))
	f.Add(seed(NewBuilder(3, 2).Build()))
	f.Add([]byte{})
	f.Add([]byte("MLGB"))
	f.Add(valid[:len(valid)-3])
	f.Add(append(append([]byte(nil), valid...), 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := DecodeBinary(data)
		lazy, lazyErr := decodeBinary(data, false)
		if lazyErr == nil {
			lazyErr = (&Mapped{Graph: lazy}).Verify()
		}
		if (err == nil) != (lazyErr == nil) {
			t.Fatalf("DecodeBinary error %v, deferred decode and Verify error %v", err, lazyErr)
		}
		if err != nil {
			return
		}
		if !g.Equal(lazy) {
			t.Fatal("deferred decode and Verify accepted another graph than DecodeBinary")
		}
		var buf bytes.Buffer
		if err := g.EncodeBinary(&buf); err != nil {
			t.Fatalf("encode after successful decode: %v", err)
		}
		g2, err := DecodeBinary(buf.Bytes())
		if err != nil {
			t.Fatalf("re-decode after successful decode: %v", err)
		}
		if !g.Equal(g2) {
			t.Fatal("binary decode/encode/decode not a fixpoint")
		}
	})
}

// dimsTooLargeForFuzz scans the would-be header line for declared
// dimensions that would make the (valid!) graph allocation enormous.
func dimsTooLargeForFuzz(in string) bool {
	for _, line := range strings.Split(in, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 || fields[0] != "mlg" {
			return false // malformed header; Decode rejects it cheaply
		}
		n, err1 := strconv.Atoi(fields[1])
		l, err2 := strconv.Atoi(fields[2])
		if err1 != nil || err2 != nil {
			return false
		}
		// Dimensions beyond the format limits are rejected by Decode
		// before any allocation — let those through to exercise the
		// check; only the legitimate-but-huge middle band is skipped.
		return (n > 1<<16 && n <= maxVertices) || (l > 1<<8 && l <= maxLayers)
	}
	return false
}

func mustGraphF(f *testing.F, n int, layers [][][2]int) *Graph {
	g, err := FromEdgeLists(n, layers)
	if err != nil {
		f.Fatal(err)
	}
	return g
}
