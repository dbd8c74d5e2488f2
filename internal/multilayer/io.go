package multilayer

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/leio"
)

// The text format is a minimal layered edge list:
//
//	# comments and blank lines are ignored
//	mlg <n> <layers>
//	<layer> <u> <v>
//	...
//
// Vertices are 0-based integers in [0, n); layers in [0, layers). Each
// undirected edge appears once in either orientation; duplicates are
// merged on load.

// Encode serializes g in the text edge-list format.
func (g *Graph) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "mlg %d %d\n", g.n, g.L()); err != nil {
		return err
	}
	for layer := 0; layer < g.L(); layer++ {
		for v := 0; v < g.n; v++ {
			for _, u := range g.Neighbors(layer, v) {
				if int(u) > v {
					if _, err := fmt.Fprintf(bw, "%d %d %d\n", layer, v, u); err != nil {
						return err
					}
				}
			}
		}
	}
	return bw.Flush()
}

// Read parses a graph from the text edge-list format.
//
// Deprecated: Read is the historical name of Decode and delegates to it.
func Read(r io.Reader) (*Graph, error) { return Decode(r) }

// Decode parses a graph from the text edge-list format, validating the
// header and every record. Errors identify the offending line; malformed
// input of any shape yields an error, never a panic (see FuzzDecode).
func Decode(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	lineNo := 0
	var b *Builder
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if b == nil {
			if len(fields) != 3 || fields[0] != "mlg" {
				return nil, fmt.Errorf("multilayer: line %d: expected header %q, got %q", lineNo, "mlg <n> <layers>", line)
			}
			n, err1 := strconv.Atoi(fields[1])
			l, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil || n < 0 || l < 0 {
				return nil, fmt.Errorf("multilayer: line %d: invalid header %q", lineNo, line)
			}
			// Vertex ids must fit int32 (the adjacency element type), and
			// an absurd layer count is a corrupt header, not a graph.
			if n > maxVertices || l > maxLayers {
				return nil, fmt.Errorf("multilayer: line %d: header dimensions n=%d l=%d exceed limits (%d, %d)", lineNo, n, l, maxVertices, maxLayers)
			}
			b, err1 = newBuilderChecked(n, l)
			if err1 != nil {
				return nil, fmt.Errorf("multilayer: line %d: %w", lineNo, err1)
			}
			continue
		}
		if len(fields) != 3 {
			return nil, fmt.Errorf("multilayer: line %d: expected %q, got %q", lineNo, "<layer> <u> <v>", line)
		}
		layer, err1 := strconv.Atoi(fields[0])
		u, err2 := strconv.Atoi(fields[1])
		v, err3 := strconv.Atoi(fields[2])
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("multilayer: line %d: non-integer field in %q", lineNo, line)
		}
		if err := b.AddEdge(layer, u, v); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("multilayer: read: %w", err)
	}
	if b == nil {
		return nil, fmt.Errorf("multilayer: empty input (missing %q header)", "mlg")
	}
	return b.Build(), nil
}

// ReadFile loads a graph from a file in the text edge-list format.
func ReadFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := Decode(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

// WriteFile saves g to a file in the text edge-list format, replacing
// path through a temporary file and a rename (leio.WriteFileAtomic).
func (g *Graph) WriteFile(path string) error {
	return leio.WriteFileAtomic(path, 0o644, g.Encode)
}
