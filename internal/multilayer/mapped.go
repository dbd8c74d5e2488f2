package multilayer

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/leio"
)

// ErrNotBinaryGraph reports that a file handed to OpenMapped does not
// start with the .mlgb magic. Callers offering a "map if possible"
// option (dccs-serve -mmap) test for it with errors.Is to fall back to
// the text loader instead of failing startup.
var ErrNotBinaryGraph = errors.New("not a binary graph")

// Mapped is a Graph whose CSR arrays alias a read-only file mapping of
// a .mlgb image instead of heap allocations. The writer keeps every
// section 8-byte aligned, so on little-endian hosts no bytes are copied
// or even touched at open time: pages fault in on first use, a multi-GB
// graph opens in milliseconds, and replicas serving the same file share
// one physical copy through the page cache.
//
// Trust model: OpenMapped eagerly validates the header and the per-layer
// offsets arrays (O(n) — enough to keep every neighbor-range slice in
// bounds), and defers the O(m) per-neighbor scan that would otherwise
// fault in and read the whole file. The neighbor ids themselves are
// unchecked until then, and the algorithms index per-vertex arrays by
// them: one id out of [0, n) in an unverified file panics the first
// search that reads it. Mapped files are expected to come from this
// repo's own writer; for any other file, call Verify after opening — it
// is the only guard — or use ReadBinaryFile (full validation,
// fuzz-tested).
//
// Lifetime: Close unmaps the pages, after which the Graph — and any
// slice borrowed from it — must not be used. Query results never alias
// the mapping (the engine returns freshly allocated vertex sets), so
// results obtained before Close stay valid after it.
type Mapped struct {
	*Graph
	m *leio.Mapping
}

// OpenMapped opens the .mlgb file at path as a memory-mapped Graph. See
// the Mapped doc for the validation trust model and lifetime rules. On
// platforms without mmap the mapping degrades to a private read of the
// file (ZeroCopy reports false) with the same surface and rules.
func OpenMapped(path string) (*Mapped, error) {
	m, err := leio.OpenMapping(path)
	if err != nil {
		return nil, err
	}
	if !bytes.HasPrefix(m.Data(), []byte(BinaryMagic)) {
		m.Close()
		return nil, fmt.Errorf("%s: %w (missing %q magic); only .mlgb files can be mapped", path, ErrNotBinaryGraph, BinaryMagic)
	}
	g, err := decodeBinary(m.Data(), false)
	if err != nil {
		m.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &Mapped{Graph: g, m: m}, nil
}

// ZeroCopy reports whether the graph is backed by an actual memory
// mapping (unix builds) rather than a private heap copy (the portable
// fallback). Reported per graph in /healthz so operators can confirm
// which load path a replica took.
func (mg *Mapped) ZeroCopy() bool { return mg.m.Mapped() }

// Verify runs the deferred O(m) half of the CSR validation — per-vertex
// neighbor ranges strictly increasing, ids in range, no self-loops —
// faulting in the whole file. After a nil return the graph is validated
// exactly as strongly as a ReadBinaryFile load. Intended for operators
// mapping files of uncertain provenance and for tests.
func (mg *Mapped) Verify() error {
	for i := range mg.layers {
		if err := validateNeighbors(mg.n, mg.layers[i].offsets, mg.layers[i].neighbors); err != nil {
			return fmt.Errorf("multilayer: mapped graph layer %d: %w", i, err)
		}
	}
	return nil
}

// Close releases the file mapping. Idempotent. The embedded Graph (and
// anything still aliasing its CSR arrays, such as an Engine built on
// it) must be discarded before Close — afterwards the pages are gone
// and touching them faults. Results returned by earlier queries are
// unaffected; they never alias the mapping.
func (mg *Mapped) Close() error { return mg.m.Close() }
