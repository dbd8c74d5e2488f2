package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"slices"

	"repro/internal/leio"
)

// Engine snapshots (.mlgs, version 1) persist a Prepared's cached
// artifacts — the d-independent per-layer coreness and every completed
// per-d removal hierarchy — so a restarted server answers its first
// query warm instead of re-deriving minutes of preprocessing. The
// snapshot does NOT contain the graph; it embeds the graph's
// Fingerprint and RestoreSnapshot refuses to load artifacts against a
// graph that hashes differently, which is what makes the pair
// (graph file, snapshot file) safe to manage independently.
//
// Layout (all integers little-endian, sections 8-byte aligned via
// padding; see internal/leio):
//
//	magic "MLGS", version uint32
//	n int64, l int64, graph fingerprint uint64
//	maxCoreness int64
//	graph version int64 (format v2+; live-graph update counter, 0 for
//	  immutable engines — v1 snapshots restore as version 0)
//	coreness: l sections of n int32
//	union adjacency (d-independent, consumed by top-down refinement):
//	  total int64 (-1 when absent), then offsets (n+1)×int64 and the
//	  flat neighbor array total×int32 — CSR, exactly like a .mlgb layer
//	numD int64, then per d (ascending):
//	  d int64, flags uint32 (bit 0: layer masks present, i.e. l ≤ 64)
//	  h: n int32        — removal threshold per vertex (tdIndex.h)
//	  lmask: n uint64   — L(v) layer bitmask (only when flags bit 0)
//	  coreh: l sections of n int32 — per-layer core-drop thresholds
//	trailer: FNV-1a checksum (uint64) over everything before it
//
// The tdIndex level/levels fields are deliberately NOT persisted: no
// query path reads them (refineC's seed flood replaced the printed
// level walk in PR 2), so a restored index leaves them empty.
//
// The graph fingerprint only ties the snapshot to its graph; the
// trailing checksum covers the snapshot body itself, so a corrupt or
// bit-rotted artifact is rejected up front instead of surfacing as a
// panic (or a silently wrong answer) mid-query. The union-adjacency ids
// are additionally range-checked on restore — they index per-vertex
// arrays in the refinement hot path, the one place corrupt content
// could crash rather than merely mislead.
//
// The union adjacency is derivable from the graph, but rebuilding it
// would dominate restore time, so any snapshot carrying hierarchies
// (which force its materialization, l ≤ 64 only) embeds it in CSR form
// and restore becomes pure section loads.

// SnapshotMagic is the 4-byte magic prefix of engine snapshot files.
const SnapshotMagic = "MLGS"

// snapshotVersion is the current format version. Version 2 added the
// graph-version stamp so a warm-started mutable engine resumes its
// update counter; version-1 files are still readable (version 0).
const snapshotVersion = 2

// WriteSnapshot serializes the artifacts this Prepared has finished
// building: the per-layer coreness (built now if the handle is still
// cold) and every completed per-d removal hierarchy. In-flight hierarchy
// builds are skipped, not awaited, so a serving engine can be
// snapshotted without stalling traffic.
func (pr *Prepared) WriteSnapshot(w io.Writer) error {
	coreness := pr.layerCoreness() // also resolves maxCoreness
	g := pr.g
	n, l := g.N(), g.L()

	pr.mu.Lock()
	ds := make([]int, 0, len(pr.byD))
	for d, a := range pr.byD {
		if a.done.Load() {
			ds = append(ds, d)
		}
	}
	pr.mu.Unlock()
	slices.Sort(ds)

	// Everything below the hasher's tee is covered by the trailing
	// checksum; the checksum itself is written to w alone.
	hash := fnv.New64a()
	lw := leio.NewWriter(io.MultiWriter(w, hash))
	lw.Raw([]byte(SnapshotMagic))
	lw.U32(snapshotVersion)
	lw.I64(int64(n))
	lw.I64(int64(l))
	lw.I64(int64(g.Fingerprint()))
	lw.I64(int64(pr.maxCoreness))
	lw.I64(int64(pr.version.Load()))
	buf32 := make([]int32, n)
	for i := 0; i < l; i++ {
		for v, c := range coreness[i] {
			buf32[v] = int32(c)
		}
		lw.I32s(buf32)
		lw.Pad8()
	}
	if l <= 64 && len(ds) > 0 {
		// Any persisted hierarchy forced the union adjacency's
		// materialization already; unionAdjacency only returns the cache.
		unionAdj := pr.unionAdjacency()
		offsets := make([]int64, n+1)
		total := int64(0)
		for v, nbrs := range unionAdj {
			offsets[v] = total
			total += int64(len(nbrs))
		}
		offsets[n] = total
		lw.I64(total)
		lw.I64s(offsets)
		for _, nbrs := range unionAdj {
			lw.I32s(nbrs)
		}
		lw.Pad8()
	} else {
		lw.I64(-1)
	}
	lw.I64(int64(len(ds)))
	for _, d := range ds {
		pr.mu.Lock()
		hr := pr.byD[d].hier
		pr.mu.Unlock()
		idx := hr.idx
		lw.I64(int64(d))
		flags := uint32(0)
		if idx.lmask != nil {
			flags |= 1
		}
		lw.U32(flags)
		lw.Pad8()
		lw.I32s(idx.h)
		lw.Pad8()
		if idx.lmask != nil {
			lw.U64s(idx.lmask)
		}
		for i := 0; i < l; i++ {
			lw.I32s(hr.coreh[i])
			lw.Pad8()
		}
	}
	if err := lw.Flush(); err != nil {
		return err
	}
	tail := leio.NewWriter(w)
	tail.I64(int64(hash.Sum64()))
	return tail.Flush()
}

// RestoreSnapshot installs the artifacts of one in-memory snapshot image
// into this Prepared: per-layer coreness and every persisted per-d
// hierarchy become cached as if already built, without incrementing the
// build counters — a restored engine's first query per snapshotted d
// runs entirely warm. The snapshot must have been written for a graph
// equal to this handle's (checked via Fingerprint). Artifacts this
// handle already built are kept; both derivations are deterministic, so
// they are identical anyway. Corrupt input yields an error, never a
// panic, and a failed restore leaves the handle unchanged.
func (pr *Prepared) RestoreSnapshot(data []byte) error {
	g := pr.g
	n, l := g.N(), g.L()
	if len(data) < 8 {
		return fmt.Errorf("core: snapshot too short (%d bytes)", len(data))
	}
	body, trailer := data[:len(data)-8], data[len(data)-8:]
	hash := fnv.New64a()
	hash.Write(body)
	if got := binary.LittleEndian.Uint64(trailer); got != hash.Sum64() {
		return fmt.Errorf("core: snapshot checksum mismatch (file %#x, content %#x) — corrupt or truncated artifact", got, hash.Sum64())
	}
	r := leio.NewReader(body)
	if magic := r.Bytes(4); r.Err() != nil || string(magic) != SnapshotMagic {
		return fmt.Errorf("core: not an engine snapshot (missing %q magic)", SnapshotMagic)
	}
	fv := r.U32()
	if r.Err() != nil || fv < 1 || fv > snapshotVersion {
		return fmt.Errorf("core: unsupported snapshot version %d (want 1..%d)", fv, snapshotVersion)
	}
	sn, sl, fp := r.I64(), r.I64(), uint64(r.I64())
	if err := r.Err(); err != nil {
		return err
	}
	if sn != int64(n) || sl != int64(l) || fp != g.Fingerprint() {
		return fmt.Errorf("core: snapshot was built for a different graph (n=%d l=%d fingerprint %#x; have n=%d l=%d fingerprint %#x)",
			sn, sl, fp, n, l, g.Fingerprint())
	}
	maxCoreness := r.I64()
	if maxCoreness < 0 || maxCoreness > int64(n) {
		return fmt.Errorf("core: snapshot max coreness %d out of range [0,%d]", maxCoreness, n)
	}
	graphVersion := int64(0)
	if fv >= 2 {
		graphVersion = r.I64()
		if r.Err() != nil {
			return r.Err()
		}
		if graphVersion < 0 {
			return fmt.Errorf("core: snapshot graph version %d is negative", graphVersion)
		}
	}
	coreness := make([][]int, l)
	for i := 0; i < l; i++ {
		sec := r.I32s(n)
		r.Align8()
		if r.Err() != nil {
			return r.Err()
		}
		coreness[i] = make([]int, n)
		for v, c := range sec {
			coreness[i][v] = int(c)
		}
	}

	var unionAdj [][]int32
	if total := r.I64(); total >= 0 {
		offsets := r.I64s(r.Count(int64(n)+1, 8))
		flat := r.I32s(r.Count(total, 4))
		r.Align8()
		if r.Err() != nil {
			return r.Err()
		}
		// Union-adjacency ids index per-vertex arrays inside the top-down
		// refinement; range-check them here so no snapshot content can
		// turn into an out-of-range access later.
		for _, u := range flat {
			if u < 0 || u >= int32(n) {
				return fmt.Errorf("core: snapshot union adjacency id %d out of range [0,%d)", u, n)
			}
		}
		unionAdj = make([][]int32, n)
		for v := 0; v < n; v++ {
			lo, hi := offsets[v], offsets[v+1]
			if lo < 0 || hi < lo || hi > total {
				return fmt.Errorf("core: snapshot union adjacency offsets invalid at vertex %d", v)
			}
			unionAdj[v] = flat[lo:hi]
		}
	} else if r.Err() != nil {
		return r.Err()
	}

	type entry struct {
		d    int
		hier *hierarchy
	}
	numD := r.I64()
	if r.Count(numD, 8) < 0 {
		return r.Err()
	}
	entries := make([]entry, 0, numD)
	for e := int64(0); e < numD; e++ {
		d := r.I64()
		flags := r.U32()
		r.Align8()
		if r.Err() != nil {
			return r.Err()
		}
		if d < 1 || d > maxCoreness+1 {
			return fmt.Errorf("core: snapshot degree threshold %d out of range [1,%d]", d, maxCoreness+1)
		}
		if flags&1 != 0 && l > 64 {
			return fmt.Errorf("core: snapshot carries layer masks for an l=%d graph", l)
		}
		idx := &tdIndex{}
		idx.h = r.I32s(n)
		r.Align8()
		if flags&1 != 0 {
			idx.lmask = r.U64s(n)
		}
		hr := &hierarchy{idx: idx, coreh: make([][]int32, l)}
		for i := 0; i < l; i++ {
			hr.coreh[i] = r.I32s(n)
			r.Align8()
		}
		if r.Err() != nil {
			return r.Err()
		}
		entries = append(entries, entry{d: int(d), hier: hr})
	}
	if r.Err() != nil {
		return r.Err()
	}
	if rem := r.Remaining(); rem != 0 {
		return fmt.Errorf("core: %d trailing bytes after snapshot", rem)
	}

	// All sections decoded and validated — install. The coreness tier
	// installs through its once (a no-op if this handle already computed
	// it); hierarchies only fill empty slots.
	pr.corenessOnce.Do(func() {
		pr.coreness = coreness
		pr.maxCoreness = int(maxCoreness)
	})
	if uint64(graphVersion) > pr.version.Load() {
		pr.version.Store(uint64(graphVersion))
	}
	if unionAdj != nil {
		unionAdj = pr.adoptUnionAdjacency(unionAdj)
	} else if l <= 64 && len(entries) > 0 {
		// Old artifacts without the embedded section: rebuild from the
		// graph (one parallel sweep, deterministic).
		unionAdj = pr.unionAdjacency()
	}
	pr.mu.Lock()
	defer pr.mu.Unlock()
	for _, e := range entries {
		if pr.byD[e.d] != nil {
			continue // already built (or building) locally; keep it
		}
		if e.hier.idx.lmask != nil {
			e.hier.idx.unionAdj = unionAdj
		}
		a := &dArtifact{}
		a.hier = e.hier
		a.done.Store(true)
		pr.byD[e.d] = a
	}
	return nil
}
