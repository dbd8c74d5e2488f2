package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"repro/internal/leio"
)

// Engine snapshots (.mlgs, format version 4) persist a Prepared's cached
// artifacts — the d-independent per-layer coreness and every completed
// per-d removal hierarchy — so a restarted server's first query skips
// re-deriving minutes of preprocessing. The snapshot does NOT contain
// the graph; it embeds the graph's Fingerprint and RestoreSnapshot
// refuses to load artifacts against a graph that hashes differently,
// which is what makes the pair (graph file, snapshot file) safe to
// manage independently.
//
// Layout (all integers little-endian, sections 8-byte aligned via
// padding; see internal/leio):
//
//	magic "MLGS", version uint32
//	n int64, l int64, graph fingerprint uint64
//	maxCoreness int64
//	graph version int64 (live-graph update counter, 0 for immutable
//	  engines)
//	coreness: l sections of n int32
//	numD int64, then per d (ascending):
//	  d int64
//	  h: n int32        — removal threshold per vertex (hierarchy.h)
//	  coreh: l sections of n int32 — per-layer core-drop thresholds
//	trailer: leio.Checksum (uint64) over everything before it
//
// Every section has its in-memory type, so restore adopts them from the
// read buffer in place and only validates them. Versions 1 to 3 are
// rejected: the trailer and fingerprint of 1 and 2 used an earlier
// hash, version 2 carried a union-adjacency field, and version 3 a
// per-d flags word and layer-mask section this release no longer has.
// Callers treat a rejected snapshot as absent and build cold.
//
// The graph fingerprint only ties the snapshot to its graph; the
// trailing checksum covers the snapshot body itself, so a corrupt or
// bit-rotted artifact is rejected up front instead of surfacing as a
// panic (or a silently wrong answer) mid-query. The checksum is not a
// MAC: a body rewritten with a recomputed trailer passes it, so restore
// also range-checks the one persisted value that sizes an allocation —
// every coreness entry must lie in [0, maxCoreness], and maxCoreness
// must be the largest entry (the shared sweep allocates a level table
// per layer by it). h and coreh are only ever compared, never used as
// indices or sizes, so wrong values mislead but cannot crash.

// SnapshotMagic is the 4-byte magic prefix of engine snapshot files.
const SnapshotMagic = "MLGS"

// snapshotVersion is the current format version. Version 2 added the
// graph-version stamp; version 3 switched the fingerprint and trailer
// to leio.Checksum and dropped the union-adjacency field; version 4
// dropped the per-d flags word and the layer masks.
const snapshotVersion = 4

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

	// Everything below the checksum's tee is covered by the trailer; the
	// trailer itself is written to w alone.
	var sum leio.Checksum
	lw := leio.NewWriter(io.MultiWriter(w, &sum))
	lw.Raw([]byte(SnapshotMagic))
	lw.U32(snapshotVersion)
	lw.I64(int64(n))
	lw.I64(int64(l))
	lw.I64(int64(g.Fingerprint()))
	lw.I64(int64(pr.maxCoreness))
	lw.I64(int64(pr.version.Load()))
	for _, cn := range coreness {
		lw.I32s(cn)
		lw.Pad8()
	}
	lw.I64(int64(len(ds)))
	for _, d := range ds {
		pr.mu.Lock()
		hr := pr.byD[d].hier
		pr.mu.Unlock()
		lw.I64(int64(d))
		lw.I32s(hr.h)
		lw.Pad8()
		for i := 0; i < l; i++ {
			lw.I32s(hr.coreh[i])
			lw.Pad8()
		}
	}
	if err := lw.Flush(); err != nil {
		return err
	}
	tail := leio.NewWriter(w)
	tail.I64(int64(sum.Sum64()))
	return tail.Flush()
}

// RestoreSnapshot installs the artifacts of one in-memory snapshot image
// into this Prepared: per-layer coreness and every persisted per-d
// hierarchy become cached as if already built, without incrementing the
// build counters — a restored engine's first query per snapshotted d
// builds neither; it still builds its compact search space and fills
// the memo, which snapshots do not carry. The snapshot must have been
// written for a graph equal to this handle's (checked via Fingerprint).
// Artifacts this handle already built are kept; both derivations are
// deterministic, so they are identical anyway. Corrupt input yields an
// error, never a panic, and a failed restore leaves the handle
// unchanged. The restored artifacts alias data where alignment allows
// (they always do for writer-produced files on little-endian hosts), so
// the caller must not modify data afterwards.
func (pr *Prepared) RestoreSnapshot(data []byte) error {
	g := pr.g
	n, l := g.N(), g.L()
	if len(data) < 8 {
		return fmt.Errorf("core: snapshot too short (%d bytes)", len(data))
	}
	body, trailer := data[:len(data)-8], data[len(data)-8:]
	// The version speaks before the checksum: earlier formats used
	// another trailer hash, and their error should say so.
	r := leio.NewReader(body)
	if magic := r.Bytes(4); r.Err() != nil || string(magic) != SnapshotMagic {
		return fmt.Errorf("core: not an engine snapshot (missing %q magic)", SnapshotMagic)
	}
	if fv := r.U32(); r.Err() != nil || fv != snapshotVersion {
		if r.Err() == nil && fv >= 1 && fv < snapshotVersion {
			return fmt.Errorf("core: snapshot format version %d is from an earlier release (want %d); its artifacts will be rebuilt", fv, snapshotVersion)
		}
		return fmt.Errorf("core: unsupported snapshot version %d (want %d)", fv, snapshotVersion)
	}
	var sum leio.Checksum
	sum.Write(body)
	if got := binary.LittleEndian.Uint64(trailer); got != sum.Sum64() {
		return fmt.Errorf("core: snapshot checksum mismatch (file %#x, content %#x) — corrupt or truncated artifact", got, sum.Sum64())
	}
	sn, sl, fp := r.I64(), r.I64(), uint64(r.I64())
	if err := r.Err(); err != nil {
		return err
	}
	if sn != int64(n) || sl != int64(l) || fp != g.Fingerprint() {
		return fmt.Errorf("core: snapshot was built for a different graph (n=%d l=%d fingerprint %#x; have n=%d l=%d fingerprint %#x)",
			sn, sl, fp, n, l, g.Fingerprint())
	}
	maxCoreness, graphVersion := r.I64(), r.I64()
	if err := r.Err(); err != nil {
		return err
	}
	if maxCoreness < 0 || maxCoreness > int64(n) {
		return fmt.Errorf("core: snapshot max coreness %d out of range [0,%d]", maxCoreness, n)
	}
	if graphVersion < 0 {
		return fmt.Errorf("core: snapshot graph version %d is negative", graphVersion)
	}
	coreness := make([][]int32, l)
	largest := int32(0)
	for i := range coreness {
		coreness[i] = r.I32s(n)
		r.Align8()
		if r.Err() != nil {
			return r.Err()
		}
		for v, c := range coreness[i] {
			if c < 0 || int64(c) > maxCoreness {
				return fmt.Errorf("core: snapshot coreness %d of vertex %d on layer %d out of range [0,%d]", c, v, i, maxCoreness)
			}
			largest = max(largest, c)
		}
	}
	if int64(largest) != maxCoreness {
		return fmt.Errorf("core: snapshot max coreness %d, but the largest coreness entry is %d", maxCoreness, largest)
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
		if r.Err() != nil {
			return r.Err()
		}
		if d < 1 || d > maxCoreness+1 {
			return fmt.Errorf("core: snapshot degree threshold %d out of range [1,%d]", d, maxCoreness+1)
		}
		hr := &hierarchy{h: r.I32s(n), coreh: make([][]int32, l)}
		r.Align8()
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
	pr.mu.Lock()
	defer pr.mu.Unlock()
	for _, e := range entries {
		if pr.byD[e.d] != nil {
			continue // already built (or building) locally; keep it
		}
		a := &dArtifact{}
		a.hier = e.hier
		a.done.Store(true)
		pr.byD[e.d] = a
	}
	return nil
}
