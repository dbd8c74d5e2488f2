package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"repro/internal/bitset"
	"repro/internal/leio"
)

// Engine snapshots (.mlgs, format version 5) persist a Prepared's cached
// artifacts — the d-independent per-layer coreness, every completed
// per-d removal hierarchy and the d-CC memo each of those hierarchies
// has filled — so a restarted server's first query skips re-deriving
// minutes of preprocessing and the d-CCs earlier queries peeled. The
// snapshot does NOT contain the graph; it embeds the graph's Fingerprint
// and RestoreSnapshot refuses to load artifacts against a graph that
// hashes differently, which is what makes the pair (graph file,
// snapshot file) safe to manage independently.
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
//	numD int64, then per d (strictly ascending):
//	  d int64
//	  h: n int32        — removal threshold per vertex (hierarchy.h)
//	  coreh: l sections of n int32 — per-layer core-drop thresholds
//	  memo: count int64, then per entry (ascending key, compareMemoKeys):
//	    s int64, flags int64 (memoFlag bits), layer mask uint64
//	    bit length int64 — n′ of the key's compact space
//	    words: ⌈n′/64⌉ uint64 — the d-CC or potential set over compact ids
//	trailer: leio.Checksum (uint64) over everything before it
//
// Every section has its in-memory type, so restore adopts them from the
// read buffer in place and only validates them. Equal artifacts and memo
// state write equal bytes. Versions 1 to 4 are rejected: the trailer
// and fingerprint of 1 and 2 used an earlier hash, version 2 carried a
// union-adjacency field, version 3 a per-d flags word and layer-mask
// section this release no longer has, and version 4 no memo sections.
// Callers treat a rejected snapshot as absent and build cold.
//
// The graph fingerprint only ties the snapshot to its graph; the
// trailing checksum covers the snapshot body itself, so a corrupt or
// bit-rotted artifact is rejected up front instead of surfacing as a
// panic (or a silently wrong answer) mid-query. The checksum is not a
// MAC: a body rewritten with a recomputed trailer passes it, so restore
// also range-checks every persisted value that sizes an allocation or
// an index. Every coreness entry must lie in [0, maxCoreness], and
// maxCoreness must be the largest entry (a tracker raise allocates its
// leaver buckets per layer by it). Every memo entry must have exactly the
// n′ bits its key implies on the restored h (readMemo), because the
// queries that read it index it by compact id and combine it with the
// space's other n′-bit sets. h, coreh and the memo's bits are otherwise
// only compared, so wrong but in-range values mislead a query but cannot
// crash it.

// SnapshotMagic is the 4-byte magic prefix of engine snapshot files.
const SnapshotMagic = "MLGS"

// snapshotVersion is the current format version. Version 2 added the
// graph-version stamp; version 3 switched the fingerprint and trailer
// to leio.Checksum and dropped the union-adjacency field; version 4
// dropped the per-d flags word and the layer masks; version 5 added the
// per-d memo sections.
const snapshotVersion = 5

// WriteSnapshot serializes the artifacts this Prepared has finished
// building: the per-layer coreness (built now if the handle is still
// cold), every completed per-d removal hierarchy and the memo entries
// stored on it so far. In-flight hierarchy builds are skipped, not
// awaited, so a serving engine can be snapshotted without stalling
// traffic.
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
		a := pr.byD[d]
		pr.mu.Unlock()
		lw.I64(int64(d))
		lw.I32s(a.hier.h)
		lw.Pad8()
		for i := 0; i < l; i++ {
			lw.I32s(a.hier.coreh[i])
			lw.Pad8()
		}
		memo := a.memo.sorted()
		lw.I64(int64(len(memo)))
		for _, e := range memo {
			lw.I64(int64(e.key.s))
			lw.I64(e.key.flags())
			lw.I64(int64(e.key.mask))
			lw.I64(int64(e.set.Cap()))
			lw.U64s(e.set.Words())
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
// build counters, and each hierarchy's memo entries are stored through
// the memo's own put, charged against the handle's memo budget like
// entries a query stores (those beyond it are dropped). A restored
// engine's first query per snapshotted d builds neither artifact, and
// it takes the d-CCs and potential sets the saving handle had memoized
// from the memo; it still builds its compact search space, which
// snapshots do not carry. The snapshot must have been written for a
// graph equal to this handle's (checked via Fingerprint). Artifacts this
// handle already built are kept, with their own memo; both derivations
// are deterministic, so they are identical anyway. Corrupt input yields
// an error, never a panic: every section is validated before anything
// is installed, so a failed restore leaves the handle unchanged. The
// restored artifacts and memo entries alias data where alignment allows
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
		memo []memoEntry
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
		if e > 0 && int64(entries[e-1].d) >= d {
			return fmt.Errorf("core: snapshot degree threshold %d follows %d; thresholds must strictly ascend", d, entries[e-1].d)
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
		memo, err := readMemo(r, hr.h, n, l)
		if err != nil {
			return fmt.Errorf("core: snapshot memo of d = %d: %w", d, err)
		}
		entries = append(entries, entry{d: int(d), hier: hr, memo: memo})
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
			continue // already built (or building) locally; keep it and its memo
		}
		a := &dArtifact{}
		a.hier = e.hier
		a.done.Store(true)
		for _, m := range e.memo {
			a.memo.put(pr, m.key, m.set)
		}
		pr.byD[e.d] = a
	}
	return nil
}

// readMemo decodes the memo section of one persisted d and checks every
// entry against the restored removal thresholds h of that d: the key's
// s lies in [1, l], its mask has no bit at or above l, NoSortLayers is
// set on potential-set keys only, keys strictly ascend, and the bitset
// has exactly the n′ bits of the key's compact space — |{v : h(v) ≥ s}|,
// or n under NoVertexDeletion — with none set beyond them. The words
// alias r's buffer where alignment allows.
func readMemo(r *leio.Reader, h []int32, n, l int) ([]memoEntry, error) {
	count := r.I64()
	// An entry takes at least its key and bit-length words.
	if r.Count(count, 32) < 0 {
		return nil, r.Err()
	}
	if count == 0 {
		return nil, nil
	}
	if l > 64 {
		return nil, fmt.Errorf("%d entries on a %d-layer graph; memo keys hold at most 64 layers", count, l)
	}
	// spaceN[s] = |{v : h(v) ≥ s}| for s in 1..l.
	spaceN := make([]int, l+1)
	for _, x := range h {
		spaceN[min(max(x, 0), int32(l))]++
	}
	for s := l - 1; s >= 0; s-- {
		spaceN[s] += spaceN[s+1]
	}
	out := make([]memoEntry, 0, count)
	for i := range int(count) {
		s, flags, mask, bitLen := r.I64(), r.I64(), uint64(r.I64()), r.I64()
		if r.Err() != nil {
			return nil, r.Err()
		}
		switch {
		case s < 1 || s > int64(l):
			return nil, fmt.Errorf("entry %d: support threshold %d out of range [1,%d]", i, s, l)
		case flags&^memoFlagsAll != 0:
			return nil, fmt.Errorf("entry %d: unknown key flags %#x", i, flags)
		case flags&memoFlagNoSort != 0 && flags&memoFlagPotential == 0:
			return nil, fmt.Errorf("entry %d: NoSortLayers on a d-CC key", i)
		case l < 64 && mask>>uint(l) != 0:
			return nil, fmt.Errorf("entry %d: layer mask %#x names a layer at or above %d", i, mask, l)
		}
		k := memoKey{
			s:         int32(s),
			nvd:       flags&memoFlagNVD != 0,
			potential: flags&memoFlagPotential != 0,
			noSort:    flags&memoFlagNoSort != 0,
			mask:      mask,
		}
		if i > 0 && compareMemoKeys(out[i-1].key, k) >= 0 {
			return nil, fmt.Errorf("entry %d: key does not ascend", i)
		}
		want := spaceN[s]
		if k.nvd {
			want = n
		}
		if bitLen != int64(want) {
			return nil, fmt.Errorf("entry %d: %d bits, but its compact space has %d vertices", i, bitLen, want)
		}
		words := r.U64s((want + 63) / 64)
		if r.Err() != nil {
			return nil, r.Err()
		}
		set, err := bitset.LoadWords(words, want)
		if err != nil {
			return nil, fmt.Errorf("entry %d: %w", i, err)
		}
		out = append(out, memoEntry{k, set})
	}
	return out, nil
}
