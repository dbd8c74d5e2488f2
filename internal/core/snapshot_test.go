package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bitset"
	"repro/internal/kcore"
	"repro/internal/leio"
	"repro/internal/multilayer"
	"repro/internal/testutil"
)

var updateCorpus = flag.Bool("update-corpus", false, "rewrite the current-format FuzzRestoreSnapshot seeds in testdata/fuzz from the current snapshot writer")

func snapshotTestGraphs(t *testing.T) (gA, gB *multilayer.Graph) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	return testutil.RandomCorrelatedGraph(rng, 60, 6, 0.25, 0.85, 0.05),
		testutil.RandomCorrelatedGraph(rng, 60, 6, 0.25, 0.85, 0.05)
}

// TestSnapshotRoundTrip is the snapshot half of the ISSUE's equivalence
// criterion at the core layer: a restored handle answers the exact same
// results and Stats (modulo wall clock) as the handle that built the
// artifacts, without building anything itself.
func TestSnapshotRoundTrip(t *testing.T) {
	g, _ := snapshotTestGraphs(t)
	builder := NewPrepared(g, 1)
	queries := []Options{
		{D: 2, S: 2, K: 4, Seed: 7},
		{D: 3, S: 4, K: 4, Seed: 7},
		{D: 3, S: 2, K: 3, Seed: 11},
	}
	type run struct {
		res *Result
	}
	var want []run
	for _, o := range queries {
		for _, algo := range []func(context.Context, Options) (*Result, error){builder.BottomUp, builder.TopDown, builder.Greedy} {
			res, err := algo(context.Background(), o)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, run{res: res})
		}
	}

	var buf bytes.Buffer
	if err := builder.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	restored := NewPrepared(g, 1)
	if err := restored.RestoreSnapshot(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if c := restored.Counters(); c.CorenessBuilds != 0 || c.HierarchyBuilds != 0 {
		t.Fatalf("restore counted as builds: %+v", c)
	}
	i := 0
	for _, o := range queries {
		for _, algo := range []func(context.Context, Options) (*Result, error){restored.BottomUp, restored.TopDown, restored.Greedy} {
			res, err := algo(context.Background(), o)
			if err != nil {
				t.Fatal(err)
			}
			ws, rs := want[i].res.Stats, res.Stats
			ws.Elapsed, rs.Elapsed = 0, 0
			if !reflect.DeepEqual(ws, rs) {
				t.Fatalf("query %d stats differ:\nbuilt    %+v\nrestored %+v", i, ws, rs)
			}
			if res.CoverSize != want[i].res.CoverSize || !reflect.DeepEqual(res.Cores, want[i].res.Cores) {
				t.Fatalf("query %d results differ", i)
			}
			i++
		}
	}
	// Every query above hit a snapshotted artifact: the restored handle
	// must have served all of them without one build.
	if c := restored.Counters(); c.CorenessBuilds != 0 || c.HierarchyBuilds != 0 {
		t.Fatalf("restored handle rebuilt artifacts: %+v", c)
	}
}

// memoStream answers, on pr, BU, TD, GD and Exact at two (d, s) pairs,
// each with and without NoVertexDeletion, and TD also with NoSortLayers:
// every kind of memo key there is.
func memoStream(t *testing.T, pr *Prepared) []*Result {
	t.Helper()
	var out []*Result
	for _, ds := range [][2]int{{2, 2}, {3, 4}} {
		for _, nvd := range []bool{false, true} {
			o := Options{D: ds[0], S: ds[1], K: 3, Seed: 5, NoVertexDeletion: nvd}
			noSort := o
			noSort.NoSortLayers = true
			for _, q := range []struct {
				run func(context.Context, Options) (*Result, error)
				o   Options
			}{
				{pr.BottomUp, o}, {pr.TopDown, o}, {pr.Greedy, o}, {pr.Exact, o}, {pr.TopDown, noSort},
			} {
				res, err := q.run(context.Background(), q.o)
				if err != nil {
					t.Fatal(err)
				}
				res.Stats.Elapsed = 0
				out = append(out, res)
			}
		}
	}
	return out
}

// memoState returns every memo entry of pr by d, in key order.
func memoState(pr *Prepared) map[int][]memoEntry {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	out := map[int][]memoEntry{}
	for d, a := range pr.byD {
		if memo := a.memo.sorted(); len(memo) > 0 {
			out[d] = memo
		}
	}
	return out
}

// sameMemo reports whether two memo states hold the same keys with
// bit-identical sets.
func sameMemo(a, b map[int][]memoEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for d, ea := range a {
		eb := b[d]
		if len(ea) != len(eb) {
			return false
		}
		for i := range ea {
			if ea[i].key != eb[i].key || !ea[i].set.Equal(eb[i].set) {
				return false
			}
		}
	}
	return true
}

func snapshotBytes(t *testing.T, pr *Prepared) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := pr.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotCarriesMemo pins the memo sections of format 5: after a
// handle answers every kind of memo key, a restore from its snapshot
// holds the same memo key by key and bit by bit, answers the same stream
// with the same cores, cover and Stats without one memo miss, and writes
// a snapshot byte-identical to the builder's.
func TestSnapshotCarriesMemo(t *testing.T) {
	g, _ := snapshotTestGraphs(t)
	builder := NewPrepared(g, 1)
	want := memoStream(t, builder)
	img := snapshotBytes(t, builder)
	built := memoState(builder)
	kinds := map[[3]bool]bool{}
	for _, memo := range built {
		for _, e := range memo {
			kinds[[3]bool{e.key.nvd, e.key.potential, e.key.noSort}] = true
		}
	}
	if len(kinds) != 6 {
		t.Fatalf("the stream stored %d of the 6 key kinds: %v", len(kinds), kinds)
	}

	restored := NewPrepared(g, 1)
	if err := restored.RestoreSnapshot(img); err != nil {
		t.Fatal(err)
	}
	if !sameMemo(memoState(restored), built) {
		t.Fatal("the restored memo differs from the builder's")
	}
	got := memoStream(t, restored)
	for i := range want {
		if got[i].CoverSize != want[i].CoverSize || !reflect.DeepEqual(got[i].Cores, want[i].Cores) || got[i].Stats != want[i].Stats {
			t.Fatalf("query %d: restored handle answers\n%+v\nwant\n%+v", i, got[i], want[i])
		}
	}
	if c := restored.Counters(); c.MemoMisses != 0 || c.MemoHits == 0 || c.CorenessBuilds != 0 || c.HierarchyBuilds != 0 {
		t.Fatalf("restored handle was not warm: %+v", c)
	}
	if !bytes.Equal(snapshotBytes(t, restored), img) {
		t.Fatal("the restored handle's snapshot differs from the builder's")
	}
}

// TestSnapshotMemoBudget pins the budget charge of restored memo
// entries, which go through the memo's own put: a restore charges what
// the builder was charged, and an image whose valid entries exceed the
// budget restores with the excess dropped. The oversized image carries
// the true d-CCs of every layer set under NoVertexDeletion at every s,
// which a vertex-deletion stream never reads, so its answers equal a
// cold handle's.
func TestSnapshotMemoBudget(t *testing.T) {
	g, _ := snapshotTestGraphs(t)
	builder := NewPrepared(g, 1)
	memoStream(t, builder)
	restored := NewPrepared(g, 1)
	if err := restored.RestoreSnapshot(snapshotBytes(t, builder)); err != nil {
		t.Fatal(err)
	}
	if got, want := restored.Counters().MemoBytes, builder.Counters().MemoBytes; got != want || got == 0 {
		t.Fatalf("restored MemoBytes %d, the builder's %d", got, want)
	}

	big := testutil.RandomCorrelatedGraph(rand.New(rand.NewSource(7)), 5000, 6, 0.002, 0.85, 0.0005)
	const d = 2
	crafted := NewPrepared(big, 1)
	if err := crafted.PrepareDs(context.Background(), d); err != nil {
		t.Fatal(err)
	}
	// The entries are stored around put, whose budget would refuse most.
	slot := crafted.artifact(d)
	slot.memo.entries = map[memoKey]*bitset.Set{}
	l := big.L()
	var charged int64
	for s := 1; s <= l; s++ {
		for mask := uint64(1); mask < 1<<l; mask++ {
			var layers []int
			for i := 0; i < l; i++ {
				if mask&(1<<i) != 0 {
					layers = append(layers, i)
				}
			}
			c := kcore.DCC(big, crafted.CoreIntersection(layers, d), layers, d)
			slot.memo.entries[memoKey{s: int32(s), nvd: true, mask: mask}] = c
			charged += int64(8*len(c.Words()) + memoEntryOverhead)
		}
	}
	budget := memoBudget(big)
	if charged <= budget {
		t.Fatalf("crafted entries take %d bytes, within the %d-byte budget", charged, budget)
	}
	pr := NewPrepared(big, 1)
	if err := pr.RestoreSnapshot(snapshotBytes(t, crafted)); err != nil {
		t.Fatal(err)
	}
	if c := pr.Counters(); c.MemoBytes > budget || c.MemoBytes == 0 {
		t.Fatalf("restored MemoBytes %d, budget %d", c.MemoBytes, budget)
	}
	cold := NewPrepared(big, 1)
	for _, o := range []Options{{D: d, S: 2, K: 3, Seed: 1}, {D: d, S: 4, K: 3, Seed: 2}} {
		for _, algo := range []struct {
			got, want func(context.Context, Options) (*Result, error)
		}{
			{pr.BottomUp, cold.BottomUp}, {pr.TopDown, cold.TopDown}, {pr.Greedy, cold.Greedy},
		} {
			got, err := algo.got(context.Background(), o)
			if err != nil {
				t.Fatal(err)
			}
			want, err := algo.want(context.Background(), o)
			if err != nil {
				t.Fatal(err)
			}
			got.Stats.Elapsed, want.Stats.Elapsed = 0, 0
			if len(want.Cores) == 0 {
				t.Fatalf("%+v: no core; the fixture shows nothing", o)
			}
			if got.CoverSize != want.CoverSize || !reflect.DeepEqual(got.Cores, want.Cores) || got.Stats != want.Stats {
				t.Fatalf("%+v: the over-budget restore answers\n%+v\nwant\n%+v", o, got, want)
			}
		}
	}
}

// TestSnapshotColdHandle snapshots a handle that has served nothing: the
// snapshot carries the coreness tier only and still restores cleanly.
func TestSnapshotColdHandle(t *testing.T) {
	g, _ := snapshotTestGraphs(t)
	var buf bytes.Buffer
	if err := NewPrepared(g, 1).WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored := NewPrepared(g, 1)
	if err := restored.RestoreSnapshot(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if c := restored.Counters(); c.CorenessBuilds != 0 {
		t.Fatalf("coreness restore counted as build: %+v", c)
	}
	if _, err := restored.BottomUp(context.Background(), Options{D: 2, S: 2, K: 2, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	// The hierarchy for d=2 was not in the snapshot; serving it builds
	// exactly it, nothing more.
	if c := restored.Counters(); c.CorenessBuilds != 0 || c.HierarchyBuilds != 1 {
		t.Fatalf("unexpected builds after cold-snapshot query: %+v", c)
	}
}

// TestSnapshotWideGraph round-trips a graph beyond the 64-layer limit of
// top-down and of the memo's bitmask keys, whose hierarchies are served
// to bottom-up alone, and rejects a memo entry in its image.
func TestSnapshotWideGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := testutil.RandomCorrelatedGraph(rng, 25, 66, 0.3, 0.7, 0.02)
	builder := NewPrepared(g, 1)
	o := Options{D: 2, S: 2, K: 3, Seed: 3}
	want, err := builder.BottomUp(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := builder.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored := NewPrepared(g, 1)
	if err := restored.RestoreSnapshot(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	got, err := restored.BottomUp(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if got.CoverSize != want.CoverSize || !reflect.DeepEqual(got.Cores, want.Cores) {
		t.Fatal("wide-graph snapshot changed the answer")
	}
	if c := restored.Counters(); c.CorenessBuilds != 0 || c.HierarchyBuilds != 0 {
		t.Fatalf("restored handle rebuilt artifacts: %+v", c)
	}
	// Such a graph has no memo, so a memo entry in its image is rejected.
	img := buf.Bytes()
	dOffs, entries := snapLayout(img, g.N(), g.L())
	if len(dOffs) != 1 || len(entries) != 0 {
		t.Fatalf("wide image: d fields %v, memo entries %+v", dOffs, entries)
	}
	countOff := dOffs[0] + 8 + (g.L()+1)*((4*g.N()+7)&^7)
	withEntry := reseal(img, func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[countOff:], 1)
		entry := make([]byte, 32+8) // s, flags, mask, bit length and one word
		binary.LittleEndian.PutUint64(entry, 1)
		binary.LittleEndian.PutUint64(entry[16:], 1)
		binary.LittleEndian.PutUint64(entry[24:], uint64(g.N()))
		return slices.Insert(b, countOff+8, entry...)
	})
	if err := NewPrepared(g, 1).RestoreSnapshot(withEntry); err == nil || !strings.Contains(err.Error(), "at most 64 layers") {
		t.Fatalf("memo entry on a %d-layer graph: restore error %v", g.L(), err)
	}
}

// TestSnapshotGraphMismatch pins the fingerprint gate: artifacts saved
// for one graph must never install against another.
func TestSnapshotGraphMismatch(t *testing.T) {
	gA, gB := snapshotTestGraphs(t)
	builder := NewPrepared(gA, 1)
	if _, err := builder.BottomUp(context.Background(), Options{D: 2, S: 2, K: 2, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := builder.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	other := NewPrepared(gB, 1)
	if err := other.RestoreSnapshot(buf.Bytes()); err == nil {
		t.Fatal("snapshot of gA restored into gB without error")
	}
	// The failed restore must leave the handle fully functional and cold.
	if c := other.Counters(); c.CorenessBuilds != 0 || c.HierarchyBuilds != 0 {
		t.Fatalf("failed restore left builds behind: %+v", c)
	}
	if _, err := other.BottomUp(context.Background(), Options{D: 2, S: 2, K: 2, Seed: 1}); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotCorrupt pins error-not-panic over truncations and byte
// flips of a valid snapshot image.
func TestSnapshotCorrupt(t *testing.T) {
	g, _ := snapshotTestGraphs(t)
	builder := NewPrepared(g, 1)
	if _, err := builder.TopDown(context.Background(), Options{D: 2, S: 4, K: 2, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := builder.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	for cut := 1; cut < len(valid); cut += 251 {
		if err := NewPrepared(g, 1).RestoreSnapshot(valid[:len(valid)-cut]); err == nil {
			t.Fatalf("truncation by %d accepted", cut)
		}
	}
	if err := NewPrepared(g, 1).RestoreSnapshot(append(append([]byte(nil), valid...), 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	// Any byte flip anywhere in the image must be rejected — the header
	// checks catch the front, the trailing checksum catches the body
	// (including artifact content that is structurally plausible but
	// wrong, which previously restored fine and could crash queries).
	for off := 0; off < len(valid); off += 97 {
		mut := append([]byte(nil), valid...)
		mut[off] ^= 0xff
		if err := NewPrepared(g, 1).RestoreSnapshot(mut); err == nil {
			t.Fatalf("byte flip at %d accepted", off)
		}
	}
}

// compatGraph is the graph of testdata/union_v2.mlgs and of the
// FuzzRestoreSnapshot seed corpus, regenerated from its seed.
func compatGraph() *multilayer.Graph {
	return testutil.RandomCorrelatedGraph(rand.New(rand.NewSource(1717)), 40, 4, 0.3, 0.85, 0.05)
}

// Byte offsets into a snapshot image of this package's test graphs: the
// header's version and maxCoreness fields, and the first layer-0
// coreness entry.
const (
	snapVersionOff     = 4
	snapMaxCorenessOff = 32
	snapCorenessOff    = 48
)

// seal appends a snapshot trailer computed over body — what anyone can
// do, since the trailer is a checksum, not a MAC.
func seal(body []byte) []byte {
	var sum leio.Checksum
	sum.Write(body)
	return binary.LittleEndian.AppendUint64(body, sum.Sum64())
}

// reseal seals the body edit makes of a copy of a snapshot image's body.
func reseal(img []byte, edit func(body []byte) []byte) []byte {
	return seal(edit(slices.Clone(img[:len(img)-8])))
}

// TestSnapshotRejectsEarlierFormats pins the upgrade path from format
// versions 1 to 4: restore rejects them with an error naming the
// version, and the handle stays cold and answers like one.
// testdata/union_v2.mlgs is a format-2 snapshot for compatGraph at graph
// version 5 with the d = 2 and 3 hierarchies and a union-adjacency
// section; the format-v3 corpus seed is the last format-3 writer's image
// of the same two hierarchies, with their per-d flags word and layer
// masks; the format-v4 seed is the last format-4 writer's image of them,
// without memo sections; the version-1 image is a current image with its
// version field set to 1 and resealed.
func TestSnapshotRejectsEarlierFormats(t *testing.T) {
	ctx := context.Background()
	g := compatGraph()
	v2, err := os.ReadFile(filepath.Join("testdata", "union_v2.mlgs"))
	if err != nil {
		t.Fatal(err)
	}
	v3, err := readCorpusFile(filepath.Join(corpusDir, "format-v3"))
	if err != nil {
		t.Fatal(err)
	}
	v4, err := readCorpusFile(filepath.Join(corpusDir, "format-v4"))
	if err != nil {
		t.Fatal(err)
	}
	builder := NewPrepared(g, 1)
	if err := builder.PrepareDs(ctx, 2, 3); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := builder.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	v1 := reseal(buf.Bytes(), func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[snapVersionOff:], 1)
		return b
	})
	for _, c := range []struct {
		version int
		img     []byte
	}{{4, seal(v4)}, {3, seal(v3)}, {2, v2}, {1, v1}} {
		pr := NewPrepared(g, 1)
		err := pr.RestoreSnapshot(c.img)
		if err == nil {
			t.Fatalf("format-%d image restored", c.version)
		}
		if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("version %d ", c.version)) || !strings.Contains(msg, "earlier release") {
			t.Fatalf("format-%d image: error %q does not name the version and the earlier release", c.version, msg)
		}
		if v := pr.Version(); v != 0 {
			t.Fatalf("format-%d image: rejected restore set version %d", c.version, v)
		}
		if c := pr.Counters(); c.CorenessBuilds != 0 || c.HierarchyBuilds != 0 {
			t.Fatalf("rejected restore left builds behind: %+v", c)
		}
		cold := NewPrepared(g, 1)
		for _, o := range []Options{
			{D: 2, S: 2, K: 3, Seed: 1},
			{D: 3, S: 3, K: 2, Seed: 2},
		} {
			for _, algo := range []struct {
				name      string
				got, want func(context.Context, Options) (*Result, error)
			}{
				{"bottomup", pr.BottomUp, cold.BottomUp},
				{"topdown", pr.TopDown, cold.TopDown},
			} {
				got, err := algo.got(ctx, o)
				if err != nil {
					t.Fatal(err)
				}
				want, err := algo.want(ctx, o)
				if err != nil {
					t.Fatal(err)
				}
				gs, ws := got.Stats, want.Stats
				gs.Elapsed, ws.Elapsed = 0, 0
				if !reflect.DeepEqual(gs, ws) || got.CoverSize != want.CoverSize || !reflect.DeepEqual(got.Cores, want.Cores) {
					t.Fatalf("format-%d image, %s %+v: the handle answers differently from a cold one", c.version, algo.name, o)
				}
			}
		}
		// The handle built its own artifacts, exactly as a cold one does.
		// Whether a query reused a pooled search space is up to sync.Pool,
		// which drops items at random under the race detector, so only
		// the number of queries that searched one must match.
		got, want := pr.Counters(), cold.Counters()
		if got.SpaceBuilds+got.SpaceReuses != want.SpaceBuilds+want.SpaceReuses {
			t.Fatalf("format-%d image: spaces %+v, a cold handle's %+v", c.version, got, want)
		}
		got.SpaceBuilds, got.SpaceReuses, want.SpaceBuilds, want.SpaceReuses = 0, 0, 0, 0
		if got != want {
			t.Fatalf("format-%d image: builds %+v, a cold handle's %+v", c.version, got, want)
		}
	}
}

// snapEntry is one memo entry of a snapshot image: the offset of its
// key and the fields it holds.
type snapEntry struct {
	off         int // of its s field; flags, mask and bit length follow
	d, s, flags int64
	mask        uint64
	bits        int64
}

// snapLayout walks a snapshot image of a graph with n vertices and l
// layers and returns the offsets of the persisted d fields and every
// memo entry, in file order.
func snapLayout(img []byte, n, l int) (dOffs []int, entries []snapEntry) {
	u64 := func(off int) int64 { return int64(binary.LittleEndian.Uint64(img[off:])) }
	section := (4*n + 7) &^ 7
	off := snapCorenessOff + l*section
	numD := u64(off)
	off += 8
	for range numD {
		dOffs = append(dOffs, off)
		d := u64(off)
		off += 8 + (l+1)*section
		count := u64(off)
		off += 8
		for range count {
			e := snapEntry{off: off, d: d, s: u64(off), flags: u64(off + 8), mask: uint64(u64(off + 16)), bits: u64(off + 24)}
			entries = append(entries, e)
			off += 32 + 8*int((e.bits+63)/64)
		}
	}
	return dOffs, entries
}

// TestSnapshotResealedRejected pins the content checks that stand in for
// the checksum when an edited body is resealed. Coreness is the one
// persisted value that sizes an allocation: a layer-0 entry of 2^30 ran
// the next multi-d PrepareDs out of memory allocating the raise's leaver
// buckets. A memo entry is read by compact id next to the space's other
// n′-bit sets, so its key and bit length must match its space. Degree
// thresholds must strictly ascend: a repeated d would install one copy
// and drop the other.
func TestSnapshotResealedRejected(t *testing.T) {
	ctx := context.Background()
	g := compatGraph()
	n, l := g.N(), g.L()
	// At d = 8 vertex deletion keeps 31 of the 40 vertices at s = 2.
	builder := NewPrepared(g, 1)
	if err := builder.PrepareDs(ctx, 2, 8); err != nil {
		t.Fatal(err)
	}
	for _, nvd := range []bool{false, true} {
		if _, err := builder.BottomUp(ctx, Options{D: 8, S: 2, K: 3, Seed: 1, NoVertexDeletion: nvd}); err != nil {
			t.Fatal(err)
		}
	}
	valid := snapshotBytes(t, builder)
	maxc := binary.LittleEndian.Uint64(valid[snapMaxCorenessOff:])
	if err := NewPrepared(g, 1).RestoreSnapshot(reseal(valid, func(b []byte) []byte { return b })); err != nil {
		t.Fatalf("resealed unedited image rejected: %v", err)
	}
	dOffs, entries := snapLayout(valid, n, l)
	// A vertex-deletion d-CC entry whose space lost vertices, and two
	// neighbouring entries of one d that differ in their mask alone.
	var vd *snapEntry
	pair := -1
	for i, e := range entries {
		if vd == nil && e.flags == 0 && e.bits > 0 && e.bits < int64(n) {
			vd = &entries[i]
		}
		if pair < 0 && i > 0 && entries[i-1].d == e.d && entries[i-1].s == e.s && entries[i-1].flags == e.flags {
			pair = i
		}
	}
	if len(dOffs) != 2 || vd == nil || pair < 0 {
		t.Fatalf("the image shows nothing: d fields %v, memo entries %+v, vertex-deletion entry %v, pair %d", dOffs, entries, vd, pair)
	}
	put := func(off int, v int64) func([]byte) []byte {
		return func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[off:], uint64(v))
			return b
		}
	}
	lastWord := vd.off + 32 + 8*int((vd.bits-1)/64)
	for _, c := range []struct {
		name string
		edit func(body []byte) []byte
	}{
		{"coreness entry 2^30", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[snapCorenessOff:], 1<<30)
			return b
		}},
		{"negative coreness entry", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[snapCorenessOff+4:], 0xffffffff)
			return b
		}},
		{"max coreness above the largest entry", put(snapMaxCorenessOff, int64(maxc+1))},
		{"max coreness below the largest entry", put(snapMaxCorenessOff, int64(maxc-1))},
		{"repeated degree threshold", put(dOffs[1], 2)},
		{"memo bit length one above n′", put(vd.off+24, vd.bits+1)},
		{"memo bit length one below n′", put(vd.off+24, vd.bits-1)},
		{"memo NoVertexDeletion flag on a space of n′ < n", put(vd.off+8, memoFlagNVD)},
		{"memo bit set past n′", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[lastWord:], binary.LittleEndian.Uint64(b[lastWord:])|1<<63)
			return b
		}},
		{"memo mask bit l", put(vd.off+16, int64(vd.mask|1<<uint(l)))},
		{"memo s = 0", put(vd.off, 0)},
		{"memo s = l + 1", put(vd.off, int64(l+1))},
		{"memo NoSortLayers on a d-CC key", put(vd.off+8, memoFlagNoSort)},
		{"memo unknown key flag", put(vd.off+8, memoFlagsAll+1)},
		{"memo key equal to the one before", put(entries[pair].off+16, int64(entries[pair-1].mask))},
		{"memo entry count 2^40", put(entries[0].off-8, 1<<40)},
	} {
		pr := NewPrepared(g, 1)
		if err := pr.RestoreSnapshot(reseal(valid, c.edit)); err == nil {
			t.Fatalf("%s: resealed image accepted", c.name)
		}
		// The rejected image left the handle cold and usable.
		if got := pr.Counters(); got != (PreparedCounters{}) || len(memoState(pr)) != 0 {
			t.Fatalf("%s: the rejected restore left %+v behind", c.name, got)
		}
		if err := pr.PrepareDs(ctx, 2, 3); err != nil {
			t.Fatal(err)
		}
		if _, err := pr.TopDown(ctx, Options{D: 2, S: 3, K: 2, Seed: 1}); err != nil {
			t.Fatal(err)
		}
		if c := pr.Counters(); c.CorenessBuilds != 1 || c.HierarchyBuilds != 2 {
			t.Fatalf("after a rejected restore: %+v, want one coreness and two hierarchy builds", c)
		}
	}
}

// FuzzRestoreSnapshot feeds snapshot bodies for compatGraph through
// RestoreSnapshot. The harness appends a freshly computed trailer, so
// mutations get past the checksum and reach content validation. The
// contract: RestoreSnapshot returns an error or succeeds, never panics;
// after a successful restore, PrepareAll and one bottom-up and one
// top-down query complete without a panic. Their answers may differ
// from a cold handle's: the trailer is a checksum, not a MAC, so a
// resealed body can carry wrong (in-range) artifacts.
func FuzzRestoreSnapshot(f *testing.F) {
	g := compatGraph()
	f.Fuzz(func(t *testing.T, body []byte) {
		pr := NewPrepared(g, 1)
		if pr.RestoreSnapshot(seal(slices.Clip(body))) != nil {
			return
		}
		ctx := context.Background()
		if err := pr.PrepareAll(ctx); err != nil {
			t.Fatal(err)
		}
		for _, q := range fuzzQueries {
			run := pr.BottomUp
			if q.topDown {
				run = pr.TopDown
			}
			if _, err := run(ctx, q.o); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// corpusDir holds the FuzzRestoreSnapshot seed corpus.
var corpusDir = filepath.Join("testdata", "fuzz", "FuzzRestoreSnapshot")

// earlierFormatSeeds maps the corpus seeds written by earlier format
// versions to their version: a format-2 body with the union-adjacency
// field absent, as the last format-2 writer produced it, and the last
// format-3 and format-4 writers' warm-d2-d3 bodies. Restore must reject
// all three.
var earlierFormatSeeds = map[string]int{"format-v2": 2, "format-v3": 3, "format-v4": 4}

// fuzzQueries are the queries FuzzRestoreSnapshot answers after a
// restore, a bottom-up and a top-down one at different d.
var fuzzQueries = []struct {
	topDown bool
	o       Options
}{
	{false, Options{D: 2, S: 2, K: 3, Seed: 1}},
	{true, Options{D: 3, S: 3, K: 3, Seed: 1}},
}

// corpusSeeds returns the current-format seed bodies for compatGraph,
// by corpus file name: a cold handle's, a handle with the d = 2 and 3
// hierarchies, the same at graph version 7, and a handle that answered
// fuzzQueries, whose memo sections hold the entries those queries read.
func corpusSeeds(t *testing.T) map[string][]byte {
	t.Helper()
	g := compatGraph()
	body := func(pr *Prepared) []byte {
		img := snapshotBytes(t, pr)
		return img[:len(img)-8]
	}
	warm := func() *Prepared {
		pr := NewPrepared(g, 1)
		if err := pr.PrepareDs(context.Background(), 2, 3); err != nil {
			t.Fatal(err)
		}
		return pr
	}
	stamped := warm()
	stamped.version.Store(7)
	answered := NewPrepared(g, 1)
	for _, q := range fuzzQueries {
		run := answered.BottomUp
		if q.topDown {
			run = answered.TopDown
		}
		if _, err := run(context.Background(), q.o); err != nil {
			t.Fatal(err)
		}
	}
	if answered.Counters().MemoBytes == 0 {
		t.Fatal("the fuzz queries stored no memo entry")
	}
	return map[string][]byte{
		"cold-handle":     body(NewPrepared(g, 1)),
		"warm-d2-d3":      body(warm()),
		"version-stamped": body(stamped),
		"memo-answered":   body(answered),
	}
}

// readCorpusFile decodes a one-value []byte fuzz corpus file.
func readCorpusFile(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	header, value, ok := strings.Cut(string(data), "\n")
	value = strings.TrimSpace(value)
	if !ok || header != "go test fuzz v1" || !strings.HasPrefix(value, "[]byte(") || !strings.HasSuffix(value, ")") {
		return nil, fmt.Errorf("%s: not a one-value []byte corpus file", path)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(value, "[]byte("), ")"))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return []byte(s), nil
}

// TestRestoreSnapshotCorpus checks that every FuzzRestoreSnapshot seed
// except the earlier-format one restores: a format bump that forgets
// to regenerate the corpus fails here, instead of quietly leaving the
// fuzzer with seeds that never get past the version check. Regenerate
// the current-format seeds with -update-corpus.
func TestRestoreSnapshotCorpus(t *testing.T) {
	if *updateCorpus {
		for name, body := range corpusSeeds(t) {
			data := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", body)
			if err := os.WriteFile(filepath.Join(corpusDir, name), []byte(data), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	entries, err := os.ReadDir(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	g := compatGraph()
	seen := map[string]bool{}
	for _, e := range entries {
		seen[e.Name()] = true
		body, err := readCorpusFile(filepath.Join(corpusDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		err = NewPrepared(g, 1).RestoreSnapshot(seal(body))
		if v, ok := earlierFormatSeeds[e.Name()]; ok {
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d ", v)) {
				t.Fatalf("%s: restore error %v, want a format-version rejection", e.Name(), err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("corpus seed %s does not restore: %v", e.Name(), err)
		}
	}
	for name := range corpusSeeds(t) {
		if !seen[name] {
			t.Errorf("corpus seed %s missing", name)
		}
	}
	for name := range earlierFormatSeeds {
		if !seen[name] {
			t.Errorf("corpus seed %s missing", name)
		}
	}
}
