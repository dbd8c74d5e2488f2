package core

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/dynamic"
	"repro/internal/kcore"
	"repro/internal/multilayer"
	"repro/internal/testutil"
)

// carryTally counts, over a stream, what the memo carry met: entries
// carried into retained and into rebuilt slots, and the old entries the
// rule held back because surv(s) changed, because a changed edge lies
// inside an otherwise unchanged reduced core of the entry's layer set,
// or because they are potential sets with a dirty layer outside their
// mask.
type carryTally struct {
	retained, rebuilt                  int
	survChanged, edgeInside, potential int
}

// carryOracle is the carry rule for one space key, recomputed from the
// compact spaces that newPrep builds on the old handle and on a cold
// handle over the new graph: same reports equal survivor lists, dirty
// the layers whose reduced cores differ or hold both endpoints of a
// changed edge, and edgeOnly those dirty by a changed edge alone.
type carryOracle struct {
	same            bool
	dirty, edgeOnly uint64
}

func newCarryOracle(old, cold *Prepared, opts Options, changed []multilayer.Edge) carryOracle {
	po := old.newPrep(context.Background(), opts, false)
	pc := cold.newPrep(context.Background(), opts, false)
	defer po.release()
	defer pc.release()
	o := carryOracle{same: slices.Equal(po.verts, pc.verts)}
	if !o.same {
		return o
	}
	for i := range pc.cores {
		if !po.cores[i].Equal(pc.cores[i]) {
			o.dirty |= 1 << uint(i)
		}
	}
	for _, e := range changed {
		cu, okU := slices.BinarySearch(pc.verts, int32(e.U))
		cv, okV := slices.BinarySearch(pc.verts, int32(e.V))
		if bit := uint64(1) << uint(e.Layer); okU && okV && o.dirty&bit == 0 &&
			pc.cores[e.Layer].Contains(cu) && pc.cores[e.Layer].Contains(cv) {
			o.edgeOnly |= bit
		}
	}
	o.dirty |= o.edgeOnly
	return o
}

// checkCarry checks the memo of derived, fresh from pr.Derive(g2,
// changed, ·) with no query run on it yet, against the carry rule and a
// cold handle over g2: its entries are exactly pr's entries the rule
// (carryOracle) lets through, shared by pointer, each equal bit for bit
// to the cold handle's computation for its key; MemoBytes is their
// charges and MemoCarried grew by their count.
func checkCarry(t *testing.T, pr, derived *Prepared, g2 *multilayer.Graph, changed []multilayer.Edge, tally *carryTally) {
	t.Helper()
	cold := NewPrepared(g2, 1)
	maxc := derived.MaxCoreness()
	stored, bytes := 0, int64(0)
	for d, oa := range pr.byD {
		na := derived.byD[d]
		if !oa.done.Load() || d > maxc+1 {
			if na != nil && len(na.memo.entries) > 0 {
				t.Fatalf("d=%d: entries carried into a slot the old handle did not complete or the new one clamps", d)
			}
			continue
		}
		if na == nil || !na.done.Load() {
			t.Fatalf("d=%d: the derived handle has no completed slot", d)
		}
		oracles := map[spaceKey]carryOracle{}
		want := 0
		for k, set := range oa.memo.entries {
			sk := spaceKeyOf(Options{S: int(k.s), NoVertexDeletion: k.nvd})
			o, ok := oracles[sk]
			if !ok {
				o = newCarryOracle(pr, cold, Options{D: d, S: int(sk.s), K: 1, NoVertexDeletion: sk.nvd}, changed)
				oracles[sk] = o
				if !o.same {
					tally.survChanged++
				}
			}
			carries := o.same && k.mask&o.dirty == 0 && !(k.potential && o.dirty != 0)
			switch {
			case !o.same:
			case !k.potential && k.mask&o.edgeOnly != 0:
				tally.edgeInside++
			case k.potential && o.dirty != 0 && k.mask&o.dirty == 0:
				tally.potential++
			}
			got := na.memo.entries[k]
			if carries != (got != nil) || (got != nil && got != set) {
				t.Fatalf("d=%d %+v: carried %v (shared %v), want carried %v; oracle %+v", d, k, got != nil, got == set, carries, o)
			}
			if carries {
				want++
				if na.hier == oa.hier {
					tally.retained++
				} else {
					tally.rebuilt++
				}
			}
		}
		if len(na.memo.entries) != want {
			t.Fatalf("d=%d: new memo holds %d entries, want the %d carried", d, len(na.memo.entries), want)
		}
	}
	for _, a := range derived.byD {
		for _, set := range a.memo.entries {
			stored++
			bytes += memoCharge(set)
		}
	}
	c, oc := derived.Counters(), pr.Counters()
	if c.MemoBytes != bytes || c.MemoCarried-oc.MemoCarried != int64(stored) {
		t.Fatalf("after the carry: %d memo bytes and %d carried, want %d bytes and %d entries", c.MemoBytes, c.MemoCarried-oc.MemoCarried, bytes, stored)
	}
	if n, _ := checkMemoEntriesOn(t, derived, cold); n != stored {
		t.Fatalf("checked %d entries, want %d", n, stored)
	}
}

// carryBatch returns the next batch of a carry stream over dg, by kind:
// a few random inserts and deletes on one layer; edits between two
// vertices of one layer's d-core for a d the queries use, which lie
// inside a reduced core as often as not; every edge of a few vertices
// deleted, which moves survivors; and an edge inserted and deleted again,
// which leaves the graph as it was.
func carryBatch(dg *dynamic.Graph, rng *rand.Rand, kind int) []multilayer.Edge {
	n, l := dg.N(), dg.L()
	pair := func() (int, int) {
		for {
			if u, v := rng.Intn(n), rng.Intn(n); u != v {
				return u, v
			}
		}
	}
	var ups []update
	switch kind {
	case 0:
		layer := rng.Intn(l)
		for k := 1 + rng.Intn(4); k > 0; k-- {
			u, v := pair()
			ups = append(ups, update{del: rng.Intn(3) == 0, layer: layer, u: u, v: v})
		}
	case 1:
		layer, d := rng.Intn(l), 2+rng.Intn(2)
		core := NewPrepared(dg.Freeze(), 1).CoreIntersection([]int{layer}, d).Slice32()
		for k := 1 + rng.Intn(2); k > 0 && len(core) > 1; k-- {
			u, v := core[rng.Intn(len(core))], core[rng.Intn(len(core))]
			if u != v {
				ups = append(ups, update{del: dg.HasEdge(layer, int(u), int(v)), layer: layer, u: int(u), v: int(v)})
			}
		}
	case 2:
		for k := 1 + rng.Intn(3); k > 0; k-- {
			v := rng.Intn(n)
			for layer := 0; layer < l; layer++ {
				for _, u := range slices.Clone(dg.Neighbors(layer, v)) {
					ups = append(ups, update{del: true, layer: layer, u: v, v: int(u)})
				}
			}
		}
	default:
		layer := rng.Intn(l)
		for {
			if u, v := pair(); !dg.HasEdge(layer, u, v) {
				ups = append(ups, update{layer: layer, u: u, v: v}, update{del: true, layer: layer, u: u, v: v})
				break
			}
		}
	}
	return applyBatch(dg, ups)
}

// TestDeriveCarriesMemoExactly is the carry rule's property test: random
// graphs take streams of batches — inserts and deletes, edits inside
// reduced cores, batches that move survivors, and batches that leave the
// graph as it was — with bottom-up, top-down and greedy queries between
// them, with and without NoVertexDeletion, at degree thresholds on both
// sides of each batch's coreness bound and at the sentinel. After every
// batch the new handle's memo must hold exactly the entries the rule
// lets through, each equal bit for bit to a cold handle's computation
// (checkCarry), and the stream must meet every case the rule tells
// apart.
func TestDeriveCarriesMemoExactly(t *testing.T) {
	ctx := context.Background()
	var tally carryTally
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := testutil.RandomCorrelatedGraph(rng, 40+rng.Intn(40), 3+rng.Intn(3), 0.15, 0.85, 0.05)
		pr := NewPrepared(g, 1+int(seed%2))
		dg := dynamic.FromMultilayer(g)
		for batch := 0; batch < 8; batch++ {
			l := g.L()
			for _, d := range []int{1, 2, 3, pr.MaxCoreness() + 2} {
				for i, o := range []Options{
					{D: d, S: 2, K: 3},
					{D: d, S: max(2, l-1), K: 2},
					{D: d, S: 2, K: 2},
					{D: d, S: 2, K: 2, NoVertexDeletion: true},
					{D: d, S: l - 1, K: 2, NoVertexDeletion: true},
				} {
					o.Seed = rng.Int63()
					if _, err := memoAlgos[i%3].run(pr, ctx, o); err != nil {
						t.Fatal(err)
					}
				}
			}
			changed := carryBatch(dg, rng, (batch+int(seed))%4)
			g2 := dg.Freeze()
			derived, _ := pr.Derive(g2, changed, uint64(batch+1))
			checkCarry(t, pr, derived, g2, changed, &tally)
			pr, g = derived, g2
		}
	}
	t.Logf("%+v", tally)
	if tally.retained == 0 || tally.rebuilt == 0 || tally.survChanged == 0 || tally.edgeInside == 0 || tally.potential == 0 {
		t.Fatalf("the stream missed a case of the carry rule: %+v", tally)
	}
}

// TestDeriveWhileOldHandleQueries derives new generations from a handle
// while queries on it store memo entries, so the carry reads memos that
// are being written (run it under -race). Every entry each derived
// handle carried must still equal a cold handle's computation.
func TestDeriveWhileOldHandleQueries(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(43))
	g := testutil.RandomCorrelatedGraph(rng, 80, 4, 0.2, 0.85, 0.05)
	pr := NewPrepared(g, 2)
	if err := pr.PrepareDs(ctx, 2, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := pr.BottomUp(ctx, Options{D: 2, S: 2, K: 3}); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(stop)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				o := Options{D: 2 + i%3, S: 1 + (w+i)%g.L(), K: 2, Seed: int64(i)}
				if _, err := memoAlgos[(w+i)%3].run(pr, ctx, o); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	carried := int64(0)
	for v := uint64(1); v <= 6; v++ {
		dg := dynamic.FromMultilayer(g)
		changed := applyRandom(dg, rng, 3)
		g2 := dg.Freeze()
		derived, _ := pr.Derive(g2, changed, v)
		carried += derived.Counters().MemoCarried
		if n, _ := checkMemoEntriesOn(t, derived, NewPrepared(g2, 1)); int64(n) != derived.Counters().MemoCarried {
			t.Fatalf("version %d: the derived memo holds %d entries, carried %d", v, n, derived.Counters().MemoCarried)
		}
	}
	if carried == 0 {
		t.Fatal("no derivation carried an entry")
	}
}

// TestDeriveDropsEntryOfEdgeInsideCore pins the changed-edge half of the
// dirty-layer test on a graph where it decides a d-CC. At d = 2, s = 2
// vertex 4 lies in the reduced cores of layers 0 and 1, but on layer 0
// only its edge to vertex 0 stays inside C^2_{0,1} = {0, 1, 2, 3}.
// Inserting the layer-0 edge {4, 2} leaves every survivor and reduced
// core as it was, yet adds vertex 4 to C^2_{0,1}: the entry for {0, 1}
// must not carry, while the entries of layer sets without layer 0 do.
func TestDeriveDropsEntryOfEdgeInsideCore(t *testing.T) {
	ctx := context.Background()
	b := multilayer.NewBuilder(6, 3)
	for u := 0; u < 4; u++ {
		for v := u + 1; v < 5; v++ {
			if v < 4 {
				b.MustAddEdge(0, u, v)
			}
			b.MustAddEdge(1, u, v)
		}
	}
	for _, e := range [][2]int{{4, 0}, {4, 5}, {5, 1}} {
		b.MustAddEdge(0, e[0], e[1])
	}
	for _, e := range [][2]int{{5, 0}, {5, 1}, {0, 1}} {
		b.MustAddEdge(2, e[0], e[1])
	}
	g := b.Build()
	pr := NewPrepared(g, 1)
	opts := Options{D: 2, S: 2, K: 3, Seed: 1}
	if _, err := pr.BottomUp(ctx, opts); err != nil {
		t.Fatal(err)
	}
	key := func(layers ...int) memoKey {
		k := memoKey{s: 2}
		for _, i := range layers {
			k.mask |= 1 << uint(i)
		}
		return k
	}
	old := pr.byD[2].memo.entries
	if c := old[key(0, 1)]; c == nil || !slices.Equal(c.Slice32(), []int32{0, 1, 2, 3}) {
		t.Fatalf("C^2_{0,1} before the insert: %v, want [0 1 2 3]", c)
	}

	dg := dynamic.FromMultilayer(g)
	changed := applyBatch(dg, []update{{layer: 0, u: 4, v: 2}})
	g2 := dg.Freeze()
	derived, _ := pr.Derive(g2, changed, 1)
	var tally carryTally
	checkCarry(t, pr, derived, g2, changed, &tally)
	if tally.survChanged != 0 || tally.edgeInside == 0 {
		t.Fatalf("the insert moved survivors or lay inside no core: %+v", tally)
	}
	got := derived.byD[2].memo.entries
	for k := range old {
		if carried := got[k] != nil; carried != (k.mask&1 == 0) {
			t.Fatalf("layer mask %b: carried %v, want %v", k.mask, carried, !carried)
		}
	}
	if len(got) == 0 || got[key(0, 1)] != nil {
		t.Fatalf("carried %d entries, {0,1} among them: %v", len(got), got[key(0, 1)] != nil)
	}
	p := NewPrepared(g2, 1).newPrep(ctx, opts, false)
	defer p.release()
	if c := kcore.DCC(p.g, p.alive, []int{0, 1}, 2); !slices.Equal(c.Slice32(), []int32{0, 1, 2, 3, 4}) {
		t.Fatalf("C^2_{0,1} after the insert: %v, want [0 1 2 3 4]", c.Slice32())
	}
}
