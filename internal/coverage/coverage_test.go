package coverage

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
)

// model is a brute-force reference for TopK semantics. Its members sit in
// TopK's slot order: Rule 1 fills slots 0, 1, … and Rule 2 reuses the
// slot of the member it replaces, so member i is Entries()[i].
type model struct {
	n, k    int
	members [][]int32
}

// modelState is what the model derives from its members: per vertex the
// number of members covering it, |Cov(R)|, every Δ, and C*(R) as a member
// index (the first of the least Δ; -1 for an empty R) with its Δ.
type modelState struct {
	*model
	cover           []int
	coverSize       int
	deltas          []int
	star, starDelta int
}

func (m *model) state() modelState {
	st := modelState{model: m, cover: make([]int, m.n), star: -1}
	for _, mem := range m.members {
		for _, v := range mem {
			if st.cover[v]++; st.cover[v] == 1 {
				st.coverSize++
			}
		}
	}
	for i, mem := range m.members {
		d := 0
		for _, v := range mem {
			if st.cover[v] == 1 {
				d++
			}
		}
		st.deltas = append(st.deltas, d)
		if st.star == -1 || d < st.starDelta {
			st.star, st.starDelta = i, d
		}
	}
	return st
}

func (st modelState) full() bool { return len(st.members) == st.k }

func (st modelState) gain(c []int32) int {
	g := 0
	for _, v := range c {
		if st.cover[v] == 0 {
			g++
		}
	}
	return g
}

func (st modelState) sizeWith(c []int32) int {
	cov := make([]bool, st.n)
	for i, mem := range st.members {
		if i == st.star {
			continue
		}
		for _, v := range mem {
			cov[v] = true
		}
	}
	for _, v := range c {
		cov[v] = true
	}
	size := 0
	for _, in := range cov {
		if in {
			size++
		}
	}
	return size
}

func (st modelState) eq1(c []int32) bool {
	return !st.full() || st.k*st.sizeWith(c) >= (st.k+1)*st.coverSize
}

func (st modelState) eq2(size int) bool {
	k := st.k
	return st.full() && k*k*size < (k+1)*st.coverSize+(k*k+k)*st.starDelta
}

func (st modelState) meetsSizeBound(size int) bool {
	return !st.full() || st.k*size >= st.coverSize+st.k*st.starDelta
}

func (m *model) update(c []int32) bool {
	st := m.state()
	if !st.full() {
		m.members = append(m.members, c)
		return true
	}
	if !st.eq1(c) {
		return false
	}
	m.members[st.star] = c
	return true
}

func has(words []uint64, v int) bool { return words[v/64]&(1<<(v%64)) != 0 }

// compare checks every observable of tk against m, and the word-level
// invariants covered = {v : mask(v) ≠ 0} and once = {v : |mask(v)| = 1}
// (no bit set at or past n), with probe as the candidate for the
// per-candidate quantities.
func compare(tk *TopK, m *model, probe *bitset.Set) error {
	if tk.Len() != len(m.members) {
		return fmt.Errorf("Len = %d, model %d", tk.Len(), len(m.members))
	}
	st := m.state()
	if tk.CoverSize() != st.coverSize {
		return fmt.Errorf("CoverSize = %d, model %d", tk.CoverSize(), st.coverSize)
	}
	for v := 0; v < len(tk.covered)*64; v++ {
		bitsSet, count := 0, 0
		if v < m.n {
			bitsSet, count = popcount(tk.mask(v)), st.cover[v]
		}
		if got, want := has(tk.covered, v), bitsSet != 0; got != want || want != (count > 0) {
			return fmt.Errorf("vertex %d: in Cov(R) %v, %d mask bits, model count %d", v, got, bitsSet, count)
		}
		if got, want := has(tk.once, v), bitsSet == 1; got != want || want != (count == 1) {
			return fmt.Errorf("vertex %d: in once %v, %d mask bits, model count %d", v, got, bitsSet, count)
		}
	}
	entries := tk.Entries()
	for i, e := range entries {
		if !slices.Equal(e.Vertices, m.members[i]) || !slices.Equal(e.Set.Slice32(), e.Vertices) {
			return fmt.Errorf("entry %d = %v (set %v), model %v", i, e.Vertices, e.Set.Slice32(), m.members[i])
		}
		if got, want := tk.Delta(i), st.deltas[i]; got != want {
			return fmt.Errorf("Δ of entry %d = %d, model %d", i, got, want)
		}
	}
	star, starDelta := st.star, st.starDelta
	if tk.MinDelta() != starDelta {
		return fmt.Errorf("MinDelta = %d, model %d", tk.MinDelta(), starDelta)
	}
	pv := probe.Slice32()
	if got, want := tk.Gain(probe), st.gain(pv); got != want {
		return fmt.Errorf("Gain = %d, model %d", got, want)
	}
	if star >= 0 {
		if slot, d := tk.MinDeltaSlot(); slot != star || d != starDelta {
			return fmt.Errorf("C*(R) = slot %d (Δ %d), model member %d (Δ %d)", slot, d, star, starDelta)
		}
		if got, want := tk.SizeWith(probe), st.sizeWith(pv); got != want {
			return fmt.Errorf("SizeWith = %d, model %d", got, want)
		}
	}
	if got, want := tk.SatisfiesEq1(probe), st.eq1(pv); got != want {
		return fmt.Errorf("SatisfiesEq1 = %v, model %v", got, want)
	}
	for _, size := range []int{0, 1, len(pv), m.n / 2, m.n} {
		if got, want := tk.SatisfiesEq2(size), st.eq2(size); got != want {
			return fmt.Errorf("SatisfiesEq2(%d) = %v, model %v", size, got, want)
		}
		if got, want := tk.MeetsSizeBound(size), st.meetsSizeBound(size); got != want {
			return fmt.Errorf("MeetsSizeBound(%d) = %v, model %v", size, got, want)
		}
	}
	return nil
}

// step offers c to both tk and m, comparing them before and after with c
// as the probe.
func step(tk *TopK, m *model, c *bitset.Set) error {
	if err := compare(tk, m, c); err != nil {
		return fmt.Errorf("before Update: %w", err)
	}
	if got, want := tk.Update(c, nil), m.update(c.Slice32()); got != want {
		return fmt.Errorf("Update = %v, model %v", got, want)
	}
	if err := compare(tk, m, c); err != nil {
		return fmt.Errorf("after Update: %w", err)
	}
	return nil
}

// randSet returns a random subset of [0, n) whose density is itself
// random, so that sparse, dense and empty candidates all occur.
func randSet(rng *rand.Rand, n int) *bitset.Set {
	s := bitset.New(n)
	p := rng.Float64() * 0.6
	for v := 0; v < n; v++ {
		if rng.Float64() < p {
			s.Add(v)
		}
	}
	return s
}

func set(n int, vs ...int) *bitset.Set { return bitset.FromSlice(n, vs) }

func TestUpdateRule1FillsToK(t *testing.T) {
	tk := New(10, 3)
	for i := 0; i < 3; i++ {
		if !tk.Update(set(10, i), []int{i}) {
			t.Fatalf("Rule 1 rejected insert %d", i)
		}
	}
	if tk.Len() != 3 || tk.CoverSize() != 3 {
		t.Fatalf("Len=%d CoverSize=%d", tk.Len(), tk.CoverSize())
	}
}

func TestUpdateRule2(t *testing.T) {
	tk := New(20, 2)
	tk.Update(set(20, 0, 1, 2), nil)
	tk.Update(set(20, 2, 3), nil) // Δ = {3}, C* candidate
	// Cov = {0,1,2,3}, |Cov| = 4. Eq(1) needs size ≥ 4·(3/2) = 6.
	// Replacing C* = {2,3} with {4,5,6} gives {0,1,2,4,5,6} = 6 ✓.
	if got := tk.SizeWith(set(20, 4, 5, 6)); got != 6 {
		t.Fatalf("SizeWith = %d, want 6", got)
	}
	// {3, 4} keeps C*'s exclusive vertex 3 covered: {0,1,2,3,4} = 5.
	if got := tk.SizeWith(set(20, 3, 4)); got != 5 {
		t.Fatalf("SizeWith = %d, want 5", got)
	}
	if got := tk.Gain(set(20, 2, 3, 4, 5)); got != 2 {
		t.Fatalf("Gain = %d, want 2", got)
	}
	if !tk.Update(set(20, 4, 5, 6), nil) {
		t.Fatal("Eq(1)-satisfying candidate rejected")
	}
	if tk.CoverSize() != 6 {
		t.Fatalf("CoverSize = %d, want 6", tk.CoverSize())
	}
	// A small candidate must now be rejected: Cov=6, needs ≥ 9.
	if tk.Update(set(20, 7, 8), nil) {
		t.Fatal("Eq(1)-violating candidate accepted")
	}
}

func TestMinDeltaAndCovered(t *testing.T) {
	tk := New(10, 3)
	tk.Update(set(10, 0, 1, 2, 3), nil)
	tk.Update(set(10, 3, 4), nil)
	slot, d := tk.MinDeltaSlot()
	if d != 1 {
		t.Fatalf("min delta = %d (slot %d), want 1", d, slot)
	}
	if tk.covered[0] != 0b11111 || tk.once[0] != 0b10111 {
		t.Fatalf("covered = %b, once = %b", tk.covered[0], tk.once[0])
	}
}

func TestBoundsWhenNotFull(t *testing.T) {
	tk := New(10, 2)
	tk.Update(set(10, 0), nil)
	if !tk.SatisfiesEq1(set(10)) || !tk.MeetsSizeBound(0) {
		t.Fatal("bounds must pass while |R| < k")
	}
	if tk.SatisfiesEq2(0) {
		t.Fatal("Eq(2) must not trigger while |R| < k")
	}
	if tk.MinDelta() != 1 {
		t.Fatalf("MinDelta = %d", tk.MinDelta())
	}
}

func TestEmptyTopK(t *testing.T) {
	tk := New(5, 2)
	if tk.MinDelta() != 0 || tk.Len() != 0 || tk.CoverSize() != 0 {
		t.Fatal("empty TopK accessors wrong")
	}
	if len(tk.Entries()) != 0 {
		t.Fatal("Entries on empty TopK")
	}
	if tk.Gain(set(5, 1, 4)) != 2 {
		t.Fatal("Gain on empty TopK")
	}
}

func TestNewPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(n, 0) did not panic")
		}
	}()
	New(5, 0)
}

func TestCandidateCapacityMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Update with a candidate over the wrong range did not panic")
		}
	}()
	New(10, 2).Update(set(11, 0), nil)
}

func TestLargeKMultiWordMasks(t *testing.T) {
	// k > 64 exercises multi-word member masks.
	tk := New(300, 70)
	for i := 0; i < 70; i++ {
		tk.Update(set(300, i, i+100), []int{i})
	}
	if tk.Len() != 70 || tk.CoverSize() != 140 {
		t.Fatalf("Len=%d CoverSize=%d", tk.Len(), tk.CoverSize())
	}
	if _, d := tk.MinDeltaSlot(); d != 2 {
		t.Fatalf("delta = %d, want 2", d)
	}
}

// TestModelMultiWord runs the model comparison at k = 64 (one full mask
// word) and k = 65 (two words), with n′ off a multiple of 64 so the last
// bitset word is partial, through enough steps to fill R and replace.
func TestModelMultiWord(t *testing.T) {
	for _, k := range []int{64, 65} {
		for _, n := range []int{70, 131} {
			t.Run(fmt.Sprintf("k%d_n%d", k, n), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(k*1000 + n)))
				tk, m := New(n, k), &model{n: n, k: k}
				for i := 0; i < k+40; i++ {
					if err := step(tk, m, randSet(rng, n)); err != nil {
						t.Fatalf("step %d: %v", i, err)
					}
				}
			})
		}
	}
}

// TestCloneIndependent updates a clone and the original along different
// candidate streams: each must still match its own model.
func TestCloneIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n, k := 90, 4
	tk, m := New(n, k), &model{n: n, k: k}
	for i := 0; i < 6; i++ {
		if err := step(tk, m, randSet(rng, n)); err != nil {
			t.Fatal(err)
		}
	}
	cl := tk.Clone()
	mc := &model{n: n, k: k, members: slices.Clone(m.members)}
	for i := 0; i < 20; i++ {
		if err := step(cl, mc, randSet(rng, n)); err != nil {
			t.Fatalf("clone step %d: %v", i, err)
		}
		if err := compare(tk, m, randSet(rng, n)); err != nil {
			t.Fatalf("original after clone step %d: %v", i, err)
		}
	}
	for i := 0; i < 20; i++ {
		if err := step(tk, m, randSet(rng, n)); err != nil {
			t.Fatalf("original step %d: %v", i, err)
		}
		if err := compare(cl, mc, randSet(rng, n)); err != nil {
			t.Fatalf("clone after original step %d: %v", i, err)
		}
	}
}

// TestQuickAgainstModel drives TopK and the brute-force model with the
// same random candidate stream and compares every observable after each
// step.
func TestQuickAgainstModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(140)
		k := 1 + rng.Intn(6)
		tk, m := New(n, k), &model{n: n, k: k}
		for i := 0; i < 60; i++ {
			if err := step(tk, m, randSet(rng, n)); err != nil {
				t.Logf("seed %d, n %d, k %d, step %d: %v", seed, n, k, i, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// FuzzTopK decodes its input into n′, k and a stream of candidate sets
// and checks TopK against the brute-force model before and after every
// Update. Byte 0 picks n′ in [1, 200], byte 1 picks k in [1, 70] (past
// one mask word); each following run of ⌈n′/8⌉ bytes is one candidate's
// bitmap, vertex v at bit v%8 of byte v/8, the last run zero-padded. The
// seed corpus is in testdata/fuzz/FuzzTopK.
func FuzzTopK(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n, k := 1+int(data[0])%200, 1+int(data[1])%70
		chunk := (n + 7) / 8
		var cands []*bitset.Set
		for rest := data[2:]; len(rest) > 0 && len(cands) < 100; {
			c := bitset.New(n)
			for v := 0; v < n && v/8 < len(rest); v++ {
				if rest[v/8]&(1<<(v%8)) != 0 {
					c.Add(v)
				}
			}
			cands = append(cands, c)
			rest = rest[min(chunk, len(rest)):]
		}
		tk, m := New(n, k), &model{n: n, k: k}
		for i, c := range cands {
			if err := step(tk, m, c); err != nil {
				t.Fatalf("n %d, k %d, candidate %d: %v", n, k, i, err)
			}
		}
	})
}
