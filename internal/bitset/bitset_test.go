package bitset

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	s := New(100)
	if s.Count() != 0 || !s.Empty() || s.Cap() != 100 {
		t.Fatalf("New(100) not empty: count=%d cap=%d", s.Count(), s.Cap())
	}
	for v := 0; v < 100; v++ {
		if s.Contains(v) {
			t.Fatalf("empty set contains %d", v)
		}
	}
}

func TestNewZeroCapacity(t *testing.T) {
	s := New(0)
	if s.Count() != 0 || s.Cap() != 0 {
		t.Fatalf("New(0) broken")
	}
	s.Fill()
	if s.Count() != 0 {
		t.Fatalf("Fill on zero-capacity set produced elements")
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestAddRemoveContains(t *testing.T) {
	s := New(130) // spans three words
	for _, v := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if !s.Add(v) {
			t.Errorf("Add(%d) reported not-new", v)
		}
		if s.Add(v) {
			t.Errorf("second Add(%d) reported new", v)
		}
		if !s.Contains(v) {
			t.Errorf("Contains(%d) false after Add", v)
		}
	}
	if s.Count() != 8 {
		t.Fatalf("count = %d, want 8", s.Count())
	}
	if !s.Remove(64) || s.Remove(64) {
		t.Errorf("Remove(64) semantics wrong")
	}
	if s.Contains(64) || s.Count() != 7 {
		t.Errorf("Remove did not delete: count=%d", s.Count())
	}
}

func TestFillAndClear(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 100, 128, 1000} {
		s := New(n)
		s.Fill()
		if s.Count() != n {
			t.Fatalf("Fill(%d): count=%d", n, s.Count())
		}
		for v := 0; v < n; v++ {
			if !s.Contains(v) {
				t.Fatalf("Fill(%d): missing %d", n, v)
			}
		}
		s.Clear()
		if s.Count() != 0 {
			t.Fatalf("Clear left %d elements", s.Count())
		}
	}
}

func TestReset(t *testing.T) {
	s := NewFull(200)
	for _, n := range []int{70, 0, 130, 1000, 5} {
		s.Reset(n)
		if s.Cap() != n || s.Count() != 0 || !s.Equal(New(n)) {
			t.Fatalf("Reset(%d): cap=%d count=%d", n, s.Cap(), s.Count())
		}
		s.Fill()
		if !s.Equal(NewFull(n)) {
			t.Fatalf("Reset(%d) then Fill differs from NewFull", n)
		}
	}
}

func TestNewFullTailBits(t *testing.T) {
	// Tail bits beyond capacity must stay zero so Count/word scans agree.
	s := NewFull(70)
	s2 := New(70)
	s2.Or(s)
	if s2.Count() != 70 {
		t.Fatalf("tail bits leaked: count=%d", s2.Count())
	}
}

// TestLoadWords pins the decoding constructor: the words of any set load
// back into an equal set that aliases them, and a bad length, a stray
// tail bit or a negative capacity is an error.
func TestLoadWords(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 130} {
		want := New(n)
		for v := 0; v < n; v += 3 {
			want.Add(v)
		}
		words := append([]uint64(nil), want.Words()...)
		got, err := LoadWords(words, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !got.Equal(want) || got.Count() != want.Count() || got.Cap() != n {
			t.Fatalf("n=%d: loaded %v, want %v", n, got.Slice(), want.Slice())
		}
		if n > 0 {
			words[0] = 0
			if got.Contains(0) {
				t.Fatalf("n=%d: the set does not alias its words", n)
			}
		}
	}
	for _, c := range []struct {
		name  string
		words []uint64
		n     int
	}{
		{"negative capacity", nil, -1},
		{"too few words", []uint64{0}, 65},
		{"too many words", []uint64{0, 0}, 64},
		{"words for an empty set", []uint64{0}, 0},
		{"bit at capacity", []uint64{1 << 5}, 5},
		{"top bit past capacity", []uint64{1 << 63}, 63},
	} {
		if _, err := LoadWords(c.words, c.n); err == nil {
			t.Fatalf("%s: loaded without error", c.name)
		}
	}
}

func TestSetOps(t *testing.T) {
	a := FromSlice(200, []int{1, 5, 64, 100, 150})
	b := FromSlice(200, []int{5, 64, 99, 150, 199})

	and := a.Clone()
	and.And(b)
	wantAnd := []int{5, 64, 150}
	if got := and.Slice(); !equalInts(got, wantAnd) {
		t.Errorf("And = %v, want %v", got, wantAnd)
	}
	if a.CountAnd(b) != 3 {
		t.Errorf("CountAnd = %d, want 3", a.CountAnd(b))
	}
	if got := a.Intersection(b).Slice(); !equalInts(got, wantAnd) {
		t.Errorf("Intersection = %v, want %v", got, wantAnd)
	}

	diff := a.Clone()
	diff.AndNot(b)
	if got := diff.Slice(); !equalInts(got, []int{1, 100}) {
		t.Errorf("AndNot = %v", got)
	}

	or := a.Clone()
	or.Or(b)
	if got := or.Slice(); !equalInts(got, []int{1, 5, 64, 99, 100, 150, 199}) {
		t.Errorf("Or = %v", got)
	}
}

func TestSubsetEqual(t *testing.T) {
	a := FromSlice(100, []int{1, 2, 3})
	b := FromSlice(100, []int{1, 2, 3, 4})
	if !a.SubsetOf(b) || b.SubsetOf(a) {
		t.Errorf("SubsetOf wrong")
	}
	if !a.SubsetOf(a.Clone()) {
		t.Errorf("set not subset of its clone")
	}
	if a.Equal(b) {
		t.Errorf("unequal sets reported Equal")
	}
	c := a.Clone()
	if !a.Equal(c) {
		t.Errorf("clone not Equal")
	}
	c.Add(99)
	if a.Equal(c) {
		t.Errorf("Equal after divergence")
	}
}

func TestCopyFrom(t *testing.T) {
	a := FromSlice(100, []int{1, 2, 3})
	b := New(100)
	b.CopyFrom(a)
	if !b.Equal(a) {
		t.Fatalf("CopyFrom mismatch")
	}
	b.Add(50)
	if a.Contains(50) {
		t.Fatalf("CopyFrom aliases storage")
	}
}

func TestCapacityMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("And with mismatched capacity did not panic")
		}
	}()
	New(10).And(New(20))
}

func TestForEachEarlyStop(t *testing.T) {
	s := FromSlice(100, []int{3, 10, 40, 80})
	var seen []int
	s.ForEach(func(v int) bool {
		seen = append(seen, v)
		return len(seen) < 2
	})
	if !equalInts(seen, []int{3, 10}) {
		t.Errorf("early stop visited %v", seen)
	}
}

func TestSlice32(t *testing.T) {
	s := FromSlice(100, []int{7, 64})
	got := s.Slice32()
	if len(got) != 2 || got[0] != 7 || got[1] != 64 {
		t.Errorf("Slice32 = %v", got)
	}
}

// TestQuickAgainstMap cross-checks the Set against a map[int]bool model
// under random operation sequences.
func TestQuickAgainstMap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		s := New(n)
		model := map[int]bool{}
		for op := 0; op < 500; op++ {
			v := rng.Intn(n)
			switch rng.Intn(3) {
			case 0:
				s.Add(v)
				model[v] = true
			case 1:
				s.Remove(v)
				delete(model, v)
			case 2:
				if s.Contains(v) != model[v] {
					return false
				}
			}
		}
		if s.Count() != len(model) {
			return false
		}
		want := make([]int, 0, len(model))
		for v := range model {
			want = append(want, v)
		}
		sort.Ints(want)
		return equalInts(s.Slice(), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSetAlgebra verifies De Morgan-ish identities on random sets.
func TestQuickSetAlgebra(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(500)
		a, b := New(n), New(n)
		for i := 0; i < n/2; i++ {
			a.Add(rng.Intn(n))
			b.Add(rng.Intn(n))
		}
		// |a| = |a∩b| + |a−b|
		diff := a.Clone()
		diff.AndNot(b)
		if a.Count() != a.CountAnd(b)+diff.Count() {
			return false
		}
		// |a∪b| = |a| + |b| − |a∩b|
		or := a.Clone()
		or.Or(b)
		if or.Count() != a.Count()+b.Count()-a.CountAnd(b) {
			return false
		}
		// (a∩b) ⊆ a and (a∩b) ⊆ b
		and := a.Intersection(b)
		return and.SubsetOf(a) && and.SubsetOf(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
