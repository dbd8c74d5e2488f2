// Package coverage maintains the temporary top-k diversified result set R
// of the DCCS algorithms, implementing the Update procedure of the paper's
// Appendix C together with the quantities the pruning lemmas consume:
// |Cov(R)|, Δ(R, C′) (the vertices exclusively covered by member C′),
// C*(R) = argmin |Δ|, a candidate's marginal gain |C − Cov(R)|, and the
// Eq. (1)/Eq. (2) tests.
//
// R keeps its coverage three ways, in step:
//
//   - per vertex v, a mask over the k member slots that cover it (the
//     paper's pair of hash tables, as bits);
//   - the bitset covered = Cov(R) = {v : mask(v) ≠ 0};
//   - the bitset once = {v : mask(v) has exactly one bit}, so that
//     Δ(R, C′) = C′ ∩ once for every member C′.
//
// Candidates arrive as bitsets over the same vertex ids, and each member
// keeps its candidate bitset beside its sorted vertex list. The questions
// the search asks of every candidate C are then popcounts over n/64
// words, whatever |C| is:
//
//	Gain(C)     = |C − Cov(R)|
//	SizeWith(C) = |Cov((R − {C*}) ∪ {C})|
//	            = |C − Cov(R)| + |C ∩ C* ∩ once| + |Cov(R)| − |Δ(R, C*)|
//
// — the vertices C adds, plus the vertices of Δ(R, C*) it keeps covered,
// on top of what stays covered when C* leaves. Eq. (1) compares
// SizeWith(C) with (1 + 1/k)·|Cov(R)|.
//
// A candidate becomes a vertex list only when Update inserts it, in the
// same pass over its words that moves it into Cov(R) and once (C − Cov(R)
// joins both, C ∩ once leaves once). That pass sets C's bit in each of
// its vertices' masks and, for each vertex leaving once, lowers the Δ of
// the member that covered it alone. Delete walks C*'s vertex list: a
// vertex's mask popcount after its bit is cleared says whether it leaves
// Cov(R) and once (0) or joins once (1), and whose Δ rises. Each vertex
// costs O(1), so the bitsets and every Δ stay exact and the membership
// change is the O(max{|C|, |C*(R)|}) of Appendix C. On top of it,
// Update reads the n/64 words of C once for Eq. (1) and once for the
// insert.
package coverage

import (
	"math/bits"

	"repro/internal/bitset"
)

// Entry is one member of the result set: a candidate d-CC with the layer
// subset it was computed from.
type Entry struct {
	Vertices []int32     // sorted vertex ids
	Layers   []int       // sorted layer ids (w.r.t. the original layer order)
	Set      *bitset.Set // Vertices as the candidate bitset Update was given
}

// TopK is the diversified top-k result set R. Create with New.
type TopK struct {
	n, k      int
	stride    int      // uint64 words per vertex mask
	cover     []uint64 // cover[v*stride : (v+1)*stride] = member slots covering v
	covered   []uint64 // bitset words of Cov(R) = {v : mask(v) ≠ 0}
	once      []uint64 // bitset words of {v : mask(v) has exactly one bit}
	coverSize int      // |Cov(R)|
	entries   []*Entry // slot -> entry, nil when free
	delta     []int    // slot -> |Δ(R, entry)|
	free      []int    // free slot ids
	size      int      // |R|
}

// New returns an empty TopK over vertex ids [0, n) holding at most k
// entries. k must be positive.
func New(n, k int) *TopK {
	if k <= 0 {
		panic("coverage: k must be positive")
	}
	stride := (k + 63) / 64
	t := &TopK{
		n:       n,
		k:       k,
		stride:  stride,
		cover:   make([]uint64, n*stride),
		covered: make([]uint64, (n+63)/64),
		once:    make([]uint64, (n+63)/64),
		entries: make([]*Entry, k),
		delta:   make([]int, k),
	}
	for slot := k - 1; slot >= 0; slot-- {
		t.free = append(t.free, slot)
	}
	return t
}

// Clone returns an independent copy of the result set: subsequent
// Updates on either copy do not affect the other. The parallel DCCS
// engine clones the post-initialization set into each search subtree.
// Entry structs are shared — they are immutable once inserted (callers
// already may not modify retained vertex slices and bitsets).
func (t *TopK) Clone() *TopK {
	return &TopK{
		n:         t.n,
		k:         t.k,
		stride:    t.stride,
		cover:     append([]uint64(nil), t.cover...),
		covered:   append([]uint64(nil), t.covered...),
		once:      append([]uint64(nil), t.once...),
		coverSize: t.coverSize,
		entries:   append([]*Entry(nil), t.entries...),
		delta:     append([]int(nil), t.delta...),
		free:      append([]int(nil), t.free...),
		size:      t.size,
	}
}

// Len returns |R|, the number of entries currently held.
func (t *TopK) Len() int { return t.size }

// K returns the capacity k.
func (t *TopK) K() int { return t.k }

// CoverSize returns |Cov(R)|.
func (t *TopK) CoverSize() int { return t.coverSize }

// Entries returns the current members in slot order. The returned entries
// are owned by the TopK and must not be modified.
func (t *TopK) Entries() []*Entry {
	out := make([]*Entry, 0, t.size)
	for _, e := range t.entries {
		if e != nil {
			out = append(out, e)
		}
	}
	return out
}

// mask returns the member-slot mask words of vertex v.
func (t *TopK) mask(v int) []uint64 { return t.cover[v*t.stride : (v+1)*t.stride] }

func popcount(words []uint64) int {
	c := 0
	for _, w := range words {
		c += bits.OnesCount64(w)
	}
	return c
}

// soleOwner returns the only set bit position; callers guarantee exactly
// one bit is set.
func soleOwner(words []uint64) int {
	for i, w := range words {
		if w != 0 {
			return i*64 + bits.TrailingZeros64(w)
		}
	}
	panic("coverage: soleOwner on empty mask")
}

// words returns the words of candidate c, which must range over [0, n).
func (t *TopK) words(c *bitset.Set) []uint64 {
	if c.Cap() != t.n {
		panic("coverage: candidate capacity differs from n")
	}
	return c.Words()
}

// MinDeltaSlot returns the slot of C*(R) — the member exclusively covering
// the fewest vertices — and |Δ(R, C*(R))|. It requires |R| > 0.
func (t *TopK) MinDeltaSlot() (slot, delta int) {
	slot = -1
	for s, e := range t.entries {
		if e != nil && (slot == -1 || t.delta[s] < delta) {
			slot, delta = s, t.delta[s]
		}
	}
	if slot == -1 {
		panic("coverage: MinDeltaSlot on empty R")
	}
	return slot, delta
}

// MinDelta returns |Δ(R, C*(R))|, or 0 when R is empty.
func (t *TopK) MinDelta() int {
	if t.size == 0 {
		return 0
	}
	_, d := t.MinDeltaSlot()
	return d
}

// Gain returns |C − Cov(R)|, the number of vertices candidate C would
// newly cover: the marginal gain of InitTopK's and the merge's greedy
// picks.
func (t *TopK) Gain(c *bitset.Set) int {
	g := 0
	for i, w := range t.words(c) {
		g += bits.OnesCount64(w &^ t.covered[i])
	}
	return g
}

// SizeWith returns |Cov((R − {C*(R)}) ∪ {C})| for candidate C, the
// paper's Size procedure. It requires |R| > 0.
func (t *TopK) SizeWith(c *bitset.Set) int {
	star, starDelta := t.MinDeltaSlot()
	return t.sizeWith(c, star, starDelta)
}

// sizeWith is SizeWith against C* in slot star with |Δ(R, C*)| =
// starDelta. C − Cov(R) and C ∩ Δ(R, C*) are disjoint, so one popcount
// counts them together as C − (Cov(R) − Δ(R, C*)), with Δ(R, C*) =
// C* ∩ once.
func (t *TopK) sizeWith(c *bitset.Set, star, starDelta int) int {
	sw := t.entries[star].Set.Words()
	n := 0
	for i, w := range t.words(c) {
		n += bits.OnesCount64(w &^ (t.covered[i] &^ (sw[i] & t.once[i])))
	}
	return n + t.coverSize - starDelta
}

// eq1Holds reports whether a candidate replacement coverage size satisfies
// Eq. (1): size ≥ (1 + 1/k)·|Cov(R)|, evaluated in integers.
func (t *TopK) eq1Holds(sizeWith int) bool {
	return t.k*sizeWith >= (t.k+1)*t.coverSize
}

// SatisfiesEq1 reports whether candidate C satisfies Eq. (1), i.e. whether
// Rule 2 would admit it when |R| = k. When |R| < k it reports true (Rule 1
// always admits).
func (t *TopK) SatisfiesEq1(c *bitset.Set) bool {
	if t.size < t.k {
		return true
	}
	return t.eq1Holds(t.SizeWith(c))
}

// MeetsSizeBound reports whether a candidate of the given cardinality can
// possibly satisfy Eq. (1): size ≥ |Cov(R)|/k + |Δ(R, C*(R))| (Lemmas 3
// and 6). When |R| < k it reports true.
func (t *TopK) MeetsSizeBound(size int) bool {
	if t.size < t.k {
		return true
	}
	return t.k*size >= t.coverSize+t.k*t.MinDelta()
}

// SatisfiesEq2 reports whether a potential vertex set of the given
// cardinality satisfies Eq. (2):
// size < (1/k + 1/k²)·|Cov(R)| + (1 + 1/k)·|Δ(R, C*(R))|,
// the Lemma 7 precondition for the random-descendant shortcut. It reports
// false when |R| < k (the lemma only applies to a full R).
func (t *TopK) SatisfiesEq2(size int) bool {
	if t.size < t.k {
		return false
	}
	k := t.k
	return k*k*size < (k+1)*t.coverSize+(k*k+k)*t.MinDelta()
}

// Update tries to add candidate C to R following the paper's two rules:
// Rule 1 inserts while |R| < k; Rule 2 replaces C*(R) when Eq. (1) holds.
// It reports whether R changed. An inserted C and layers are retained;
// callers must not modify them afterwards.
func (t *TopK) Update(c *bitset.Set, layers []int) bool {
	if t.size == t.k {
		star, starDelta := t.MinDeltaSlot()
		if !t.eq1Holds(t.sizeWith(c, star, starDelta)) {
			return false
		}
		t.deleteSlot(star)
	}
	t.insert(c, layers)
	return true
}

func (t *TopK) insert(c *bitset.Set, layers []int) {
	slot := t.free[len(t.free)-1]
	t.free = t.free[:len(t.free)-1]
	e := &Entry{Vertices: make([]int32, 0, c.Count()), Layers: layers, Set: c}
	w, b := slot/64, uint64(1)<<(uint(slot)%64)
	for i, cw := range t.words(c) {
		// Vertices of C covered by one member lose it from that
		// member's Δ; read their masks before C's bit joins them.
		for x := cw & t.once[i]; x != 0; x &= x - 1 {
			t.delta[soleOwner(t.mask(i*64+bits.TrailingZeros64(x)))]--
		}
		fresh := cw &^ t.covered[i] // C − Cov(R): covered by C alone
		t.delta[slot] += bits.OnesCount64(fresh)
		t.coverSize += bits.OnesCount64(fresh)
		t.covered[i] |= cw
		t.once[i] = t.once[i]&^cw | fresh
		for x := cw; x != 0; x &= x - 1 {
			v := i*64 + bits.TrailingZeros64(x)
			t.cover[v*t.stride+w] |= b
			e.Vertices = append(e.Vertices, int32(v))
		}
	}
	t.entries[slot] = e
	t.size++
}

func (t *TopK) deleteSlot(slot int) {
	e := t.entries[slot]
	w, b := slot/64, uint64(1)<<(uint(slot)%64)
	for _, v32 := range e.Vertices {
		v := int(v32)
		m := t.mask(v)
		m[w] &^= b
		i, vb := v/64, uint64(1)<<(uint(v)%64)
		switch popcount(m) {
		case 0:
			t.covered[i] &^= vb
			t.once[i] &^= vb
			t.coverSize--
		case 1:
			t.once[i] |= vb
			t.delta[soleOwner(m)]++
		}
	}
	t.entries[slot] = nil
	t.delta[slot] = 0
	t.free = append(t.free, slot)
	t.size--
}

// Delta returns |Δ(R, C′)| for the entry in the given slot position of
// Entries(); exposed for tests and statistics.
func (t *TopK) Delta(i int) int {
	j := 0
	for s, e := range t.entries {
		if e != nil {
			if j == i {
				return t.delta[s]
			}
			j++
		}
	}
	panic("coverage: Delta index out of range")
}
