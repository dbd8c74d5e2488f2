// Package bitset provides a dense, fixed-capacity bit set over vertex
// identifiers 0..n-1. It is the workhorse vertex-set representation for the
// DCCS algorithms: d-cores, d-CC candidates, potential vertex sets and alive
// masks are all Sets, and the hot operations (intersection, membership,
// iteration, popcount) compile down to word-level arithmetic.
package bitset

import (
	"fmt"
	"math/bits"
)

const wordBits = 64

// Set is a fixed-capacity bit set. The zero value is unusable; create Sets
// with New. All mutating operations keep an exact cached cardinality so
// Count is O(1).
type Set struct {
	words []uint64
	n     int // capacity (number of addressable bits)
	count int // cached number of set bits
}

// New returns an empty set with capacity for values in [0, n).
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative capacity")
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// NewFull returns a set with capacity n containing every value in [0, n).
func NewFull(n int) *Set {
	s := New(n)
	s.Fill()
	return s
}

// LoadWords returns the set of capacity n whose backing words are words,
// bit v%64 of word v/64 standing for v, as Words returns them. The set
// adopts words without copying, so the caller must not modify them
// afterwards. It is the decoding counterpart of Words: a negative n, a
// word count other than ⌈n/64⌉ or a bit set at or beyond n is an error,
// never a panic.
func LoadWords(words []uint64, n int) (*Set, error) {
	if n < 0 {
		return nil, fmt.Errorf("bitset: negative capacity %d", n)
	}
	if want := n/wordBits + min(n%wordBits, 1); len(words) != want {
		return nil, fmt.Errorf("bitset: %d words for capacity %d, want %d", len(words), n, want)
	}
	s := &Set{words: words, n: n}
	if tail := uint(n) % wordBits; tail != 0 && words[len(words)-1]>>tail != 0 {
		return nil, fmt.Errorf("bitset: bit set at or beyond capacity %d", n)
	}
	for _, w := range words {
		s.count += bits.OnesCount64(w)
	}
	return s, nil
}

// Cap returns the capacity n the set was created with.
func (s *Set) Cap() int { return s.n }

// Count returns the number of elements in the set. O(1).
func (s *Set) Count() int { return s.count }

// Empty reports whether the set contains no elements.
func (s *Set) Empty() bool { return s.count == 0 }

// Words returns the backing words, bit v%64 of word v/64 standing for v,
// for kernels that fuse several sets in one word loop. The bits beyond
// Cap() are zero. Callers must not modify the words.
func (s *Set) Words() []uint64 { return s.words }

// Contains reports whether v is in the set.
func (s *Set) Contains(v int) bool {
	return s.words[v/wordBits]&(1<<(uint(v)%wordBits)) != 0
}

// Add inserts v into the set. It reports whether v was newly added.
func (s *Set) Add(v int) bool {
	w, b := v/wordBits, uint64(1)<<(uint(v)%wordBits)
	if s.words[w]&b != 0 {
		return false
	}
	s.words[w] |= b
	s.count++
	return true
}

// Remove deletes v from the set. It reports whether v was present.
func (s *Set) Remove(v int) bool {
	w, b := v/wordBits, uint64(1)<<(uint(v)%wordBits)
	if s.words[w]&b == 0 {
		return false
	}
	s.words[w] &^= b
	s.count--
	return true
}

// Clear removes all elements, keeping the capacity.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
	s.count = 0
}

// Reset empties s and changes its capacity to n, reusing the backing
// words when they suffice: pooled sets whose size varies between uses
// are re-dimensioned without allocating.
func (s *Set) Reset(n int) {
	if n < 0 {
		panic("bitset: negative capacity")
	}
	nw := (n + wordBits - 1) / wordBits
	if cap(s.words) < nw {
		s.words = make([]uint64, nw)
	} else {
		s.words = s.words[:nw]
		clear(s.words)
	}
	s.n, s.count = n, 0
}

// Fill inserts every value in [0, Cap()).
func (s *Set) Fill() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.trimTail()
	s.count = s.n
}

// trimTail zeroes the bits beyond capacity in the last word.
func (s *Set) trimTail() {
	if tail := uint(s.n) % wordBits; tail != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << tail) - 1
	}
}

// Clone returns an independent copy of s.
func (s *Set) Clone() *Set {
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	return &Set{words: w, n: s.n, count: s.count}
}

// CopyFrom overwrites s with the contents of t. The sets must have equal
// capacity.
func (s *Set) CopyFrom(t *Set) {
	s.mustMatch(t)
	copy(s.words, t.words)
	s.count = t.count
}

func (s *Set) mustMatch(t *Set) {
	if s.n != t.n {
		panic("bitset: capacity mismatch")
	}
}

// And replaces s with s ∩ t.
func (s *Set) And(t *Set) {
	s.mustMatch(t)
	c := 0
	for i, w := range t.words {
		s.words[i] &= w
		c += bits.OnesCount64(s.words[i])
	}
	s.count = c
}

// AndNot replaces s with s − t.
func (s *Set) AndNot(t *Set) {
	s.mustMatch(t)
	c := 0
	for i, w := range t.words {
		s.words[i] &^= w
		c += bits.OnesCount64(s.words[i])
	}
	s.count = c
}

// Or replaces s with s ∪ t.
func (s *Set) Or(t *Set) {
	s.mustMatch(t)
	c := 0
	for i, w := range t.words {
		s.words[i] |= w
		c += bits.OnesCount64(s.words[i])
	}
	s.count = c
}

// CountAnd returns |s ∩ t| without allocating.
func (s *Set) CountAnd(t *Set) int {
	s.mustMatch(t)
	c := 0
	for i, w := range t.words {
		c += bits.OnesCount64(s.words[i] & w)
	}
	return c
}

// Intersection returns a new set holding s ∩ t.
func (s *Set) Intersection(t *Set) *Set {
	r := s.Clone()
	r.And(t)
	return r
}

// SubsetOf reports whether every element of s is in t.
func (s *Set) SubsetOf(t *Set) bool {
	s.mustMatch(t)
	for i, w := range s.words {
		if w&^t.words[i] != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether s and t contain exactly the same elements.
func (s *Set) Equal(t *Set) bool {
	if s.n != t.n || s.count != t.count {
		return false
	}
	for i, w := range s.words {
		if w != t.words[i] {
			return false
		}
	}
	return true
}

// ForEach calls fn for every element in ascending order. If fn returns
// false the iteration stops early.
func (s *Set) ForEach(fn func(v int) bool) {
	for i, w := range s.words {
		base := i * wordBits
		for w != 0 {
			v := base + bits.TrailingZeros64(w)
			if !fn(v) {
				return
			}
			w &= w - 1
		}
	}
}

// Slice returns the elements in ascending order.
func (s *Set) Slice() []int {
	out := make([]int, 0, s.count)
	s.ForEach(func(v int) bool {
		out = append(out, v)
		return true
	})
	return out
}

// Slice32 returns the elements in ascending order as int32 values.
func (s *Set) Slice32() []int32 {
	out := make([]int32, 0, s.count)
	s.ForEach(func(v int) bool {
		out = append(out, int32(v))
		return true
	})
	return out
}

// FromSlice returns a new set of capacity n containing the given values.
func FromSlice(n int, vs []int) *Set {
	s := New(n)
	for _, v := range vs {
		s.Add(v)
	}
	return s
}
