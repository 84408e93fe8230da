// Package bitvec implements dense bit vectors over a universe [0, n).
//
// Bit vectors are the input substrate of the repository: a k-party set
// disjointness instance is k bit vectors over [n], and the Section 5
// protocol manipulates sets of "coordinates not yet on the board" (the Z_i
// sets), per-player zero sets, batch subsets, and their unions. All of that
// is set algebra over [n], so it lives here.
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
	"sync"
)

const wordBits = 64

// Vector is a fixed-length bit vector over the universe [0, n). The zero
// value is an empty vector over the empty universe.
type Vector struct {
	n     int
	words []uint64
}

// New returns an all-zero Vector over [0, n). n must be non-negative.
func New(n int) (*Vector, error) {
	if n < 0 {
		return nil, fmt.Errorf("bitvec: negative length %d", n)
	}
	return &Vector{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}, nil
}

// MustNew is New for static, known-good lengths (tests, examples).
func MustNew(n int) *Vector {
	v, err := New(n)
	if err != nil {
		panic(err)
	}
	return v
}

// FromIndices returns a Vector over [0, n) with exactly the given indices
// set. Duplicate indices are allowed; out-of-range indices are an error.
func FromIndices(n int, indices []int) (*Vector, error) {
	v, err := New(n)
	if err != nil {
		return nil, err
	}
	for _, i := range indices {
		if err := v.Set(i); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// Len returns the universe size n.
func (v *Vector) Len() int { return v.n }

// Set sets bit i.
func (v *Vector) Set(i int) error {
	if i < 0 || i >= v.n {
		return fmt.Errorf("bitvec: index %d out of range [0,%d)", i, v.n)
	}
	v.words[i/wordBits] |= 1 << (uint(i) % wordBits)
	return nil
}

// Clear clears bit i.
func (v *Vector) Clear(i int) error {
	if i < 0 || i >= v.n {
		return fmt.Errorf("bitvec: index %d out of range [0,%d)", i, v.n)
	}
	v.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
	return nil
}

// Get reports whether bit i is set. Out-of-range indices report false.
func (v *Vector) Get(i int) bool {
	if i < 0 || i >= v.n {
		return false
	}
	return v.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Count returns the number of set bits (the set's cardinality).
func (v *Vector) Count() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clone returns an independent copy of v.
func (v *Vector) Clone() *Vector {
	w := &Vector{n: v.n, words: make([]uint64, len(v.words))}
	copy(w.words, v.words)
	return w
}

// CopyFrom makes v an exact copy of u, reusing v's word storage when it is
// large enough: the allocation-free counterpart of Clone for callers that
// own a scratch vector. The universe sizes need not match beforehand.
func (v *Vector) CopyFrom(u *Vector) {
	v.n = u.n
	if cap(v.words) < len(u.words) {
		v.words = make([]uint64, len(u.words))
	}
	v.words = v.words[:len(u.words)]
	copy(v.words, u.words)
}

// Reset reshapes v to an all-zero vector over [0, n), reusing its word
// storage when possible.
func (v *Vector) Reset(n int) error {
	if n < 0 {
		return fmt.Errorf("bitvec: negative length %d", n)
	}
	nw := (n + wordBits - 1) / wordBits
	if cap(v.words) < nw {
		v.words = make([]uint64, nw)
	}
	v.words = v.words[:nw]
	v.n = n
	for i := range v.words {
		v.words[i] = 0
	}
	return nil
}

// Pool recycles vectors across iterations of a hot loop (per-trial instance
// generation, repeated intersection tests). Get returns an all-zero vector
// over [0, n), reusing a released vector's storage when one is available.
// The zero value is ready to use. A Pool is safe for concurrent use; each
// vector must be used by one goroutine at a time.
type Pool struct {
	p sync.Pool
}

// Get returns an all-zero vector over [0, n).
func (pl *Pool) Get(n int) (*Vector, error) {
	if n < 0 {
		return nil, fmt.Errorf("bitvec: negative length %d", n)
	}
	v, _ := pl.p.Get().(*Vector)
	if v == nil {
		return New(n)
	}
	if err := v.Reset(n); err != nil {
		return nil, err
	}
	return v, nil
}

// Put releases v back to the pool. v must not be used afterwards.
func (pl *Pool) Put(v *Vector) {
	if v != nil {
		pl.p.Put(v)
	}
}

// SetAll sets every bit in [0, n).
func (v *Vector) SetAll() {
	for i := range v.words {
		v.words[i] = ^uint64(0)
	}
	v.maskTail()
}

// ClearAll clears every bit.
func (v *Vector) ClearAll() {
	for i := range v.words {
		v.words[i] = 0
	}
}

// maskTail zeroes the unused high bits of the final word so that Count and
// equality stay exact.
func (v *Vector) maskTail() {
	if rem := v.n % wordBits; rem != 0 && len(v.words) > 0 {
		v.words[len(v.words)-1] &= (1 << uint(rem)) - 1
	}
}

// sameUniverse returns an error unless u and v share a universe size.
func (v *Vector) sameUniverse(u *Vector) error {
	if v.n != u.n {
		return fmt.Errorf("bitvec: universe mismatch %d vs %d", v.n, u.n)
	}
	return nil
}

// And stores v ∩ u into v.
func (v *Vector) And(u *Vector) error {
	if err := v.sameUniverse(u); err != nil {
		return err
	}
	for i := range v.words {
		v.words[i] &= u.words[i]
	}
	return nil
}

// Or stores v ∪ u into v.
func (v *Vector) Or(u *Vector) error {
	if err := v.sameUniverse(u); err != nil {
		return err
	}
	for i := range v.words {
		v.words[i] |= u.words[i]
	}
	return nil
}

// AndNot stores v \ u into v.
func (v *Vector) AndNot(u *Vector) error {
	if err := v.sameUniverse(u); err != nil {
		return err
	}
	for i := range v.words {
		v.words[i] &^= u.words[i]
	}
	return nil
}

// AndNotCount returns |v \ u|, the number of bits set in v and clear in
// u, without modifying either.
func (v *Vector) AndNotCount(u *Vector) (int, error) {
	if err := v.sameUniverse(u); err != nil {
		return 0, err
	}
	c := 0
	for i, w := range v.words {
		c += bits.OnesCount64(w &^ u.words[i])
	}
	return c, nil
}

// Not complements v in place.
func (v *Vector) Not() {
	for i := range v.words {
		v.words[i] = ^v.words[i]
	}
	v.maskTail()
}

// Equal reports whether u and v are identical vectors over the same
// universe.
func (v *Vector) Equal(u *Vector) bool {
	if v.n != u.n {
		return false
	}
	for i := range v.words {
		if v.words[i] != u.words[i] {
			return false
		}
	}
	return true
}

// accPool recycles the accumulator of IntersectsAll, which returns only
// scalars, so per-call trials (every generated instance is ground-truthed
// this way) allocate nothing.
var accPool Pool

// IntersectsAll reports whether the intersection of all given vectors is
// non-empty, and if so returns the smallest common index. All vectors must
// share a universe; an empty list is an error.
func IntersectsAll(vs []*Vector) (common int, nonEmpty bool, err error) {
	if len(vs) == 0 {
		return 0, false, fmt.Errorf("bitvec: IntersectsAll on empty list")
	}
	acc, err := accPool.Get(0)
	if err != nil {
		return 0, false, err
	}
	defer accPool.Put(acc)
	acc.CopyFrom(vs[0])
	for _, v := range vs[1:] {
		if err := acc.And(v); err != nil {
			return 0, false, err
		}
	}
	idx, ok := acc.NextSet(0)
	return idx, ok, nil
}

// NextSet returns the smallest set index >= from, if any.
func (v *Vector) NextSet(from int) (int, bool) {
	if from < 0 {
		from = 0
	}
	if from >= v.n {
		return 0, false
	}
	wi := from / wordBits
	w := v.words[wi] >> (uint(from) % wordBits)
	if w != 0 {
		return from + bits.TrailingZeros64(w), true
	}
	for wi++; wi < len(v.words); wi++ {
		if v.words[wi] != 0 {
			return wi*wordBits + bits.TrailingZeros64(v.words[wi]), true
		}
	}
	return 0, false
}

// Indices returns all set indices in increasing order.
func (v *Vector) Indices() []int {
	out := make([]int, 0, v.Count())
	for i, ok := v.NextSet(0); ok; i, ok = v.NextSet(i + 1) {
		out = append(out, i)
	}
	return out
}

// Rank returns the number of set bits strictly below position i. Positions
// beyond the universe count all set bits.
func (v *Vector) Rank(i int) int {
	if i <= 0 {
		return 0
	}
	if i > v.n {
		i = v.n
	}
	full := i / wordBits
	c := 0
	for w := 0; w < full; w++ {
		c += bits.OnesCount64(v.words[w])
	}
	if rem := i % wordBits; rem != 0 {
		c += bits.OnesCount64(v.words[full] & ((1 << uint(rem)) - 1))
	}
	return c
}

// SelectSet returns the position of the (r+1)-th set bit (0-indexed rank r),
// or an error if fewer than r+1 bits are set.
func (v *Vector) SelectSet(r int) (int, error) {
	if r < 0 {
		return 0, fmt.Errorf("bitvec: negative rank %d", r)
	}
	seen := 0
	for wi, w := range v.words {
		c := bits.OnesCount64(w)
		if seen+c <= r {
			seen += c
			continue
		}
		// The answer is inside this word.
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			if seen == r {
				return wi*wordBits + tz, nil
			}
			seen++
			w &= w - 1
		}
	}
	return 0, fmt.Errorf("bitvec: rank %d exceeds population %d", r, seen)
}

// String renders the vector as a 0/1 string, index 0 first. Large vectors
// are truncated for readability.
func (v *Vector) String() string {
	var b strings.Builder
	limit := v.n
	const maxRender = 128
	if limit > maxRender {
		limit = maxRender
	}
	for i := 0; i < limit; i++ {
		if v.Get(i) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	if v.n > maxRender {
		fmt.Fprintf(&b, "...(+%d)", v.n-maxRender)
	}
	return b.String()
}

var _ fmt.Stringer = (*Vector)(nil)
