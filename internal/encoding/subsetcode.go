package encoding

import (
	"fmt"
	"math/big"
	"math/bits"
	"slices"
	"sort"
)

// Divide-and-conquer subset coding.
//
// SubsetCode is a bijection between the w-subsets of [0, m) and the
// integers [0, C(m, w)), written in exactly ⌈log₂ C(m, w)⌉ bits. It splits
// the universe at h = ⌊m/2⌋. A subset S with a = |S ∩ [0, h)| gets
//
//	rank(S) = off(a) + rank(S_L)·C(m−h, w−a) + rank(S_R)
//
// where S_L = S ∩ [0, h) is ranked as an a-subset of [0, h), S_R as a
// (w−a)-subset of [h, m), and off(a) sums the Vandermonde terms
//
//	T(a') = C(h, a')·C(m−h, w−a')
//
// over the a' enumerated before a. Since Σ T(a') = C(m, w), the ranks fill
// [0, C(m, w)) exactly. The enumeration starts at the hypergeometric mean
// a₀ = round(w·h/m) and alternates outward (a₀, a₀+1, a₀−1, a₀+2, …), and
// each term is one exact single-word multiply and divide away from its
// neighbour:
//
//	T(a'+1) = T(a') · (h−a')(w−a') / ((a'+1)(m−h−w+a'+1))
//
// which the word kernel mulDivExact (muldiv.go) applies in one pass over
// the words. A split d away from a₀ costs 2d such steps, so a subset spread like a
// random one costs O(√w·b) word operations per level of the recursion and
// O(w·b) at worst (b the codeword length), against the O(m·b) of a
// lexicographic scan. Universes of at most leafSize elements use the colex
// combinatorial number system over a table of 64-bit binomials.
//
// The binomials a split needs, C(h, a₀), C(m−h, w−a₀) and C(m−h, w−a),
// are memoized per node size until m changes (node sizes depend on m
// only), so a cycle of batches over one live set computes each of them
// once, by a ratio walk from its nearest memoized neighbour.

// leafSize is the largest universe ranked directly: C(64, 32) < 2⁶³.
const leafSize = 64

// pascal[n][k] = C(n, k) for n <= leafSize (0 when k > n).
var pascal = func() (t [leafSize + 1][leafSize + 1]uint64) {
	for n := 0; n <= leafSize; n++ {
		t[n][0] = 1
		for k := 1; k <= n; k++ {
			t[n][k] = t[n-1][k-1] + t[n-1][k]
		}
	}
	return t
}()

// maxUniverse is the largest universe. It keeps every ratio factor inside
// 31 bits, so a product of two fits in one 64-bit word and each factor
// alone in one 32-bit word.
const maxUniverse = 1<<31 - 1

// SubsetCode writes the w-subsets of [0, m) in exactly ⌈log₂ C(m, w)⌉ bits.
// Build one with NewSubsetCode or Reset and keep it while (m, w) stays
// fixed: it holds C(m, w), the width, the memoized split binomials and the
// scratch integers, so steady-state Write and Read allocate nothing. A
// SubsetCode is not safe for concurrent use.
type SubsetCode struct {
	m, w  int
	total big.Int // C(m, w)
	width int     // ⌈log₂ C(m, w)⌉

	rows   []binomRow  // rows[2d+j] memoizes C(m>>d + j, ·), depth d >= 1
	levels []codeLevel // recursion scratch, one per depth
	arena  []big.Word  // backing words of the rows' binomials
	marks  []walk      // the top split's walk every markStride counts

	tmp   big.Int
	value big.Int // the rank being written or read
}

// codeLevel is the scratch of one recursion depth.
type codeLevel struct {
	left, prod, rem, quo big.Int
	walk                 walk
}

// binomRow memoizes the binomials C(n, ·) asked for at one node size.
type binomRow struct {
	n    int
	cs   []int     // memoized c, increasing
	at   []int     // vals[at[i]] = C(n, cs[i])
	vals []big.Int // append-only until reset, so pointers into it stay valid
}

// NewSubsetCode returns the code for w-subsets of [0, m).
func NewSubsetCode(m, w int) (*SubsetCode, error) {
	c := new(SubsetCode)
	if err := c.Reset(m, w); err != nil {
		return nil, err
	}
	return c, nil
}

// Reset retargets the code to w-subsets of [0, m), keeping its storage.
// The memoized binomials survive a Reset that keeps m.
func (c *SubsetCode) Reset(m, w int) error {
	if m < 0 || m > maxUniverse || w < 0 || w > m {
		return fmt.Errorf("encoding: no %d-subsets of a universe of %d", w, m)
	}
	if m != c.m || c.rows == nil {
		c.resetRows(m)
	}
	if m != c.m || w != c.w || c.total.Sign() == 0 {
		c.m, c.w = m, w
		c.marks = c.marks[:0]
		c.total.SetUint64(1)
		walkBinomial(&c.total, m, 0, min(w, m-w))
		// ⌈log₂ C⌉ is C's bit length, less one when C is a power of two.
		c.width = c.total.BitLen()
		if c.total.TrailingZeroBits() == uint(c.width-1) {
			c.width--
		}
		c.reserve()
	}
	return nil
}

// reserve sizes the integers that grow to about C(m, w) whatever the
// subset, the binomial walk's scratch and the top split's walk, so that the
// first codewords do not grow them a word at a time.
func (c *SubsetCode) reserve() {
	words := c.width/bits.UintSize + 2
	top := &c.levels[0].walk
	for _, x := range []*big.Int{&c.tmp, &top.tu, &top.td, &top.t, &top.sum} {
		if cap(x.Bits()) < words {
			x.SetBits(append(make([]big.Word, 0, words), x.Bits()...))
		}
	}
}

// resetRows sizes the rows and per-depth scratch for universe m: node sizes
// at depth d are m>>d and (m>>d)+1, and only nodes above leafSize split.
func (c *SubsetCode) resetRows(m int) {
	depth := 1
	for s := m; s > leafSize; s = (s + 1) / 2 {
		depth++
	}
	if cap(c.rows) < 2*depth {
		c.rows = append(c.rows[:cap(c.rows)], make([]binomRow, 2*depth-cap(c.rows))...)
	}
	c.rows = c.rows[:2*depth]
	for d := range depth {
		for j := range 2 {
			r := &c.rows[2*d+j]
			r.n, r.cs, r.at, r.vals = m>>d+j, r.cs[:0], r.at[:0], r.vals[:0]
		}
	}
	if len(c.levels) < depth {
		c.levels = make([]codeLevel, depth)
	}
	c.arena = c.arena[:0]
}

// Width returns the codeword length ⌈log₂ C(m, w)⌉.
func (c *SubsetCode) Width() int { return c.width }

// Write encodes a strictly increasing w-subset of [0, m) in exactly Width
// bits.
func (c *SubsetCode) Write(bw *BitWriter, subset []int) error {
	if err := c.rank(&c.value, subset); err != nil {
		return err
	}
	return writeBigInt(bw, &c.value, c.width)
}

// Read decodes one subset written by Write, appending its elements to
// dst[:0]. A stored value outside [0, C(m, w)) is an error.
func (c *SubsetCode) Read(br *BitReader, dst []int) ([]int, error) {
	if err := readBigInt(br, c.width, &c.value); err != nil {
		return dst[:0], err
	}
	return c.unrank(dst, &c.value)
}

// rank sets dst to the rank of subset.
func (c *SubsetCode) rank(dst *big.Int, subset []int) error {
	if len(subset) != c.w {
		return fmt.Errorf("encoding: subset of size %d, code is for size %d", len(subset), c.w)
	}
	prev := -1
	for _, v := range subset {
		if v <= prev || v >= c.m {
			return fmt.Errorf("encoding: subset not strictly increasing in [0,%d): %v", c.m, subset)
		}
		prev = v
	}
	c.rankNode(dst, 0, c.m, subset, 0)
	return nil
}

// unrank appends to dst[:0] the subset of the given rank.
func (c *SubsetCode) unrank(dst []int, rank *big.Int) ([]int, error) {
	if rank.Sign() < 0 || rank.Cmp(&c.total) >= 0 {
		return dst[:0], fmt.Errorf("encoding: subset rank outside [0, C(%d,%d))", c.m, c.w)
	}
	if cap(dst) < c.w {
		dst = make([]int, c.w)
	}
	dst = dst[:c.w]
	if err := c.unrankNode(dst, 0, c.m, rank, 0); err != nil {
		return dst[:0], err
	}
	return dst, nil
}

// rankNode sets dst to the rank of sub, a subset of [lo, lo+m), at
// recursion depth d.
func (c *SubsetCode) rankNode(dst *big.Int, lo, m int, sub []int, d int) {
	w := len(sub)
	if w == 0 || w == m {
		dst.SetUint64(0)
		return
	}
	if m <= leafSize {
		var r uint64
		for j, v := range sub {
			r += pascal[v-lo][j+1]
		}
		dst.SetUint64(r)
		return
	}
	h := m / 2
	a := sort.SearchInts(sub, lo+h)
	lv := &c.levels[d]
	c.rankNode(&lv.left, lo, h, sub[:a], d+1)
	c.rankNode(dst, lo+h, m-h, sub[a:], d+1)
	lv.prod.Mul(&lv.left, c.binom(d+1, m-h, w-a))
	dst.Add(dst, &lv.prod)

	// off(a): the sum of the terms of the counts enumerated before a.
	s := newSplit(m, w)
	wk := c.startWalk(d, s, func(x *walk) bool { return x.passed(s, a) })
	for {
		next, ok := wk.next(s)
		if !ok {
			panic(fmt.Sprintf("encoding: split walk of C(%d,%d) ended before count %d", m, w, a))
		}
		if next == a {
			break
		}
		c.pass(wk, d, s, next, c.term(wk, s, next))
	}
	dst.Add(dst, &wk.sum)
}

// unrankNode writes into out the w = len(out) elements of the subset of
// [lo, lo+m) whose rank is v, at recursion depth d. The root's range check
// makes v < C(m, w) at every node, so its error path is a guard only.
func (c *SubsetCode) unrankNode(out []int, lo, m int, v *big.Int, d int) error {
	w := len(out)
	if w == 0 {
		return nil
	}
	if w == m {
		for i := range out {
			out[i] = lo + i
		}
		return nil
	}
	if m <= leafSize {
		r := v.Uint64()
		x := m - 1
		for j := w; j >= 1; j-- {
			for pascal[x][j] > r {
				x--
			}
			out[j-1] = lo + x
			r -= pascal[x][j]
			x--
		}
		return nil
	}
	s := newSplit(m, w)
	lv := &c.levels[d]
	wk := c.startWalk(d, s, func(x *walk) bool { return x.sum.Cmp(v) > 0 })
	rem := lv.rem.Sub(v, &wk.sum)
	var a int
	for {
		next, ok := wk.next(s)
		if !ok {
			return fmt.Errorf("encoding: rank exceeds C(%d,%d) at a split", m, w)
		}
		t := c.term(wk, s, next)
		if rem.Cmp(t) < 0 {
			a = next
			break
		}
		rem.Sub(rem, t)
		if d > 0 {
			t = nil // only the top node's walk is resumed from its sum
		}
		c.pass(wk, d, s, next, t)
	}
	h := s.h
	lv.quo.QuoRem(rem, c.binom(d+1, m-h, w-a), rem)
	if err := c.unrankNode(out[:a], lo, h, &lv.quo, d+1); err != nil {
		return err
	}
	return c.unrankNode(out[a:], lo+h, m-h, rem, d+1)
}

// split is the shape of one divide step: h elements left, m−h right, and
// a left count in [amin, amax], enumerated from a0.
type split struct {
	m, w, h        int
	a0, amin, amax int
	rightFree      int // m−h−w: right-half slots a subset leaves empty when a = 0
}

func newSplit(m, w int) split {
	h := m / 2
	return split{
		m: m, w: w, h: h,
		a0:        int((2*int64(w)*int64(h) + int64(m)) / (2 * int64(m))),
		amin:      max(0, w-(m-h)),
		amax:      min(w, h),
		rightFree: m - h - w,
	}
}

// walk enumerates the left counts of one split in code order, a₀, a₀+1,
// a₀−1, a₀+2, … within [amin, amax], summing the terms T(a') of the counts
// it has passed.
type walk struct {
	u, dn   int     // counts passed above and below a₀
	started bool    // a₀ passed
	tu, td  big.Int // T(a₀+u) and T(a₀−dn)
	t       big.Int // the term computed last
	sum     big.Int // Σ T(a') over the counts passed
}

// passed reports whether the walk has passed count a.
func (w *walk) passed(s split, a int) bool {
	switch {
	case a > s.a0:
		return w.u >= a-s.a0
	case a < s.a0:
		return w.dn >= s.a0-a
	}
	return w.started
}

// next returns the count the walk reaches next, or ok=false when it has
// passed them all.
func (w *walk) next(s split) (a int, ok bool) {
	if !w.started {
		return s.a0, true
	}
	up, down := s.a0+w.u+1, s.a0-w.dn-1
	switch {
	case up <= s.amax && (w.u <= w.dn || down < s.amin):
		return up, true
	case down >= s.amin:
		return down, true
	}
	return 0, false
}

// term returns T(a) for a = w.next(s), one exact ratio step from the last
// term on a's side.
func (c *SubsetCode) term(w *walk, s split, a int) *big.Int {
	switch {
	case a > s.a0: // T(a) = T(a−1) · (h−a+1)(w−a+1) / (a(m−h−w+a))
		ratio(&w.t, &w.tu, s.h-a+1, s.w-a+1, a, s.rightFree+a)
	case a < s.a0: // T(a) = T(a+1) · (a+1)(m−h−w+a+1) / ((h−a)(w−a))
		ratio(&w.t, &w.td, a+1, s.rightFree+a+1, s.h-a, s.w-a)
	default:
		return &w.tu
	}
	return &w.t
}

// pass adds t = T(a), a = w.next(s), to the walk's sum and moves past a. At
// the top node it records the walk's state every markStride counts. A nil t
// leaves the sum alone, for a walk whose sum is not read again.
func (c *SubsetCode) pass(w *walk, d int, s split, a int, t *big.Int) {
	if t != nil {
		w.sum.Add(&w.sum, t)
	}
	switch {
	case a > s.a0:
		w.u++
		w.tu, w.t = w.t, w.tu // swap storage: t becomes the new T(a₀+u)
	case a < s.a0:
		w.dn++
		w.td, w.t = w.t, w.td
	default:
		w.started = true
	}
	if n := w.u + w.dn + 1; d == 0 && n == len(c.marks)*markStride {
		c.marks = extend(c.marks)
		c.marks[len(c.marks)-1].set(w)
	}
}

// markStride is the spacing, in counts passed, of the top node's saved walk
// states.
const markStride = 32

// startWalk returns the depth-d scratch walk positioned before a₀, or, at
// the top node, at the last saved state for which past reports false. The
// top node's split is the same for every subset coded with (m, w), so its
// walk is shared: a Write and the Read of the same codeword, and every later
// codeword of the cycle, resume within markStride counts of their target.
func (c *SubsetCode) startWalk(d int, s split, past func(*walk) bool) *walk {
	w := &c.levels[d].walk
	if d > 0 || len(c.marks) == 0 {
		w.u, w.dn, w.started = 0, 0, false
		w.tu.Mul(c.binom(d+1, s.h, s.a0), c.binom(d+1, s.m-s.h, s.w-s.a0))
		w.td.Set(&w.tu)
		w.sum.SetUint64(0)
		if d == 0 {
			c.marks = extend(c.marks)
			c.marks[0].set(w)
		}
		return w
	}
	w.set(&c.marks[sort.Search(len(c.marks), func(i int) bool { return past(&c.marks[i]) })-1])
	return w
}

// set copies x's position and sums into w.
func (w *walk) set(x *walk) {
	w.u, w.dn, w.started = x.u, x.dn, x.started
	w.tu.Set(&x.tu)
	w.td.Set(&x.td)
	w.sum.Set(&x.sum)
}

// ratio sets dst = x·(n1·n2)/(d1·d2), a division the callers know to be
// exact. Every factor is at least 1 and at most maxUniverse. With 64-bit
// words it is one mulDivExact pass. With 32-bit words the products need
// two words, so the factors go in one word at a time; each step is still
// exact, since d1 divides x·n1·n2 and then d2 divides x·n1·n2/d1.
func ratio(dst, x *big.Int, n1, n2, d1, d2 int) {
	if bits.UintSize == 64 {
		mulDivExact(dst, x, uint(n1)*uint(n2), uint(d1)*uint(d2))
		return
	}
	mulDivExact(dst, x, uint(n1), 1)
	mulDivExact(dst, dst, uint(n2), uint(d1))
	mulDivExact(dst, dst, 1, uint(d2))
}

// binom returns C(n, k) for a node size n at depth d, from the memo row of
// n or one exact ratio walk from its nearest memoized neighbour (or from
// C(n, 0) = C(n, n) = 1). The result is shared: callers must not modify it.
func (c *SubsetCode) binom(d, n, k int) *big.Int {
	row := &c.rows[2*d+n-c.m>>d]
	i, ok := slices.BinarySearch(row.cs, k)
	if ok {
		return &row.vals[row.at[i]]
	}
	lo, hi := 0, n
	if i > 0 {
		lo = row.cs[i-1]
	}
	if i < len(row.cs) {
		hi = row.cs[i]
	}
	x := &c.tmp
	x.SetUint64(1)
	from := lo
	if k-lo <= hi-k {
		if i > 0 {
			x.Set(&row.vals[row.at[i-1]])
		}
	} else {
		if i < len(row.cs) {
			x.Set(&row.vals[row.at[i]])
		}
		from = hi
	}
	walkBinomial(x, n, from, k)
	row.vals = c.store(row.vals, x)
	row.cs = slices.Insert(row.cs, i, k)
	row.at = slices.Insert(row.at, i, len(row.vals)-1)
	return &row.vals[len(row.vals)-1]
}

// walkBinomial turns x = C(n, j) into C(n, k) by exact ratio steps, two
// factors at a time:
//
//	C(n, j+2) = C(n, j)·(n−j)(n−j−1) / ((j+1)(j+2))
//	C(n, j−2) = C(n, j)·j(j−1) / ((n−j+1)(n−j+2))
func walkBinomial(x *big.Int, n, j, k int) {
	for ; j+2 <= k; j += 2 {
		ratio(x, x, n-j, n-j-1, j+1, j+2)
	}
	if j < k {
		ratio(x, x, n-j, 1, j+1, 1)
	}
	for ; j-2 >= k; j -= 2 {
		ratio(x, x, j, j-1, n-j+1, n-j+2)
	}
	if j > k {
		ratio(x, x, j, 1, n-j+1, 1)
	}
}

// store appends a copy of x to vals, backed by the code's arena so that a
// reused code stores binomials without allocating.
func (c *SubsetCode) store(vals []big.Int, x *big.Int) []big.Int {
	start := len(c.arena)
	c.arena = append(c.arena, x.Bits()...)
	end := len(c.arena)
	vals = extend(vals)
	vals[len(vals)-1].SetBits(c.arena[start:end:end])
	return vals
}

// extend returns s one element longer, reusing the slot an earlier reslice
// dropped so that the big.Int storage in it is recycled.
func extend[T any](s []T) []T {
	if len(s) < cap(s) {
		return s[:len(s)+1]
	}
	var zero T
	return append(s, zero)
}
