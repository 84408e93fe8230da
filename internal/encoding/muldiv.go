package encoding

import (
	"fmt"
	"math/big"
	"math/bits"
)

// The word kernel of the subset code's ratio walks.
//
// Every step of a split walk or a binomial walk multiplies a big integer by
// one word and divides it by another, and the division is exact. A
// division known to be exact needs no reciprocal and no remainder: for odd
// d, x/d is x·d⁻¹ mod 2^(W·len) (Hensel, Jebelean; GMP's divexact_1), which
// runs low to high, so the multiply, the division and the shift by the
// power of two in den all fit in one pass over the words.

// mulDivExact sets z = x·num/den for x >= 0 and one-word num and den >= 1,
// where den divides x·num. It makes one low-to-high pass over x's words:
// each word is multiplied by num, divided exactly by the odd part d of
// den = 2^s·d through d⁻¹ mod 2^W, and shifted right by s one word behind,
// straight into z's storage. z may be x. It panics if den does not divide
// x·num.
func mulDivExact(z, x *big.Int, num, den uint) {
	if x.Sign() < 0 || den == 0 {
		panic(fmt.Sprintf("encoding: mulDivExact of %v·%d/%d", x, num, den))
	}
	xs := x.Bits()
	n := len(xs)
	if n == 0 {
		z.SetUint64(0)
		return
	}
	s := bits.TrailingZeros(den)
	d := den >> s
	inv := inverseOdd(d)
	zs := z.Bits()
	if cap(zs) <= n {
		zs = make([]big.Word, n+1, 2*n+4)
	}
	zs = zs[:n+1]

	// Word i of x·num is a = lo(x[i]·num + mc). With the borrow c owed by
	// the words below, q = (a − c)·d⁻¹ is word i of x·num/d. Rotated right
	// by s, q holds its top bits under keep and its low s bits above it:
	// the former are word i of the result, the latter the top of word
	// i−1, which is written once q is known, one word behind the read.
	// That makes z == x safe.
	keep := ^uint(0) >> s
	a, mc := mulWord(uint(xs[0]), num, 0)
	prev, c := divWord(a, 0, d, inv)
	prev = bits.RotateLeft(prev, -s)
	if prev&^keep != 0 { // the shift would drop set bits
		inexact(num, den)
	}
	for i, xw := range xs[1:] {
		var q uint
		a, mc = mulWord(uint(xw), num, mc)
		q, c = divWord(a, c, d, inv)
		q = bits.RotateLeft(q, -s)
		zs[i] = big.Word(prev&keep | q&^keep)
		prev = q
	}
	// The top word of x·num is the last multiply carry. The borrow it
	// leaves is zero exactly when d divides x·num.
	q, c := divWord(mc, c, d, inv)
	if c != 0 {
		inexact(num, den)
	}
	q = bits.RotateLeft(q, -s)
	zs[n-1] = big.Word(prev&keep | q&^keep)
	zs[n] = big.Word(q & keep)
	z.SetBits(zs)
}

// mulWord returns the low and high words of x·y + carry.
func mulWord(x, y, carry uint) (lo, hi uint) {
	hi, lo = bits.Mul(x, y)
	lo, cc := bits.Add(lo, carry, 0)
	return lo, hi + cc
}

// divWord divides a − c exactly by the odd d with inv = d⁻¹ mod 2^W,
// returning the quotient word q and the borrow hi(q·d) (+1 if a < c) the
// next word owes: q·d overshoots a − c by exactly that many 2^W.
func divWord(a, c, d, inv uint) (q, borrow uint) {
	l, b := bits.Sub(a, c, 0)
	q = l * inv
	qh, _ := bits.Mul(q, d)
	return q, qh + b
}

func inexact(num, den uint) {
	panic(fmt.Sprintf("encoding: inexact ratio step: %d does not divide x·%d", den, num))
}

// inverseOdd returns d⁻¹ mod 2^W for odd d by Newton's iteration, which
// doubles the correct low bits per step; 3d XOR 2 is right in five.
func inverseOdd(d uint) uint {
	inv := 3*d ^ 2
	for ok := 5; ok < bits.UintSize; ok *= 2 {
		inv *= 2 - d*inv
	}
	return inv
}
