package encoding

import (
	"fmt"
	"math/big"
	"math/bits"
)

// Binomial coefficients and the fixed-width big-integer fields of the
// subset code (subsetcode.go). A w-subset of [0, m) costs ⌈log2 C(m, w)⌉
// bits: this is exactly the "encode them as a set" batching device of the
// Section 5 protocol, where a player with z_i/k fresh zero coordinates
// inside the live set Z_i pays an amortized Θ(log k) bits per coordinate
// instead of the naive Θ(log n).

// Binomial returns C(n, k) as a big integer (0 when k < 0 or k > n).
func Binomial(n, k int) *big.Int {
	if k < 0 || k > n || n < 0 {
		return big.NewInt(0)
	}
	return new(big.Int).Binomial(int64(n), int64(k))
}

// BinomialBitLen returns ⌈log2 C(n, k)⌉, the exact bit cost of transmitting
// one w-subset rank.
func BinomialBitLen(n, k int) (int, error) {
	c := Binomial(n, k)
	if c.Sign() == 0 {
		return 0, fmt.Errorf("encoding: C(%d,%d) is zero", n, k)
	}
	// ⌈log2 c⌉ = bitlen(c-1) for c >= 1.
	cm1 := new(big.Int).Sub(c, big.NewInt(1))
	return cm1.BitLen(), nil
}

// writeBigInt writes v as exactly width bits, MSB first, one machine word
// at a time.
func writeBigInt(w *BitWriter, v *big.Int, width int) error {
	if v.Sign() < 0 {
		return fmt.Errorf("encoding: negative big integer")
	}
	if v.BitLen() > width {
		return fmt.Errorf("encoding: value needs %d bits, budget %d", v.BitLen(), width)
	}
	words := v.Bits()
	for i := (width+bits.UintSize-1)/bits.UintSize - 1; i >= 0; i-- {
		var x uint64
		if i < len(words) {
			x = uint64(words[i])
		}
		if err := w.WriteBits(x, min(bits.UintSize, width-i*bits.UintSize)); err != nil {
			return err
		}
	}
	return nil
}

// readBigInt reads exactly width bits, MSB first, into v, one machine word
// at a time and reusing v's storage.
func readBigInt(r *BitReader, width int, v *big.Int) error {
	if r.Remaining() < width {
		return fmt.Errorf("encoding: %d-bit integer past end of bit stream (%d bits left)", width, r.Remaining())
	}
	n := (width + bits.UintSize - 1) / bits.UintSize
	words := v.Bits()
	if cap(words) < n {
		words = make([]big.Word, n)
	}
	words = words[:n]
	for i := n - 1; i >= 0; i-- {
		x, err := r.ReadBits(min(bits.UintSize, width-i*bits.UintSize))
		if err != nil {
			return err
		}
		words[i] = big.Word(x)
	}
	v.SetBits(words)
	return nil
}
