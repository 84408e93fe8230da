package encoding

import (
	"fmt"
	"math/big"
)

// Reference subset codes, kept as test oracles for SubsetCode. Both are
// bijections between the w-subsets of [0, m) and [0, C(m, w)), computed the
// simple way:
//
//   - SubsetRank/SubsetUnrank: the colexicographic combinatorial number
//     system rank = Σ_j C(subset[j], j+1), which SubsetCode's leaves follow;
//   - EnumerativeRank/EnumerativeUnrank: the lexicographic enumerative code
//     (Cover, IEEE Trans. IT, 1973), one exact multiply and divide per
//     universe element.

// SubsetRank maps a strictly increasing w-subset of [0, m) to its colex
// rank in [0, C(m, w)).
func SubsetRank(m int, subset []int) (*big.Int, error) {
	w := len(subset)
	if w > m {
		return nil, fmt.Errorf("encoding: subset of size %d over universe %d", w, m)
	}
	rank := new(big.Int)
	prev := -1
	for j, v := range subset {
		if v <= prev || v < 0 || v >= m {
			return nil, fmt.Errorf("encoding: subset not strictly increasing in [0,%d): %v", m, subset)
		}
		prev = v
		rank.Add(rank, Binomial(v, j+1))
	}
	return rank, nil
}

// SubsetUnrank inverts SubsetRank.
func SubsetUnrank(m, w int, rank *big.Int) ([]int, error) {
	if w < 0 || w > m {
		return nil, fmt.Errorf("encoding: subset size %d outside [0,%d]", w, m)
	}
	total := Binomial(m, w)
	if rank.Sign() < 0 || rank.Cmp(total) >= 0 {
		return nil, fmt.Errorf("encoding: rank %v outside [0, C(%d,%d)=%v)", rank, m, w, total)
	}
	out := make([]int, w)
	r := new(big.Int).Set(rank)
	v := m - 1
	for j := w; j >= 1; j-- {
		// Find the largest v with C(v, j) <= r.
		for v >= 0 && Binomial(v, j).Cmp(r) > 0 {
			v--
		}
		if v < 0 {
			return nil, fmt.Errorf("encoding: unrank failed at position %d", j)
		}
		out[j-1] = v
		r.Sub(r, Binomial(v, j))
		v--
	}
	if r.Sign() != 0 {
		return nil, fmt.Errorf("encoding: unrank residual %v", r)
	}
	return out, nil
}

// EnumerativeRank maps a strictly increasing w-subset of [0, m) to its
// lexicographic rank in [0, C(m, w)). The binomial is updated with one
// exact multiply/divide per universe step:
//
//	C(a−1, b)   = C(a, b) · (a−b) / a
//	C(a−1, b−1) = C(a, b) · b / a
func EnumerativeRank(m int, subset []int) (*big.Int, error) {
	w := len(subset)
	if w > m || m < 0 {
		return nil, fmt.Errorf("encoding: subset of size %d over universe %d", w, m)
	}
	rank := new(big.Int)
	if w == 0 {
		return rank, nil
	}
	prev := -1
	for _, p := range subset {
		if p <= prev || p < 0 || p >= m {
			return nil, fmt.Errorf("encoding: subset not strictly increasing in [0,%d): %v", m, subset)
		}
		prev = p
	}
	// cur = C(m-v-1, r-1) as v scans the universe.
	r := w
	cur := new(big.Int).Binomial(int64(m-1), int64(w-1))
	idx := 0
	for v := 0; v < m && r > 0; v++ {
		a := int64(m - v - 1) // cur = C(a, r-1) before the update below
		if idx < w && subset[idx] == v {
			// v selected: next cur = C(a-1, r-2) = cur·(r-1)/a.
			idx++
			r--
			if r > 0 && a > 0 {
				scaleExact(cur, int64(r), a)
			}
			continue
		}
		// v skipped: all subsets containing v at this point precede ours.
		rank.Add(rank, cur)
		// next cur = C(a-1, r-1) = cur·(a-(r-1))/a.
		if a > 0 {
			scaleExact(cur, a-int64(r-1), a)
		}
	}
	if idx != w {
		return nil, fmt.Errorf("encoding: enumerative rank consumed %d of %d elements", idx, w)
	}
	return rank, nil
}

// EnumerativeUnrank inverts EnumerativeRank.
func EnumerativeUnrank(m, w int, rank *big.Int) ([]int, error) {
	if w < 0 || w > m {
		return nil, fmt.Errorf("encoding: subset size %d outside [0,%d]", w, m)
	}
	if rank.Sign() < 0 || rank.Cmp(Binomial(m, w)) >= 0 {
		return nil, fmt.Errorf("encoding: rank %v outside [0, C(%d,%d))", rank, m, w)
	}
	out := make([]int, 0, w)
	if w == 0 {
		return out, nil
	}
	r := w
	rem := new(big.Int).Set(rank)
	cur := new(big.Int).Binomial(int64(m-1), int64(w-1))
	for v := 0; v < m && r > 0; v++ {
		a := int64(m - v - 1)
		if rem.Cmp(cur) < 0 {
			out = append(out, v)
			r--
			if r > 0 && a > 0 {
				scaleExact(cur, int64(r), a)
			}
			continue
		}
		rem.Sub(rem, cur)
		if a > 0 {
			scaleExact(cur, a-int64(r-1), a)
		}
	}
	if len(out) != w {
		return nil, fmt.Errorf("encoding: enumerative unrank produced %d of %d elements", len(out), w)
	}
	return out, nil
}

// scaleExact sets x = x·num/den for a division known to be exact.
func scaleExact(x *big.Int, num, den int64) {
	x.Mul(x, big.NewInt(num))
	x.Quo(x, big.NewInt(den))
}
