package encoding

import (
	"math/big"
	"math/bits"
	"testing"

	"broadcastic/internal/rng"
)

// mulDivOracle is the two-pass ratio the kernel replaced: Mul, then Quo,
// with the remainder checked to be zero.
func mulDivOracle(t testing.TB, x *big.Int, num, den uint) *big.Int {
	t.Helper()
	var r big.Int
	q := new(big.Int).Mul(x, new(big.Int).SetUint64(uint64(num)))
	q.QuoRem(q, new(big.Int).SetUint64(uint64(den)), &r)
	if r.Sign() != 0 {
		t.Fatalf("oracle: %d does not divide %v·%d", den, x, num)
	}
	return q
}

// tight returns a copy of x whose word slice has capacity exactly its
// length, so a kernel writing one word more must grow it.
func tight(x *big.Int) *big.Int {
	ws := x.Bits()
	return new(big.Int).SetBits(append(make([]big.Word, 0, len(ws)), ws...))
}

// randomWords returns a big integer of exactly n random words.
func randomWords(src *rng.Source, n int) *big.Int {
	ws := make([]big.Word, n)
	for i := range ws {
		ws[i] = big.Word(src.Uint64())
	}
	ws[n-1] |= 1 << (bits.UintSize - 1)
	return new(big.Int).SetBits(ws)
}

// TestMulDivExactMatchesOracle checks the kernel against Mul+Quo for every
// word length up to 160, every power of two in den the ratio walks can
// meet, the extreme multipliers, in place and not, and with inputs that
// have no spare capacity.
func TestMulDivExactMatchesOracle(t *testing.T) {
	src := rng.New(93)
	maxFactor := uint(1)<<(bits.UintSize-2) - 1 // 2^62−1 with 64-bit words
	nums := []uint{0, 1, maxFactor}
	for n := 1; n <= 160; n++ {
		for s := 0; s <= bits.UintSize-2; s++ {
			// den = d·2^s with a random odd d that keeps den below 2^(W−1).
			d := uint(src.Uint64())>>(s+1) | 1
			den := d << s
			x0 := randomWords(src, n)
			num := nums[(n+s)%len(nums)]
			if (n*s)%4 == 3 {
				num = uint(src.Uint64())
			}
			// Half the inputs carry den in x, the other half split it between
			// x and num, so exactness needs the product and not x alone.
			x := new(big.Int).Mul(x0, new(big.Int).SetUint64(uint64(den)))
			if s > 0 && n%2 == 0 {
				x.Mul(x0, new(big.Int).SetUint64(uint64(d)))
				num = (uint(src.Uint64())>>s | 1) << s
			}
			want := mulDivOracle(t, x, num, den)

			z := new(big.Int)
			mulDivExact(z, tight(x), num, den)
			if z.Cmp(want) != 0 {
				t.Fatalf("n=%d s=%d num=%d den=%d: got %v, want %v", n, s, num, den, z, want)
			}
			in := tight(x)
			mulDivExact(in, in, num, den)
			if in.Cmp(want) != 0 {
				t.Fatalf("n=%d s=%d num=%d den=%d in place: got %v, want %v", n, s, num, den, in, want)
			}
			roomy := new(big.Int).SetBits(append(make([]big.Word, 0, len(x.Bits())+3), x.Bits()...))
			mulDivExact(roomy, roomy, num, den)
			if roomy.Cmp(want) != 0 {
				t.Fatalf("n=%d s=%d num=%d den=%d in place with room: got %v, want %v", n, s, num, den, roomy, want)
			}
		}
	}
	// Zero, and den = 1.
	var z big.Int
	mulDivExact(&z, big.NewInt(0), 7, 3)
	if z.Sign() != 0 {
		t.Fatalf("0·7/3 = %v", &z)
	}
	mulDivExact(&z, big.NewInt(6), 5, 1)
	if z.Int64() != 30 {
		t.Fatalf("6·5/1 = %v", &z)
	}
}

// TestMulDivExactPanicsWhenInexact: the kernel refuses a division with a
// remainder, from the odd part and from the power of two, on one word and
// on many.
func TestMulDivExactPanicsWhenInexact(t *testing.T) {
	src := rng.New(94)
	big3 := new(big.Int).Mul(randomWords(src, 20), big.NewInt(3))
	odd := new(big.Int).SetBit(new(big.Int).Lsh(big3, 1), 0, 1)
	for _, tc := range []struct {
		name     string
		x        *big.Int
		num, den uint
	}{
		{"odd part, one word", big.NewInt(5), 1, 3},
		{"zero divisor", big.NewInt(0), 1, 0},
		{"power of two, one word", big.NewInt(3), 1, 2},
		{"odd part, product spills a word", new(big.Int).Lsh(big.NewInt(1), bits.UintSize-1), 2, 3},
		{"odd part, many words", new(big.Int).Add(big3, big.NewInt(1)), 1, 3},
		{"power of two, many words", odd, 3, 6}, // odd·3/3 is odd
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%v·%d/%d did not panic", tc.x, tc.num, tc.den)
				}
			}()
			var z big.Int
			mulDivExact(&z, tc.x, tc.num, tc.den)
		})
	}
}

// FuzzMulDivExact makes an exact ratio from arbitrary words, multiplier and
// divisor (x·den·num/den), and checks the kernel against Mul+Quo, out of
// place and in place.
func FuzzMulDivExact(f *testing.F) {
	f.Add([]byte{1}, uint64(3), uint64(5), uint8(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, uint64(1)<<62-1, uint64(7), uint8(40))
	f.Add([]byte{}, uint64(0), uint64(1), uint8(62))
	f.Fuzz(func(t *testing.T, raw []byte, num, odd uint64, shift uint8) {
		s := uint(shift) % (bits.UintSize - 1)
		den := (uint(odd)>>(s+1) | 1) << s
		x := new(big.Int).SetBytes(raw)
		x.Mul(x, new(big.Int).SetUint64(uint64(den)))
		want := mulDivOracle(t, x, uint(num), den)
		var z big.Int
		mulDivExact(&z, x, uint(num), den)
		if z.Cmp(want) != 0 {
			t.Fatalf("%v·%d/%d = %v, want %v", x, num, den, &z, want)
		}
		mulDivExact(x, x, uint(num), den)
		if x.Cmp(want) != 0 {
			t.Fatalf("in place: got %v, want %v", x, want)
		}
	})
}

// BenchmarkMulDivExact times one ratio step on a 140-word term, the size of
// the top split's terms in a first n=16384, k=8 DISJ batch, against the
// Mul+Quo pair it replaced.
func BenchmarkMulDivExact(b *testing.B) {
	src := rng.New(95)
	num, den := uint(8191*1023), uint(1025*6144)
	x := new(big.Int).Mul(randomWords(src, 140), new(big.Int).SetUint64(uint64(den)))
	z := new(big.Int).Set(x)
	b.Run("kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mulDivExact(z, x, num, den)
		}
	})
	n, d := new(big.Int).SetUint64(uint64(num)), new(big.Int).SetUint64(uint64(den))
	b.Run("mul+quo", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			z.Mul(x, n)
			z.Quo(z, d)
		}
	})
}
