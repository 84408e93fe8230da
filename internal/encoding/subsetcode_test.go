package encoding

import (
	"math/big"
	"math/bits"
	"testing"
	"testing/quick"

	"broadcastic/internal/rng"
)

// writeSubset encodes subset with a fresh code for (m, len(subset)).
func writeSubset(t testing.TB, m int, subset []int) (*SubsetCode, *BitWriter) {
	t.Helper()
	code, err := NewSubsetCode(m, len(subset))
	if err != nil {
		t.Fatal(err)
	}
	var bw BitWriter
	if err := code.Write(&bw, subset); err != nil {
		t.Fatalf("m=%d w=%d: %v", m, len(subset), err)
	}
	return code, &bw
}

// TestSubsetCodeExhaustive checks the bijection on every subset of small
// universes, including ones above leafSize so that one and two levels of
// splits run: the ranks are exactly [0, C(m,w)), every codeword is
// ⌈log₂ C(m,w)⌉ bits like the lex oracle's, every codeword decodes back,
// and inside a leaf the rank is the colex oracle's.
func TestSubsetCodeExhaustive(t *testing.T) {
	type shape struct{ m, w int }
	var shapes []shape
	for m := 0; m <= 9; m++ {
		for w := 0; w <= m; w++ {
			shapes = append(shapes, shape{m, w})
		}
	}
	for _, m := range []int{leafSize, leafSize + 1, 2*leafSize + 1, 4*leafSize + 3} {
		shapes = append(shapes, shape{m, 0}, shape{m, 1}, shape{m, 2}, shape{m, m - 1}, shape{m, m})
	}
	shapes = append(shapes, shape{leafSize + 1, 3}, shape{2*leafSize + 1, 3}, shape{leafSize + 6, leafSize + 3})
	for _, sh := range shapes {
		m, w := sh.m, sh.w
		code, err := NewSubsetCode(m, w)
		if err != nil {
			t.Fatal(err)
		}
		total := Binomial(m, w).Int64()
		seen := make([]bool, total)
		var rank big.Int
		var back []int
		enumerateSubsets(m, w, func(subset []int) {
			if err := code.rank(&rank, subset); err != nil {
				t.Fatalf("rank m=%d w=%d %v: %v", m, w, subset, err)
			}
			rv := rank.Int64()
			if !rank.IsInt64() || rv < 0 || rv >= total || seen[rv] {
				t.Fatalf("m=%d w=%d %v: rank %v repeated or outside [0,%d)", m, w, subset, &rank, total)
			}
			seen[rv] = true
			if m <= leafSize {
				colex, err := SubsetRank(m, subset)
				if err != nil || colex.Cmp(&rank) != 0 {
					t.Fatalf("m=%d w=%d %v: leaf rank %v, colex oracle %v (%v)", m, w, subset, &rank, colex, err)
				}
			}
			var bw BitWriter
			if err := code.Write(&bw, subset); err != nil {
				t.Fatal(err)
			}
			if bw.Len() != code.Width() {
				t.Fatalf("m=%d w=%d: wrote %d bits, width %d", m, w, bw.Len(), code.Width())
			}
			r, _ := NewBitReader(bw.Bytes(), bw.Len())
			if back, err = code.Read(r, back); err != nil || !equalInts(back, subset) {
				t.Fatalf("m=%d w=%d: read(write(%v)) = %v, %v", m, w, subset, back, err)
			}
		})
		for rv, ok := range seen {
			if !ok {
				t.Fatalf("m=%d w=%d: rank %d never produced", m, w, rv)
			}
		}
		// Every codeword has the lex oracle's length: the bits of its
		// largest rank, that of the lexicographically last subset.
		lexMax, err := EnumerativeRank(m, lastLex(m, w))
		if err != nil {
			t.Fatal(err)
		}
		if lexMax.BitLen() != code.Width() {
			t.Fatalf("m=%d w=%d: width %d, lex oracle %d", m, w, code.Width(), lexMax.BitLen())
		}
	}
}

// TestSubsetCodeRejectsOutOfRange stores every value in [C(m,w), 2^width)
// and expects Read to refuse each one.
func TestSubsetCodeRejectsOutOfRange(t *testing.T) {
	for _, sh := range []struct{ m, w int }{{5, 2}, {9, 4}, {leafSize + 5, 2}, {2*leafSize + 1, 2}, {300, 1}} {
		code, err := NewSubsetCode(sh.m, sh.w)
		if err != nil {
			t.Fatal(err)
		}
		total := Binomial(sh.m, sh.w).Uint64()
		for v := total; v < 1<<uint(code.Width()); v++ {
			var bw BitWriter
			if err := bw.WriteBits(v, code.Width()); err != nil {
				t.Fatal(err)
			}
			r, _ := NewBitReader(bw.Bytes(), bw.Len())
			if got, err := code.Read(r, nil); err == nil {
				t.Fatalf("m=%d w=%d: stored %d ≥ C=%d decoded to %v", sh.m, sh.w, v, total, got)
			}
		}
	}
}

func TestSubsetCodeValidation(t *testing.T) {
	tooBig := maxUniverse
	tooBig++ // with 32-bit ints this wraps negative, which is refused too
	for _, sh := range []struct{ m, w int }{{-1, 0}, {3, 4}, {3, -1}, {tooBig, 1}} {
		if _, err := NewSubsetCode(sh.m, sh.w); err == nil {
			t.Fatalf("NewSubsetCode(%d, %d) succeeded", sh.m, sh.w)
		}
	}
	code, err := NewSubsetCode(200, 3)
	if err != nil {
		t.Fatal(err)
	}
	var bw BitWriter
	for _, bad := range [][]int{{1, 2}, {1, 2, 3, 4}, {2, 1, 3}, {1, 1, 3}, {-1, 2, 3}, {1, 2, 200}} {
		if err := code.Write(&bw, bad); err == nil {
			t.Fatalf("Write(%v) over m=200 w=3 succeeded", bad)
		}
	}
	if bw.Len() != 0 {
		t.Fatalf("rejected writes left %d bits", bw.Len())
	}
	r, _ := NewBitReader([]byte{0xff}, 8)
	if _, err := code.Read(r, nil); err == nil {
		t.Fatalf("truncated read of %d bits succeeded", code.Width())
	}
	// A Reset to a new shape behaves as a fresh code.
	if err := code.Reset(9, 4); err != nil {
		t.Fatal(err)
	}
	if want, _ := BinomialBitLen(9, 4); code.Width() != want {
		t.Fatalf("width after Reset = %d, want %d", code.Width(), want)
	}
}

// TestEnumerativeRankBijectionExhaustive checks the lex oracle itself.
func TestEnumerativeRankBijectionExhaustive(t *testing.T) {
	for m := 0; m <= 8; m++ {
		for w := 0; w <= m; w++ {
			total := Binomial(m, w).Int64()
			seen := make(map[int64]bool, total)
			enumerateSubsets(m, w, func(subset []int) {
				rank, err := EnumerativeRank(m, subset)
				if err != nil {
					t.Fatalf("rank m=%d w=%d %v: %v", m, w, subset, err)
				}
				rv := rank.Int64()
				if rv < 0 || rv >= total {
					t.Fatalf("rank %d outside [0,%d)", rv, total)
				}
				if seen[rv] {
					t.Fatalf("duplicate rank %d at m=%d w=%d", rv, m, w)
				}
				seen[rv] = true
				back, err := EnumerativeUnrank(m, w, rank)
				if err != nil {
					t.Fatalf("unrank m=%d w=%d rank=%d: %v", m, w, rv, err)
				}
				if !equalInts(back, subset) {
					t.Fatalf("unrank(rank(%v)) = %v", subset, back)
				}
			})
			if int64(len(seen)) != total {
				t.Fatalf("m=%d w=%d: %d ranks, want %d", m, w, len(seen), total)
			}
		}
	}
}

// TestEnumerativeRankLexOrder pins the oracle's order: {0,1} < {0,2} <
// {1,2} over m=3. SubsetCode promises no order beyond being a bijection.
func TestEnumerativeRankLexOrder(t *testing.T) {
	ranks := make([]int64, 0, 3)
	for _, s := range [][]int{{0, 1}, {0, 2}, {1, 2}} {
		r, err := EnumerativeRank(3, s)
		if err != nil {
			t.Fatal(err)
		}
		ranks = append(ranks, r.Int64())
	}
	if !(ranks[0] < ranks[1] && ranks[1] < ranks[2]) {
		t.Fatalf("ranks not lexicographic: %v", ranks)
	}
}

func TestEnumerativeValidation(t *testing.T) {
	if _, err := EnumerativeRank(3, []int{2, 1}); err == nil {
		t.Fatal("decreasing subset succeeded")
	}
	if _, err := EnumerativeRank(3, []int{0, 3}); err == nil {
		t.Fatal("out-of-range element succeeded")
	}
	if _, err := EnumerativeRank(2, []int{0, 1, 2}); err == nil {
		t.Fatal("oversized subset succeeded")
	}
	if _, err := EnumerativeUnrank(4, 2, big.NewInt(6)); err == nil {
		t.Fatal("rank = C(4,2) succeeded")
	}
	if _, err := EnumerativeUnrank(4, 2, big.NewInt(-1)); err == nil {
		t.Fatal("negative rank succeeded")
	}
	if _, err := EnumerativeUnrank(2, 3, big.NewInt(0)); err == nil {
		t.Fatal("w > m succeeded")
	}
}

// TestEnumerativeLargeRoundTrip round-trips SubsetCode in the regime the
// optimal protocol uses, w ≈ m/k batches out of a large universe, plus the
// prefix-heavy batches it actually sends (a player's first w new zeroes)
// and both extremes of the split enumeration.
func TestEnumerativeLargeRoundTrip(t *testing.T) {
	src := rng.New(88)
	prefix := func(m, w int) []int {
		out := make([]int, w)
		for i := range out {
			out[i] = i
		}
		return out
	}
	suffix := func(m, w int) []int {
		out := make([]int, w)
		for i := range out {
			out[i] = m - w + i
		}
		return out
	}
	for _, cfg := range []struct{ m, w int }{
		{1000, 100}, {5000, 50}, {4096, 512}, {300, 300}, {300, 0}, {16384, 2048}, {777, 776},
	} {
		for _, subset := range [][]int{
			src.SampleWithoutReplacement(cfg.m, cfg.w),
			prefix(cfg.m, cfg.w),
			suffix(cfg.m, cfg.w),
			src.SampleWithoutReplacement(min(2*cfg.w, cfg.m), cfg.w), // dense prefix
		} {
			code, bw := writeSubset(t, cfg.m, subset)
			wantBits, err := BinomialBitLen(cfg.m, cfg.w)
			if err != nil {
				t.Fatal(err)
			}
			if bw.Len() != wantBits {
				t.Fatalf("m=%d w=%d: wrote %d bits, want %d", cfg.m, cfg.w, bw.Len(), wantBits)
			}
			r, _ := NewBitReader(bw.Bytes(), bw.Len())
			got, err := code.Read(r, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !equalInts(got, subset) {
				t.Fatalf("m=%d w=%d: roundtrip mismatch", cfg.m, cfg.w)
			}
		}
	}
}

// TestEnumerativeMatchesCombinatorialBitLen: SubsetCode spends the lex
// oracle's exact bit budget, ⌈log₂ C(m,w)⌉ = bitlen(C(m,w)−1).
func TestEnumerativeMatchesCombinatorialBitLen(t *testing.T) {
	src := rng.New(89)
	check := func(mRaw uint16, wRaw uint16) bool {
		m := int(mRaw%400) + 1
		w := int(wRaw) % (m + 1)
		subset := src.SampleWithoutReplacement(m, w)
		code, bw := writeSubset(t, m, subset)
		last, err := EnumerativeRank(m, lastLex(m, w))
		if err != nil {
			return false
		}
		return bw.Len() == last.BitLen() && code.Width() == last.BitLen()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// prefixSubset returns [0, w).
func prefixSubset(w int) []int {
	out := make([]int, w)
	for i := range out {
		out[i] = i
	}
	return out
}

// lastLex returns the lexicographically last w-subset of [0, m).
func lastLex(m, w int) []int {
	out := make([]int, w)
	for i := range out {
		out[i] = m - w + i
	}
	return out
}

// TestSubsetCodeZeroAllocs pins steady-state Write and Read of a reused code
// to zero allocations, at the size of a first DISJ batch (n=16384, k=8) and
// at a mid size. Besides a random subset it codes the shapes DISJ sends, a
// player's first w new zeroes: all of [0, w) and the first w elements of
// sets of density 1/2 and 1/4, which walk far from the splits' means, and
// the mirror image [m−w, m).
func TestSubsetCodeZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not the program's under -race")
	}
	src := rng.New(91)
	for _, cfg := range []struct{ m, w int }{{16384, 2048}, {1000, 125}} {
		if bits.UintSize == 32 && cfg.m > 4096 {
			// The unrank's QuoRem by a split binomial of 100 words or more
			// takes math/big's recursive division, which allocates its
			// temporaries; with 32-bit words C(8192, ·) gets there.
			continue
		}
		subsets := [][]int{
			src.SampleWithoutReplacement(cfg.m, cfg.w),
			src.SampleWithoutReplacement(2*cfg.w, cfg.w),
			src.SampleWithoutReplacement(min(4*cfg.w, cfg.m), cfg.w),
			prefixSubset(cfg.w),
			lastLex(cfg.m, cfg.w),
		}
		code, err := NewSubsetCode(cfg.m, cfg.w)
		if err != nil {
			t.Fatal(err)
		}
		var bw BitWriter
		var out []int
		roundTrip := func() {
			for _, subset := range subsets {
				bw.Reset()
				if err := code.Write(&bw, subset); err != nil {
					t.Fatal(err)
				}
				r := BitReader{buf: bw.buf, nbit: bw.nbit}
				if out, err = code.Read(&r, out); err != nil {
					t.Fatal(err)
				}
			}
		}
		roundTrip() // warm the memo rows and scratch
		if allocs := testing.AllocsPerRun(20, roundTrip); allocs != 0 {
			t.Fatalf("m=%d w=%d: steady-state Write+Read allocates %.1f objects; want 0", cfg.m, cfg.w, allocs)
		}
		if !equalInts(out, subsets[len(subsets)-1]) {
			t.Fatal("round trip mismatch")
		}
	}
}

// BenchmarkSubsetCodeRoundTrip writes and reads one random first-cycle
// DISJ batch (n=16384, k=8) with a reused code.
func BenchmarkSubsetCodeRoundTrip(b *testing.B) {
	src := rng.New(90)
	const m, w = 16384, 2048
	subset := src.SampleWithoutReplacement(m, w)
	code, err := NewSubsetCode(m, w)
	if err != nil {
		b.Fatal(err)
	}
	var bw BitWriter
	var out []int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bw.Reset()
		if err := code.Write(&bw, subset); err != nil {
			b.Fatal(err)
		}
		r := BitReader{buf: bw.buf, nbit: bw.nbit}
		if out, err = code.Read(&r, out); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSubsetCodeSharedWalk codes many subsets through one code, whose top
// split's walk and memoized binomials carry over from call to call: one
// subset for every left count a of the top split, in shuffled order, and
// prefix-heavy ones. Every codeword must match a fresh code's, and they are
// decoded in reverse order, so reads resume from saved walk states behind
// the frontier, including states saved exactly at a target count.
func TestSubsetCodeSharedWalk(t *testing.T) {
	src := rng.New(92)
	const m, w = 3000, 400
	shared, err := NewSubsetCode(m, w)
	if err != nil {
		t.Fatal(err)
	}
	var subsets [][]int
	for a := 0; a <= w; a++ { // a elements below m/2, w−a above
		subset := make([]int, 0, w)
		for i := 0; i < a; i++ {
			subset = append(subset, i)
		}
		for i := 0; i < w-a; i++ {
			subset = append(subset, m/2+i)
		}
		subsets = append(subsets, subset)
	}
	for i := len(subsets) - 1; i > 0; i-- {
		j := src.Intn(i + 1)
		subsets[i], subsets[j] = subsets[j], subsets[i]
	}
	for i := 0; i < 24; i++ {
		span := w + src.Intn(m-w+1) // prefix-heavy: w elements out of [0, span)
		subsets = append(subsets, src.SampleWithoutReplacement(span, w))
	}
	var words []*BitWriter
	for i, subset := range subsets {
		var bw BitWriter
		if err := shared.Write(&bw, subset); err != nil {
			t.Fatal(err)
		}
		_, fresh := writeSubset(t, m, subset)
		if !equalBits(&bw, fresh) {
			t.Fatalf("subset %d: shared code wrote a different codeword than a fresh one", i)
		}
		words = append(words, &bw)
	}
	var out []int
	for i := len(words) - 1; i >= 0; i-- {
		r, _ := NewBitReader(words[i].Bytes(), words[i].Len())
		if out, err = shared.Read(r, out); err != nil || !equalInts(out, subsets[i]) {
			t.Fatalf("subset %d: read back %v, %v", i, out, err)
		}
	}
}

func equalBits(a, b *BitWriter) bool {
	if a.Len() != b.Len() {
		return false
	}
	x, y := a.Bytes(), b.Bytes()
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}
