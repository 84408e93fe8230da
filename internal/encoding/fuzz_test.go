package encoding

import (
	"math/big"
	"testing"
)

// Native fuzz targets for the self-delimiting codes. Each encoder/decoder
// pair must round-trip every representable value, the *Len helpers must
// agree with the bits actually written, and the decoders must reject (not
// panic on) adversarial bit streams. Seeds mirror the boundary values of
// the table-driven tests in varint_test.go and combinatorial_test.go.

// encodeOne writes v with write and returns the packed bits and bit count.
func encodeOne(t *testing.T, write func(*BitWriter) error) ([]byte, int) {
	t.Helper()
	var w BitWriter
	if err := write(&w); err != nil {
		t.Fatal(err)
	}
	return w.Bytes(), w.Len()
}

func FuzzUnaryRoundTrip(f *testing.F) {
	for _, v := range []uint64{0, 1, 7, 63, 1 << 10} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v uint64) {
		var w BitWriter
		if err := WriteUnary(&w, v); err != nil {
			return // values beyond the sanity cap are rejected by design
		}
		if w.Len() != UnaryLen(v) {
			t.Fatalf("UnaryLen(%d)=%d, wrote %d bits", v, UnaryLen(v), w.Len())
		}
		r, err := NewBitReader(w.Bytes(), w.Len())
		if err != nil {
			t.Fatal(err)
		}
		got, err := ReadUnary(r)
		if err != nil {
			t.Fatal(err)
		}
		if got != v {
			t.Fatalf("round trip %d -> %d", v, got)
		}
	})
}

func FuzzEliasGammaRoundTrip(f *testing.F) {
	for _, v := range []uint64{1, 2, 3, 127, 128, 1 << 32, ^uint64(0)} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v uint64) {
		if v == 0 {
			var w BitWriter
			if err := WriteEliasGamma(&w, 0); err == nil {
				t.Fatal("gamma accepted 0")
			}
			return
		}
		buf, n := encodeOne(t, func(w *BitWriter) error { return WriteEliasGamma(w, v) })
		if n != EliasGammaLen(v) {
			t.Fatalf("EliasGammaLen(%d)=%d, wrote %d bits", v, EliasGammaLen(v), n)
		}
		r, err := NewBitReader(buf, n)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ReadEliasGamma(r)
		if err != nil {
			t.Fatal(err)
		}
		if got != v {
			t.Fatalf("round trip %d -> %d", v, got)
		}
	})
}

func FuzzEliasDeltaRoundTrip(f *testing.F) {
	for _, v := range []uint64{1, 2, 16, 17, 1 << 20, ^uint64(0)} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v uint64) {
		if v == 0 {
			return
		}
		buf, n := encodeOne(t, func(w *BitWriter) error { return WriteEliasDelta(w, v) })
		if n != EliasDeltaLen(v) {
			t.Fatalf("EliasDeltaLen(%d)=%d, wrote %d bits", v, EliasDeltaLen(v), n)
		}
		r, err := NewBitReader(buf, n)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ReadEliasDelta(r)
		if err != nil {
			t.Fatal(err)
		}
		if got != v {
			t.Fatalf("round trip %d -> %d", v, got)
		}
	})
}

func FuzzNonNegRoundTrip(f *testing.F) {
	for _, v := range []uint64{0, 1, 2, 255, 1 << 40} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v uint64) {
		if v == ^uint64(0) {
			return // v+1 would overflow; rejected by design
		}
		buf, n := encodeOne(t, func(w *BitWriter) error { return WriteNonNeg(w, v) })
		if n != NonNegLen(v) {
			t.Fatalf("NonNegLen(%d)=%d, wrote %d bits", v, NonNegLen(v), n)
		}
		r, err := NewBitReader(buf, n)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ReadNonNeg(r)
		if err != nil {
			t.Fatal(err)
		}
		if got != v {
			t.Fatalf("round trip %d -> %d", v, got)
		}
	})
}

func FuzzSignedGammaRoundTrip(f *testing.F) {
	for _, v := range []int64{0, -1, 1, -2, 2, 1 << 40, -(1 << 40), -9223372036854775808, 9223372036854775807} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v int64) {
		if zigzag(v) == ^uint64(0) {
			return
		}
		buf, n := encodeOne(t, func(w *BitWriter) error { return WriteSignedGamma(w, v) })
		if n != SignedGammaLen(v) {
			t.Fatalf("SignedGammaLen(%d)=%d, wrote %d bits", v, SignedGammaLen(v), n)
		}
		r, err := NewBitReader(buf, n)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ReadSignedGamma(r)
		if err != nil {
			t.Fatal(err)
		}
		if got != v {
			t.Fatalf("round trip %d -> %d", v, got)
		}
	})
}

// FuzzSubsetRoundTrip derives a strictly increasing subset of [0, m) from
// the mask bytes (bit v%len of the mask picks v), with m up to a few
// hundred so that split levels run as well as leaves. SubsetCode must write
// it in exactly ⌈log₂ C(m,w)⌉ bits and read it back, and must refuse every
// stored value in [C(m,w), 2^width): the one picked by dirty, and the
// extremes C(m,w) and 2^width−1.
func FuzzSubsetRoundTrip(f *testing.F) {
	f.Add(uint16(6), []byte{0b101001}, uint64(0))
	f.Add(uint16(1), []byte{1}, uint64(1))
	f.Add(uint16(48), []byte{0xff}, uint64(7))
	f.Add(uint16(10), []byte{0}, uint64(3))
	f.Add(uint16(300), []byte{0x11, 0, 0x80, 0x04, 0, 0, 0, 0x21}, uint64(1<<40))
	f.Add(uint16(257), []byte{0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, uint64(5))
	f.Fuzz(func(t *testing.T, m uint16, mask []byte, dirty uint64) {
		m %= 400
		var subset []int
		for v := 0; v < int(m) && len(mask) > 0; v++ {
			bit := v % (8 * len(mask))
			if mask[bit/8]>>uint(bit%8)&1 == 1 {
				subset = append(subset, v)
			}
		}
		code, err := NewSubsetCode(int(m), len(subset))
		if err != nil {
			t.Fatal(err)
		}
		width, err := BinomialBitLen(int(m), len(subset))
		if err != nil {
			t.Fatal(err)
		}
		if code.Width() != width {
			t.Fatalf("code width %d, ⌈log₂ C⌉ = %d", code.Width(), width)
		}
		var w BitWriter
		if err := code.Write(&w, subset); err != nil {
			t.Fatal(err)
		}
		if w.Len() != width {
			t.Fatalf("Write used %d bits, budget is %d", w.Len(), width)
		}
		r, err := NewBitReader(w.Bytes(), w.Len())
		if err != nil {
			t.Fatal(err)
		}
		got, err := code.Read(r, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !equalInts(got, subset) {
			t.Fatalf("codec mismatch: %v vs %v", got, subset)
		}

		// Reject dirty input: the stored values no subset maps to.
		total := Binomial(int(m), len(subset))
		limit := new(big.Int).Lsh(big.NewInt(1), uint(width))
		spare := new(big.Int).Sub(limit, total)
		if spare.Sign() == 0 {
			return
		}
		pick := new(big.Int).Mod(new(big.Int).SetUint64(dirty), spare)
		for _, bad := range []*big.Int{total, pick.Add(pick, total), spare.Sub(limit, big.NewInt(1))} {
			var bw BitWriter
			if err := writeBigInt(&bw, bad, width); err != nil {
				t.Fatal(err)
			}
			r, err := NewBitReader(bw.Bytes(), bw.Len())
			if err != nil {
				t.Fatal(err)
			}
			if got, err := code.Read(r, nil); err == nil {
				t.Fatalf("stored %v ≥ C(%d,%d) = %v decoded to %v", bad, m, len(subset), total, got)
			}
		}
	})
}

// FuzzDecodeAdversarial feeds arbitrary bytes to every decoder. Decoders
// must either fail cleanly or return a value whose re-encoding reproduces
// exactly the bits they consumed (the codes are prefix-free bijections).
func FuzzDecodeAdversarial(f *testing.F) {
	f.Add([]byte{0xff, 0x00, 0xa5})
	f.Add([]byte{0x00})
	f.Add([]byte{0b01011010, 0b11110000, 0x13, 0x37})
	// A split-level subset code: any stored value below C(300, 40) is a
	// codeword, and it must re-encode to the very bits it was read from.
	code, err := NewSubsetCode(300, 40)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return // keeps any decodable unary run below WriteUnary's sanity cap
		}
		checks := []struct {
			name   string
			decode func(*BitReader) (func(*BitWriter) error, error)
		}{
			{"gamma", func(r *BitReader) (func(*BitWriter) error, error) {
				v, err := ReadEliasGamma(r)
				return func(w *BitWriter) error { return WriteEliasGamma(w, v) }, err
			}},
			{"delta", func(r *BitReader) (func(*BitWriter) error, error) {
				v, err := ReadEliasDelta(r)
				return func(w *BitWriter) error { return WriteEliasDelta(w, v) }, err
			}},
			{"signed", func(r *BitReader) (func(*BitWriter) error, error) {
				v, err := ReadSignedGamma(r)
				return func(w *BitWriter) error { return WriteSignedGamma(w, v) }, err
			}},
			{"unary", func(r *BitReader) (func(*BitWriter) error, error) {
				v, err := ReadUnary(r)
				return func(w *BitWriter) error { return WriteUnary(w, v) }, err
			}},
			{"subset", func(r *BitReader) (func(*BitWriter) error, error) {
				v, err := code.Read(r, nil)
				return func(w *BitWriter) error { return code.Write(w, v) }, err
			}},
		}
		for _, c := range checks {
			r, err := NewBitReader(data, len(data)*8)
			if err != nil {
				t.Fatal(err)
			}
			reencode, err := c.decode(r)
			if err != nil {
				continue // clean failure on garbage is fine
			}
			var w BitWriter
			if err := reencode(&w); err != nil {
				t.Fatalf("%s: decoded value does not re-encode: %v", c.name, err)
			}
			consumed := len(data)*8 - r.Remaining()
			if w.Len() != consumed {
				t.Fatalf("%s: consumed %d bits but value re-encodes to %d", c.name, consumed, w.Len())
			}
			for i := 0; i < consumed; i++ {
				in := data[i/8] >> uint(7-i%8) & 1
				out := w.Bytes()[i/8] >> uint(7-i%8) & 1
				if in != out {
					t.Fatalf("%s: re-encoded bit %d differs", c.name, i)
				}
			}
		}
	})
}
