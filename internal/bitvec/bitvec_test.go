package bitvec

import (
	"testing"
	"testing/quick"

	"broadcastic/internal/rng"
)

func TestNewRejectsNegative(t *testing.T) {
	if _, err := New(-1); err == nil {
		t.Fatal("New(-1) succeeded")
	}
}

func TestSetGetClear(t *testing.T) {
	v := MustNew(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if v.Get(i) {
			t.Fatalf("fresh vector has bit %d set", i)
		}
		if err := v.Set(i); err != nil {
			t.Fatalf("Set(%d): %v", i, err)
		}
		if !v.Get(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
		if err := v.Clear(i); err != nil {
			t.Fatalf("Clear(%d): %v", i, err)
		}
		if v.Get(i) {
			t.Fatalf("bit %d still set after Clear", i)
		}
	}
}

func TestBoundsErrors(t *testing.T) {
	v := MustNew(10)
	if err := v.Set(10); err == nil {
		t.Fatal("Set(10) on length-10 vector succeeded")
	}
	if err := v.Set(-1); err == nil {
		t.Fatal("Set(-1) succeeded")
	}
	if err := v.Clear(10); err == nil {
		t.Fatal("Clear(10) succeeded")
	}
	if v.Get(10) || v.Get(-1) {
		t.Fatal("out-of-range Get returned true")
	}
}

func TestCountAndSetAll(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 100, 128, 1000} {
		v := MustNew(n)
		if v.Count() != 0 {
			t.Fatalf("n=%d: fresh count = %d", n, v.Count())
		}
		v.SetAll()
		if v.Count() != n {
			t.Fatalf("n=%d: SetAll count = %d", n, v.Count())
		}
		v.ClearAll()
		if v.Count() != 0 {
			t.Fatalf("n=%d: ClearAll count = %d", n, v.Count())
		}
	}
}

func TestNotMasksTail(t *testing.T) {
	v := MustNew(70)
	v.Not()
	if v.Count() != 70 {
		t.Fatalf("Not on empty length-70 vector has count %d", v.Count())
	}
	v.Not()
	if v.Count() != 0 {
		t.Fatalf("double Not has count %d", v.Count())
	}
}

func TestSetAlgebra(t *testing.T) {
	a, _ := FromIndices(10, []int{1, 3, 5, 7})
	b, _ := FromIndices(10, []int{3, 4, 5, 6})

	and := a.Clone()
	if err := and.And(b); err != nil {
		t.Fatal(err)
	}
	if got := and.Indices(); !equalInts(got, []int{3, 5}) {
		t.Fatalf("And = %v", got)
	}

	or := a.Clone()
	if err := or.Or(b); err != nil {
		t.Fatal(err)
	}
	if got := or.Indices(); !equalInts(got, []int{1, 3, 4, 5, 6, 7}) {
		t.Fatalf("Or = %v", got)
	}

	diff := a.Clone()
	if err := diff.AndNot(b); err != nil {
		t.Fatal(err)
	}
	if got := diff.Indices(); !equalInts(got, []int{1, 7}) {
		t.Fatalf("AndNot = %v", got)
	}
}

func TestUniverseMismatch(t *testing.T) {
	a := MustNew(10)
	b := MustNew(11)
	if err := a.And(b); err == nil {
		t.Fatal("And across universes succeeded")
	}
	if err := a.Or(b); err == nil {
		t.Fatal("Or across universes succeeded")
	}
	if err := a.AndNot(b); err == nil {
		t.Fatal("AndNot across universes succeeded")
	}
	if a.Equal(b) {
		t.Fatal("vectors over different universes compare equal")
	}
}

func TestNextSetAndIndices(t *testing.T) {
	v, _ := FromIndices(200, []int{0, 63, 64, 130, 199})
	want := []int{0, 63, 64, 130, 199}
	if got := v.Indices(); !equalInts(got, want) {
		t.Fatalf("Indices = %v, want %v", got, want)
	}
	if i, ok := v.NextSet(65); !ok || i != 130 {
		t.Fatalf("NextSet(65) = %d,%v", i, ok)
	}
	if _, ok := v.NextSet(200); ok {
		t.Fatal("NextSet past end reported a bit")
	}
	if i, ok := v.NextSet(-5); !ok || i != 0 {
		t.Fatalf("NextSet(-5) = %d,%v", i, ok)
	}
}

func TestRankSelectInverse(t *testing.T) {
	src := rng.New(99)
	check := func(seed uint16) bool {
		n := int(seed%300) + 1
		v := MustNew(n)
		for i := 0; i < n; i++ {
			if src.Bernoulli(0.3) {
				_ = v.Set(i)
			}
		}
		// select(r) must be the unique position p with Rank(p)=r and bit set.
		for r := 0; r < v.Count(); r++ {
			p, err := v.SelectSet(r)
			if err != nil {
				return false
			}
			if !v.Get(p) || v.Rank(p) != r {
				return false
			}
		}
		// Rank at n equals Count.
		return v.Rank(n) == v.Count()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSelectErrors(t *testing.T) {
	v, _ := FromIndices(10, []int{2, 4})
	if _, err := v.SelectSet(2); err == nil {
		t.Fatal("SelectSet beyond population succeeded")
	}
	if _, err := v.SelectSet(-1); err == nil {
		t.Fatal("SelectSet(-1) succeeded")
	}
}

func TestIntersectsAll(t *testing.T) {
	a, _ := FromIndices(16, []int{1, 5, 9})
	b, _ := FromIndices(16, []int{5, 9, 12})
	c, _ := FromIndices(16, []int{9, 15})
	idx, ok, err := IntersectsAll([]*Vector{a, b, c})
	if err != nil {
		t.Fatal(err)
	}
	if !ok || idx != 9 {
		t.Fatalf("IntersectsAll = %d,%v, want 9,true", idx, ok)
	}

	d, _ := FromIndices(16, []int{0})
	_, ok, err = IntersectsAll([]*Vector{a, d})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("disjoint sets reported intersecting")
	}

	if _, _, err := IntersectsAll(nil); err == nil {
		t.Fatal("IntersectsAll(nil) succeeded")
	}
}

func TestCloneIndependence(t *testing.T) {
	a, _ := FromIndices(10, []int{1, 2})
	b := a.Clone()
	_ = b.Set(9)
	if a.Get(9) {
		t.Fatal("Clone shares storage with original")
	}
}

func TestFromIndicesRejectsOutOfRange(t *testing.T) {
	if _, err := FromIndices(5, []int{5}); err == nil {
		t.Fatal("FromIndices accepted out-of-range index")
	}
}

func TestStringTruncation(t *testing.T) {
	v := MustNew(3)
	_ = v.Set(1)
	if got := v.String(); got != "010" {
		t.Fatalf("String = %q", got)
	}
	big := MustNew(1000)
	if s := big.String(); len(s) > 200 {
		t.Fatalf("String of large vector not truncated: len=%d", len(s))
	}
}

func TestOrAndNotDuality(t *testing.T) {
	src := rng.New(4)
	check := func(seed uint16) bool {
		n := int(seed%128) + 1
		a := MustNew(n)
		b := MustNew(n)
		for i := 0; i < n; i++ {
			if src.Bernoulli(0.5) {
				_ = a.Set(i)
			}
			if src.Bernoulli(0.5) {
				_ = b.Set(i)
			}
		}
		// De Morgan: ¬(a ∪ b) == ¬a ∩ ¬b.
		left := a.Clone()
		_ = left.Or(b)
		left.Not()

		na, nb := a.Clone(), b.Clone()
		na.Not()
		nb.Not()
		right := na
		_ = right.And(nb)
		return left.Equal(right)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestCopyFromReusesStorage(t *testing.T) {
	src := MustNew(130)
	for _, i := range []int{0, 63, 64, 129} {
		if err := src.Set(i); err != nil {
			t.Fatal(err)
		}
	}
	dst := MustNew(256) // larger storage than needed
	dst.SetAll()
	dst.CopyFrom(src)
	if !dst.Equal(src) {
		t.Fatalf("CopyFrom: got %v, want %v", dst, src)
	}
	// Growing copy: dst smaller than src.
	small := MustNew(1)
	small.CopyFrom(src)
	if !small.Equal(src) {
		t.Fatalf("CopyFrom into smaller vector: got %v, want %v", small, src)
	}
}

func TestResetReshapesAndZeroes(t *testing.T) {
	v := MustNew(200)
	v.SetAll()
	if err := v.Reset(70); err != nil {
		t.Fatal(err)
	}
	if v.Len() != 70 || v.Count() != 0 {
		t.Fatalf("Reset(70): len=%d count=%d, want 70/0", v.Len(), v.Count())
	}
	// Stale high bits from the old shape must not resurface through SetAll
	// and Count after reshaping.
	v.SetAll()
	if v.Count() != 70 {
		t.Fatalf("SetAll after Reset: count=%d, want 70", v.Count())
	}
	if err := v.Reset(-1); err == nil {
		t.Fatal("Reset(-1) succeeded")
	}
}

func TestPoolGetReturnsZeroVectors(t *testing.T) {
	var p Pool
	v, err := p.Get(100)
	if err != nil {
		t.Fatal(err)
	}
	v.SetAll()
	p.Put(v)
	// Whatever comes back — the recycled vector or a fresh one — it must be
	// all-zero at the requested size.
	w, err := p.Get(40)
	if err != nil {
		t.Fatal(err)
	}
	if w.Len() != 40 || w.Count() != 0 {
		t.Fatalf("pooled vector: len=%d count=%d, want 40/0", w.Len(), w.Count())
	}
	p.Put(w)
	if _, err := p.Get(-3); err == nil {
		t.Fatal("Get(-3) succeeded")
	}
}

func TestIntersectsAllAllocationFree(t *testing.T) {
	vs := []*Vector{MustNew(512), MustNew(512), MustNew(512)}
	for _, v := range vs {
		if err := v.Set(100); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the accumulator pool.
	if _, _, err := IntersectsAll(vs); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		idx, ok, err := IntersectsAll(vs)
		if err != nil || !ok || idx != 100 {
			t.Fatalf("IntersectsAll = (%d, %v, %v)", idx, ok, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("IntersectsAll allocates %.1f objects/call; want 0", allocs)
	}
}

func TestAndNotCount(t *testing.T) {
	v, _ := FromIndices(130, []int{0, 5, 63, 64, 100, 129})
	u, _ := FromIndices(130, []int{5, 64, 128})
	got, err := v.AndNotCount(u)
	if err != nil || got != 4 {
		t.Fatalf("AndNotCount = %d, %v; want 4", got, err)
	}
	if v.Count() != 6 || u.Count() != 3 {
		t.Fatal("AndNotCount modified an operand")
	}
	if _, err := v.AndNotCount(MustNew(129)); err == nil {
		t.Fatal("universe mismatch accepted")
	}
}
