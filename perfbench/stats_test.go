package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // reversed: summarize must sort
	}
	return xs
}

func TestSummarizeRefusesP90BelowHundredOps(t *testing.T) {
	l := summarize(seq(99))
	if l.P50 != 50 {
		t.Errorf("P50 of 1..99 = %v, want 50", l.P50)
	}
	if _, err := l.p90(); err == nil {
		t.Errorf("p90 of 99 ops reported, want refusal")
	}
	if _, ok := tailPercentile(99); ok {
		t.Errorf("tail percentile reported for 99 ops")
	}
}

func TestSummarizeTailHasTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n        int
		tailPct  float64
		p50, p90 float64
	}{
		{100, 90, 50, 90},
		{199, 90, 100, 180},
		{200, 95, 100, 180},
		{999, 95, 500, 900},
		{1000, 99, 500, 900},
		{10000, 99.9, 5000, 9000},
	} {
		l := summarize(seq(tc.n))
		p90, err := l.p90()
		if err != nil {
			t.Fatalf("n=%d: %v", tc.n, err)
		}
		if l.P50 != tc.p50 || p90 != tc.p90 || l.TailPct != tc.tailPct {
			t.Errorf("n=%d: p50 %v p90 %v tail p%v, want %v %v p%v", tc.n, l.P50, p90, l.TailPct, tc.p50, tc.p90, tc.tailPct)
		}
		if beyond := float64(tc.n) - l.TailMs; beyond < minBeyond {
			t.Errorf("n=%d: tail p%v = %v has %v samples beyond it", tc.n, l.TailPct, l.TailMs, beyond)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
	if m := median(nil); !math.IsNaN(m) {
		t.Errorf("median of nothing = %v", m)
	}
}
