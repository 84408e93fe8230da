package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile for
// it to mean anything: with fewer, one slow op moves it.
const minBeyond = 10

// tailLadder lists the tail percentiles the summary may report, highest
// first, in tenths of a percent so that ranks are exact integers.
var tailLadder = []int{999, 990, 950, 900}

// latencySummary is the timing summary of one phase.
type latencySummary struct {
	N       int
	P50     float64
	P90     float64
	HasP90  bool
	TailPct float64 // the highest ladder percentile with minBeyond samples beyond it
	TailMs  float64
}

// rank is the 1-based nearest-rank index of the permille-th permille of n
// samples.
func rank(permille, n int) int {
	r := (permille*n + 999) / 1000
	return max(1, min(r, n))
}

// tailPercentile returns the highest ladder percentile, in permille, that
// has at least minBeyond of n samples above it.
func tailPercentile(n int) (int, bool) {
	for _, pm := range tailLadder {
		if n > 0 && n-rank(pm, n) >= minBeyond {
			return pm, true
		}
	}
	return 0, false
}

// summarize sorts a copy of the op times and reports the median, and p90
// and the highest percentile the sample count supports when there are
// enough ops for them (at least minBeyond beyond p90 takes 100).
func summarize(ms []float64) latencySummary {
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	out := latencySummary{N: len(s), P50: math.NaN()}
	if len(s) == 0 {
		return out
	}
	out.P50 = s[rank(500, len(s))-1]
	if pm, ok := tailPercentile(len(s)); ok {
		out.TailPct, out.TailMs = float64(pm)/10, s[rank(pm, len(s))-1]
		out.P90, out.HasP90 = s[rank(900, len(s))-1], true
	}
	return out
}

// p90 is the op_ms_p90 metric: it refuses to report below 100 ops.
func (l latencySummary) p90() (float64, error) {
	if !l.HasP90 {
		return 0, fmt.Errorf("op_ms_p90 needs at least %d ops, have %d", minBeyond*10, l.N)
	}
	return l.P90, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// usage is a getrusage reading: CPU time and peak resident set.
type usage struct {
	cpu    time.Duration
	maxRSS int64 // KiB
}

func selfUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return usage{cpu: tv(ru.Utime) + tv(ru.Stime), maxRSS: int64(ru.Maxrss)}
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// hostRecord describes the machine a run measured on. This benchmark's
// timings drift between runs of the same binary, so every run carries the
// state it ran under.
type hostRecord struct {
	NProc      int        `json:"nproc"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	LoadStart  [3]float64 `json:"loadavg_start"`
	LoadEnd    [3]float64 `json:"loadavg_end"`
	GoVersion  string     `json:"go_version"`
	GitSHA     string     `json:"git_sha"`
}

func loadavg() [3]float64 {
	var si syscall.Sysinfo_t
	var out [3]float64
	if err := syscall.Sysinfo(&si); err != nil {
		return out
	}
	for i, l := range si.Loads {
		out[i] = float64(l) / (1 << 16) // SI_LOAD_SHIFT
	}
	return out
}

// gitSHA is the commit the benchmark was built from, set by run.sh.
var gitSHA = "unknown"

func newHostRecord() hostRecord {
	return hostRecord{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		LoadStart:  loadavg(),
		GoVersion:  runtime.Version(),
		GitSHA:     gitSHA,
	}
}
