// Command perfbench is the repository's benchmark. It drives one workload
// as a closed loop for a fixed time and prints, as the last line of its
// standard output, one JSON object: the end-to-end metrics with -trace 0,
// or the per-layer metrics of a traced run with -trace 1. README.md in
// this directory describes the workloads, the metrics and which layer
// metric should move which end-to-end metric.
//
//	go build -o perfbench . && ./perfbench -workload disj-full -seed 1 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// minOps is the fewest ops a measured run may end with: p90 then has
	// at least minBeyond samples beyond it. A run keeps going past its
	// time budget until it has them.
	minOps = minBeyond * 10
	// minTracedOps bounds each half of a traced run from below; it reports
	// means, not tails.
	minTracedOps = 10
	// setupRuns is how many cold set-ups setup_s takes the median of: the
	// run's own plus setupRuns-1 in fresh child processes, so no
	// process-wide cache makes a repeat set-up cheaper than the first.
	setupRuns = 9
	// hardStop ends a phase that has not reached its op floor by then,
	// so that a run always ends within the time it is given.
	hardStop = 120 * time.Second
	// traceDir holds the span dumps of traced runs, relative to the
	// directory the benchmark runs in.
	traceDir = ".bench_build/traces"
)

// bench is one workload's state after set-up.
type bench interface {
	// op runs op i of client c and checks its output; an error is a failed
	// op. tr is nil outside traced phases.
	op(c, i int, tr *tracer) error
	// finish runs the checks that need the whole phase and releases the
	// bench. Its error fails the run's correctness.
	finish() error
	// layers returns the per-layer metrics of a traced phase. NaN marks a
	// program counter that is absent, or a mean over no ops.
	layers(t *tracer, ops int) (map[string]float64, error)
}

type workload struct {
	name    string
	clients int // closed-loop client goroutines
	// block is how many ops each client runs between stop checks
	// (jobs-e20 stops on a multiple of its 4-op hit schedule).
	block int
	setup func(seed uint64) (bench, error)
}

var workloads = []workload{
	{"disj-full", 1, 1, setupDisj},
	{"cic-warm", 1, 1, setupCICWarm},
	{"jobs-e20", 2, hitEvery, setupJobs},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
	{"allocs_per_op", "count"},
}

// perLayer lists every per-layer metric. A traced run reports all of
// them; a layer its workload does not exercise reads 0.
var perLayer = []metricSpec{
	{"disj.speak_ms", "ms"},
	{"disj.next_ms", "ms"},
	{"blackboard.self_ms", "ms"},
	{"blackboard.bits", "bits"},
	{"blackboard.messages", "count"},
	{"disj.coord_msgs", "count"},
	{"proc.start_ms", "ms"},
	{"core.first_call_ms", "ms"},
	{"core.repeat_call_ms", "ms"},
	{"core.engine_setup_ms", "ms"},
	{"core.call_ms", "ms"},
	{"core.ns_per_sample", "ns"},
	{"core.ir_samples", "count"},
	{"core.lane_samples", "count"},
	{"core.scalar_samples", "count"},
	{"jobs.submit_hit_us", "us"},
	{"jobs.submit_miss_us", "us"},
	{"jobs.queue_wait_ms", "ms"},
	{"sim.run_ms", "ms"},
	{"jobs.finish_ms", "ms"},
	{"jobs.cache_hit_ratio", "ratio"},
	{"jobs.rejected", "count"},
	{"netrun.wire_bits", "bits"},
	{"netrun.retries", "count"},
	{"netrun.corrupt_stalls", "count"},
	{"trace.ops_per_s", "1/s"},
	{"trace.untraced_ops_per_s", "1/s"},
	{"trace.overhead_pct", "%"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: disj-full, cic-warm or jobs-e20")
	seed := fs.Uint64("seed", 1, "workload seed; every input is generated from it")
	seconds := fs.Int("seconds", 20, "measured time per run, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced split and prints per-layer metrics")
	child := fs.String("child", "", "internal: run as a child process (setup or cic)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var err error
	switch *child {
	case "":
		err = parent(*name, *seed, *seconds, *trace, stdout, stderr)
	case "setup":
		err = setupChild(*name, *seed, stdout)
	case "cic":
		err = cicChild(*seed, stdout)
	default:
		err = fmt.Errorf("unknown child mode %q", *child)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func parent(name string, seed uint64, seconds, trace int, stdout, stderr io.Writer) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1, got %d", seconds)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	host := newHostRecord()
	budget := time.Duration(seconds) * time.Second
	var res result
	if trace == 0 {
		res, err = measured(w, seed, budget, stdout, stderr)
	} else {
		res, err = traced(w, seed, budget, stdout, stderr)
	}
	if err != nil {
		return err
	}
	host.LoadEnd = loadavg()
	hj, _ := json.Marshal(host) // plain struct: cannot fail
	fmt.Fprintf(stdout, "host %s\n", hj)
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return nil
}

// phase is what one closed-loop phase measured.
type phase struct {
	opMs      []float64
	attempted int
	failed    int
	wall      time.Duration
	cpu       time.Duration
	mallocs   uint64
	maxRSSKiB int64
}

func (p phase) opsPerS() float64 { return float64(len(p.opMs)) / p.wall.Seconds() }

// runPhase drives b with w.clients closed-loop clients until the budget
// is spent and at least floor ops have been attempted, or until hardStop.
// Each client stops only at a multiple of w.block ops.
func runPhase(w workload, b bench, budget time.Duration, floor int, tr *tracer, stderr io.Writer) phase {
	u0, m0 := selfUsage(), mallocs()
	var attempts atomic.Int64
	var mu sync.Mutex
	var p phase
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var lat []float64
			attempted, failed := 0, 0
			for i := 0; ; i++ {
				if el := time.Since(start); i%w.block == 0 && el >= budget && (attempts.Load() >= int64(floor) || el >= hardStop) {
					break
				}
				attempts.Add(1)
				t0 := time.Now()
				err := b.op(c, i, tr)
				d := time.Since(t0)
				attempted++
				if err != nil {
					failed++
					if failed <= 5 {
						fmt.Fprintf(stderr, "%s: client %d op %d failed: %v\n", w.name, c, i, err)
					}
					continue
				}
				lat = append(lat, float64(d)/1e6)
			}
			mu.Lock()
			p.opMs = append(p.opMs, lat...)
			p.attempted += attempted
			p.failed += failed
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	p.wall = time.Since(start)
	p.mallocs = mallocs() - m0
	u := selfUsage()
	p.cpu, p.maxRSSKiB = u.cpu-u0.cpu, u.maxRSS
	return p
}

// measured is the untraced run: set-up timing, one timed phase, and the
// end-to-end metrics.
func measured(w workload, seed uint64, budget time.Duration, stdout, stderr io.Writer) (result, error) {
	setups, b, err := setupTimes(w, seed)
	if err != nil {
		return result{}, err
	}
	p := runPhase(w, b, budget, minOps, nil, stderr)
	checkErr := b.finish()
	res := result{Attempted: p.attempted, Failed: p.failed, Metrics: map[string]metric{}}
	res.Correct = p.failed == 0 && checkErr == nil
	if checkErr != nil {
		fmt.Fprintf(stderr, "%s: check failed: %v\n", w.name, checkErr)
	}
	lat := summarize(p.opMs)
	p90, err := lat.p90()
	if err != nil {
		return result{}, err
	}
	ops := float64(len(p.opMs))
	vals := map[string]float64{
		"setup_s":       median(setups),
		"ops_per_s":     p.opsPerS(),
		"op_ms_p50":     lat.P50,
		"op_ms_p90":     p90,
		"cpu_ms_per_op": float64(p.cpu) / 1e6 / ops,
		"peak_rss_mb":   float64(p.maxRSSKiB) / 1024,
		"allocs_per_op": float64(p.mallocs) / ops,
	}
	fmt.Fprintf(stdout, "workload %s seed %d: %d ops (%d attempted, %d failed) in %.3f s, %d client(s)\n",
		w.name, seed, len(p.opMs), p.attempted, p.failed, p.wall.Seconds(), w.clients)
	fmt.Fprintf(stdout, "setup runs (s): %s\n", floats(setups))
	fmt.Fprintf(stdout, "tail: p%g = %.4f ms (%d samples, at least %d beyond)\n", lat.TailPct, lat.TailMs, lat.N, minBeyond)
	for _, m := range endToEnd {
		res.Metrics[m.name] = metric{Value: vals[m.name], Unit: m.unit}
		fmt.Fprintf(stdout, "%-16s %14.4f %s\n", m.name, vals[m.name], m.unit)
	}
	return res, nil
}

// traced is the traced run: an untraced half and a traced half, each on a
// fresh set-up, so the tracing overhead reads off the two ops_per_s.
func traced(w workload, seed uint64, budget time.Duration, stdout, stderr io.Writer) (result, error) {
	half := budget / 2
	bA, err := w.setup(seed)
	if err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	pA := runPhase(w, bA, half, minTracedOps, nil, stderr)
	errA := bA.finish()

	bB, err := w.setup(seed)
	if err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	tr := newTracer()
	pB := runPhase(w, bB, half, minTracedOps, tr, stderr)
	layers, errL := bB.layers(tr, len(pB.opMs))
	if layers == nil {
		layers = map[string]float64{}
	}
	errB := bB.finish()
	errCmp := compareDeterministic(bA, bB)

	res := result{Attempted: pA.attempted + pB.attempted, Failed: pA.failed + pB.failed, Metrics: map[string]metric{}}
	res.Correct = res.Failed == 0
	for _, e := range []error{errA, errL, errB, errCmp} {
		if e != nil {
			res.Correct = false
			fmt.Fprintf(stderr, "%s: check failed: %v\n", w.name, e)
		}
	}
	layers["trace.ops_per_s"] = pB.opsPerS()
	layers["trace.untraced_ops_per_s"] = pA.opsPerS()
	layers["trace.overhead_pct"] = (pA.opsPerS()/pB.opsPerS() - 1) * 100

	fmt.Fprintf(stdout, "workload %s seed %d traced: untraced half %d ops in %.3f s, traced half %d ops in %.3f s\n",
		w.name, seed, len(pA.opMs), pA.wall.Seconds(), len(pB.opMs), pB.wall.Seconds())
	printSelfTimes(stdout, tr.byName())
	for _, m := range perLayer {
		v, ok := layers[m.name]
		switch {
		case !ok:
			fmt.Fprintf(stdout, "%-26s %14s %s (not exercised)\n", m.name, "-", m.unit)
			v = 0
		case math.IsNaN(v) || math.IsInf(v, 0):
			fmt.Fprintf(stdout, "%-26s %14s %s (counter absent or no ops)\n", m.name, "absent", m.unit)
			v = 0 // the JSON line carries a number for every metric
		default:
			fmt.Fprintf(stdout, "%-26s %14.4f %s\n", m.name, v, m.unit)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
	if err := tr.write(path); err != nil {
		return result{}, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(stdout, "spans written to %s\n", path)
	return res, nil
}

// deterministic is implemented by benches whose per-op counts must repeat
// exactly between the untraced and the traced half of a traced run.
type deterministic interface {
	counts() map[string]int64
}

// compareDeterministic checks every count both halves recorded for the
// same op.
func compareDeterministic(a, b bench) error {
	da, ok := a.(deterministic)
	if !ok {
		return nil
	}
	ca, cb := da.counts(), b.(deterministic).counts()
	common := 0
	for k, va := range ca {
		vb, ok := cb[k]
		if !ok {
			continue
		}
		common++
		if va != vb {
			return fmt.Errorf("count %s: untraced %d, traced %d", k, va, vb)
		}
	}
	if common == 0 {
		return errors.New("the two halves share no op to compare counts on")
	}
	return nil
}

// setupTimes measures setupRuns cold set-ups, setupRuns-1 of them in
// child processes, and returns the run's own bench.
func setupTimes(w workload, seed uint64) ([]float64, bench, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	var times []float64
	for i := 1; i < setupRuns; i++ {
		cmd := exec.Command(exe, "-child", "setup", "-workload", w.name, "-seed", strconv.FormatUint(seed, 10))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, nil, fmt.Errorf("setup child: %w", err)
		}
		s, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
		if err != nil {
			return nil, nil, fmt.Errorf("setup child output %q: %w", out, err)
		}
		times = append(times, s)
	}
	t0 := time.Now()
	b, err := w.setup(seed)
	if err != nil {
		return nil, nil, fmt.Errorf("setup: %w", err)
	}
	times = append(times, time.Since(t0).Seconds())
	return times, b, nil
}

// setupChild runs one set-up in this fresh process and prints its time.
func setupChild(name string, seed uint64, stdout io.Writer) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	t0 := time.Now()
	b, err := w.setup(seed)
	if err != nil {
		return err
	}
	d := time.Since(t0)
	if err := b.finish(); err != nil {
		return err
	}
	fmt.Fprintln(stdout, strconv.FormatFloat(d.Seconds(), 'g', -1, 64))
	return nil
}

func floats(xs []float64) string {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	parts := make([]string, len(s))
	for i, x := range s {
		parts[i] = strconv.FormatFloat(x, 'f', 4, 64)
	}
	return strings.Join(parts, " ")
}
