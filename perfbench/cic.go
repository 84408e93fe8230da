package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"time"

	"broadcastic/internal/andk"
	"broadcastic/internal/core"
	"broadcastic/internal/dist"
	"broadcastic/internal/rng"
	"broadcastic/internal/telemetry"
)

const (
	cicK       = 128
	cicSamples = 20000
	// cicTolerance is how many standard errors an estimate may sit from
	// the closed form.
	cicTolerance = 6
	// cicSeeds bounds the ops of one run; set-up generates them all.
	cicSeeds = 1 << 16
)

// The estimator's engine counters, named as the program records them. They
// are read by name so that a counter a later change removes reads absent.
const (
	ctrSamples     = "core.cic.samples"
	ctrIRSamples   = "core.cic.ir_samples"
	ctrLaneSamples = "core.cic.lane_samples"
)

// cicProblem is the estimate every cic op makes: CIC of the sequential
// AND_k protocol under mu, 20000 samples on one worker.
type cicProblem struct {
	spec  *andk.Sequential
	prior *dist.Mu
	exact float64
}

func newCICProblem() (cicProblem, error) {
	spec, err := andk.NewSequential(cicK)
	if err != nil {
		return cicProblem{}, err
	}
	prior, err := dist.NewMu(cicK)
	if err != nil {
		return cicProblem{}, err
	}
	exact, err := andk.SequentialCICExact(cicK)
	if err != nil {
		return cicProblem{}, err
	}
	return cicProblem{spec, prior, exact}, nil
}

func (p cicProblem) estimate(seed uint64, rec telemetry.Recorder) (*core.CICEstimate, error) {
	return core.EstimateCICOpts(p.spec, p.prior, rng.New(seed), cicSamples,
		core.EstimateOptions{Workers: 1, Recorder: rec})
}

func (p cicProblem) check(mean, stdErr float64) error {
	if d := math.Abs(mean - p.exact); !(d <= cicTolerance*stdErr) {
		return fmt.Errorf("estimate %.6f is %.6f from the closed form %.6f, more than %d x stderr %.6f",
			mean, d, p.exact, cicTolerance, stdErr)
	}
	return nil
}

func cicSeedList(seed uint64) []uint64 {
	src := rng.New(seed)
	seeds := make([]uint64, cicSeeds)
	for i := range seeds {
		seeds[i] = src.Uint64()
	}
	return seeds
}

// cicWarm estimates in this long-lived process, a fresh seed per op.
type cicWarm struct {
	p     cicProblem
	seeds []uint64
	col   *telemetry.Collector
}

func setupCICWarm(seed uint64) (bench, error) {
	p, err := newCICProblem()
	if err != nil {
		return nil, err
	}
	// The set-up estimate pays the engine's one-time cost (program
	// compile), so that cost lands in setup_s, not in the ops.
	seeds := cicSeedList(seed)
	est, err := p.estimate(^seed, nil)
	if err != nil {
		return nil, err
	}
	if err := p.check(est.Mean, est.StdErr); err != nil {
		return nil, err
	}
	return &cicWarm{p: p, seeds: seeds, col: telemetry.NewCollector()}, nil
}

func (b *cicWarm) op(_, i int, tr *tracer) error {
	if i >= len(b.seeds) {
		return fmt.Errorf("op %d beyond the %d generated seeds", i, len(b.seeds))
	}
	var rec telemetry.Recorder
	if tr != nil {
		rec = b.col
	}
	opID := tr.newID()
	t0 := time.Now()
	est, err := b.p.estimate(b.seeds[i], rec)
	t1 := time.Now()
	if err != nil {
		return err
	}
	tr.child(opID, "core.call", t0, t1)
	tr.add(opID, 0, "cic-warm.op", t0, time.Now())
	return b.p.check(est.Mean, est.StdErr)
}

func (b *cicWarm) finish() error { return nil }

func (b *cicWarm) layers(t *tracer, ops int) (map[string]float64, error) {
	call := t.byName()["core.call"]
	out := map[string]float64{
		"core.call_ms":       call.meanMs(),
		"core.ns_per_sample": float64(call.Total) / float64(call.Count) / cicSamples,
	}
	snap := b.col.Snapshot()
	per := func(name string) float64 {
		v, ok := snap[name]
		if !ok {
			return math.NaN()
		}
		return v / float64(ops)
	}
	out["core.ir_samples"] = per(ctrIRSamples)
	out["core.lane_samples"] = per(ctrLaneSamples)
	// No engine counts its own scalar samples: they are the samples the
	// other two engines did not serve.
	scalar := per(ctrSamples)
	for _, n := range []string{ctrIRSamples, ctrLaneSamples} {
		if v := per(n); !math.IsNaN(v) {
			scalar -= v
		}
	}
	out["core.scalar_samples"] = scalar
	cold, err := b.coldProbe(t)
	if err != nil {
		return nil, fmt.Errorf("cold probe: %w", err)
	}
	for k, v := range cold {
		out[k] = v
	}
	return out, nil
}

// coldProbes is how many fresh child processes the traced run of
// cic-warm starts to split a first-seen estimate into its layers.
const coldProbes = 10

// childEstimate is one estimate as a cic child reports it.
type childEstimate struct {
	Mean   float64 `json:"mean"`
	StdErr float64 `json:"stderr"`
	CallNs int64   `json:"call_ns"`
}

// sameEstimate compares two estimates bit for bit.
func sameEstimate(a, b childEstimate) bool {
	return math.Float64bits(a.Mean) == math.Float64bits(b.Mean) &&
		math.Float64bits(a.StdErr) == math.Float64bits(b.StdErr)
}

// coldSplit is one child's first-seen estimate, split into its parts.
type coldSplit struct {
	start        time.Duration // exec until the child reports ready
	first, again childEstimate // the estimate, then the same call repeated
}

// coldProbe runs the cold children and returns the per-layer means. Each
// child's estimate must equal its repeat and this process's warm estimate
// on the same seed, bit for bit.
func (b *cicWarm) coldProbe(t *tracer) (map[string]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var start, first, again time.Duration
	for i := 0; i < coldProbes; i++ {
		seed := b.seeds[i]
		sp, err := coldCall(exe, seed, t)
		if err != nil {
			return nil, err
		}
		warm, err := b.p.estimate(seed, nil)
		if err != nil {
			return nil, err
		}
		if !sameEstimate(sp.again, sp.first) || !sameEstimate(childEstimate{Mean: warm.Mean, StdErr: warm.StdErr}, sp.first) {
			return nil, fmt.Errorf("seed %d: cold estimate %v±%v, its repeat %v±%v, warm %v±%v", seed,
				sp.first.Mean, sp.first.StdErr, sp.again.Mean, sp.again.StdErr, warm.Mean, warm.StdErr)
		}
		if err := b.p.check(sp.first.Mean, sp.first.StdErr); err != nil {
			return nil, err
		}
		start += sp.start
		first += time.Duration(sp.first.CallNs)
		again += time.Duration(sp.again.CallNs)
	}
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 / coldProbes }
	return map[string]float64{
		"proc.start_ms":        ms(start),
		"core.first_call_ms":   ms(first),
		"core.repeat_call_ms":  ms(again),
		"core.engine_setup_ms": ms(first - again),
	}, nil
}

// coldCall runs one cic child and waits for it to exit.
func coldCall(exe string, seed uint64, t *tracer) (coldSplit, error) {
	cmd := exec.Command(exe, "-child", "cic", "-seed", strconv.FormatUint(seed, 10))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return coldSplit{}, err
	}
	id := t.newID()
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return coldSplit{}, err
	}
	sp, err := readCold(bufio.NewScanner(stdout), t, id, t0)
	if err != nil {
		_ = cmd.Process.Kill() // the report's error is the one to return
		_ = cmd.Wait()
		return coldSplit{}, err
	}
	if err := cmd.Wait(); err != nil {
		return coldSplit{}, fmt.Errorf("cic child: %w", err)
	}
	t.add(id, 0, "cold.probe", t0, time.Now())
	return sp, nil
}

// readCold parses a child's report: "ready", then one estimate per line.
func readCold(sc *bufio.Scanner, t *tracer, id int64, t0 time.Time) (coldSplit, error) {
	var sp coldSplit
	if !sc.Scan() || sc.Text() != "ready" {
		return sp, fmt.Errorf("cic child: want ready, got %q (%v)", sc.Text(), sc.Err())
	}
	ready := time.Now()
	sp.start = ready.Sub(t0)
	t.child(id, "proc.start", t0, ready)
	for _, c := range []struct {
		est  *childEstimate
		name string
	}{{&sp.first, "core.first_call"}, {&sp.again, "core.repeat_call"}} {
		if !sc.Scan() {
			return sp, fmt.Errorf("cic child: report ended early (%v)", sc.Err())
		}
		if err := json.Unmarshal(sc.Bytes(), c.est); err != nil {
			return sp, fmt.Errorf("cic child line %q: %w", sc.Bytes(), err)
		}
		end := time.Now()
		t.child(id, c.name, end.Add(-time.Duration(c.est.CallNs)), end)
	}
	return sp, nil
}

// cicChild is the child side of a cold probe: announce readiness, make the
// estimate, repeat it on the same seed, and report both.
func cicChild(seed uint64, stdout io.Writer) error {
	fmt.Fprintln(stdout, "ready")
	p, err := newCICProblem()
	if err != nil {
		return err
	}
	enc := json.NewEncoder(stdout)
	for c := 0; c < 2; c++ {
		t0 := time.Now()
		est, err := p.estimate(seed, nil)
		d := time.Since(t0)
		if err != nil {
			return err
		}
		if err := enc.Encode(childEstimate{Mean: est.Mean, StdErr: est.StdErr, CallNs: d.Nanoseconds()}); err != nil {
			return err
		}
	}
	return nil
}
