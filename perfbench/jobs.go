package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"sync"
	"time"

	"broadcastic/internal/disj"
	"broadcastic/internal/faults"
	"broadcastic/internal/jobs"
	"broadcastic/internal/netrun"
	"broadcastic/internal/rng"
	"broadcastic/internal/telemetry"
)

const (
	// e20Faults leaves corruption out: a corrupted retransmission falls
	// back to the ARQ timeout, which E20 fixes at one second, and op time
	// would then measure a timer. netrun.corrupt_stalls reports it instead.
	e20Faults = "drop=0.05,dup=0.05"
	// hitEvery makes every 4th submission of a client repeat one of its
	// earlier seeds: a fixed 25% of ops are cache hits.
	hitEvery = 4
	// jobsSchedule bounds the ops of one client in a run.
	jobsSchedule = 1 << 14
	// jobWait bounds how long a client waits for a computed job.
	jobWait = 60 * time.Second

	ctrWireBits = "netrun.wire_bits"
	ctrRetries  = "netrun.retries"
)

var tenants = [2]string{"tenant-a", "tenant-b"}

// waiter is the benchmark's view of one computed job: the Runner wrapper
// fills it in and closes done when the run returns.
type waiter struct {
	done             chan struct{}
	runStart, runEnd time.Time
	wire, retries    int64
}

// jobsBench drives an in-process job service the way broadcasticd does:
// one worker, an in-memory cache, the program's Collector as recorder.
type jobsBench struct {
	svc   *jobs.Service
	col   *telemetry.Collector
	seeds [2][]uint64
	hit   [2][]bool

	mu      sync.Mutex
	waiters map[uint64]*waiter
	// per-op deterministic counts of computed jobs, keyed "client/op/name"
	opCounts map[string]int64

	// client-local: only client c touches results[c] and stats[c]
	results [2]map[uint64]string
	stats   [2]jobsClientStats
}

type jobsClientStats struct {
	ops, hits, computed, rejected int
	wire, retries                 int64
}

func setupJobs(seed uint64) (bench, error) {
	b := &jobsBench{
		col:      telemetry.NewCollector(),
		waiters:  make(map[uint64]*waiter),
		opCounts: make(map[string]int64),
	}
	src := rng.New(seed)
	used := make(map[uint64]bool)
	for c := range b.seeds {
		b.results[c] = make(map[uint64]string)
		var fresh []uint64
		for i := 0; i < jobsSchedule; i++ {
			if i%hitEvery == hitEvery-1 {
				b.seeds[c] = append(b.seeds[c], fresh[src.Intn(len(fresh))])
				b.hit[c] = append(b.hit[c], true)
				continue
			}
			s := src.Uint64()
			for used[s] {
				s = src.Uint64()
			}
			used[s] = true
			fresh = append(fresh, s)
			b.seeds[c] = append(b.seeds[c], s)
			b.hit[c] = append(b.hit[c], false)
		}
	}
	b.svc = jobs.New(jobs.Options{
		Workers:  1,
		Cache:    jobs.NewCache(2*jobsSchedule, 1<<30, "", b.col),
		Recorder: b.col,
		Run:      b.run,
	})
	// One job outside the schedule finishes the service's lazy set-up.
	warm := ^seed
	for used[warm] {
		warm++
	}
	if _, err := b.compute(0, warm, nil, 0); err != nil {
		b.svc.Close()
		return nil, fmt.Errorf("warm-up job: %w", err)
	}
	return b, nil
}

func e20Spec(seed uint64) jobs.JobSpec {
	return jobs.JobSpec{Experiment: "E20", Seed: seed, Scale: "quick", Faults: e20Faults, Workers: 1}
}

// run wraps the service's default Runner to time the run and read the
// job's netrun counters; with one worker, Collector deltas are the job's.
func (b *jobsBench) run(spec jobs.JobSpec, rc jobs.RunContext) ([]byte, error) {
	b.mu.Lock()
	w := b.waiters[spec.Seed]
	b.mu.Unlock()
	if w == nil {
		return nil, fmt.Errorf("no client waits for seed %d", spec.Seed)
	}
	wire0, retries0 := b.col.Counter(ctrWireBits), b.col.Counter(ctrRetries)
	w.runStart = time.Now()
	out, err := jobs.RunExperiment(spec, rc)
	w.runEnd = time.Now()
	w.wire, w.retries = b.col.Counter(ctrWireBits)-wire0, b.col.Counter(ctrRetries)-retries0
	close(w.done)
	return out, err
}

// compute submits a seed the cache does not hold and waits until the
// service reports the job Done.
func (b *jobsBench) compute(c int, seed uint64, tr *tracer, opID int64) (*waiter, error) {
	w := &waiter{done: make(chan struct{})}
	b.mu.Lock()
	b.waiters[seed] = w
	b.mu.Unlock()
	defer func() {
		b.mu.Lock()
		delete(b.waiters, seed)
		b.mu.Unlock()
	}()
	t0 := time.Now()
	job, err := b.svc.Submit(tenants[c], e20Spec(seed))
	t1 := time.Now()
	if err != nil {
		return nil, err
	}
	if job.CacheHit {
		return nil, fmt.Errorf("seed %d: unexpected cache hit", seed)
	}
	timer := time.NewTimer(jobWait)
	defer timer.Stop()
	select {
	case <-w.done:
	case <-timer.C:
		return nil, fmt.Errorf("job %s: no run within %v", job.ID, jobWait)
	}
	// The Runner has returned; the service publishes Done right after.
	for {
		j, ok := b.svc.Get(job.ID)
		if !ok {
			return nil, fmt.Errorf("job %s vanished", job.ID)
		}
		if j.State == jobs.Done {
			job = j
			break
		}
		if j.State != jobs.Running {
			return nil, fmt.Errorf("job %s ended %s: %s", job.ID, j.State, j.Error)
		}
		runtime.Gosched()
	}
	t3 := time.Now()
	if job.Result == "" {
		return nil, fmt.Errorf("job %s: empty result", job.ID)
	}
	b.results[c][seed] = job.Result
	tr.child(opID, "jobs.submit_miss", t0, t1)
	if w.runStart.After(t1) {
		tr.child(opID, "jobs.queue_wait", t1, w.runStart)
	}
	tr.child(opID, "sim.run", w.runStart, w.runEnd)
	tr.child(opID, "jobs.finish", w.runEnd, t3)
	return w, nil
}

func (b *jobsBench) op(c, i int, tr *tracer) error {
	if i >= jobsSchedule {
		return fmt.Errorf("op %d beyond the %d-op schedule", i, jobsSchedule)
	}
	seed, hit := b.seeds[c][i], b.hit[c][i]
	st := &b.stats[c]
	st.ops++
	opID := tr.newID()
	t0 := time.Now()
	if !hit {
		w, err := b.compute(c, seed, tr, opID)
		if err != nil {
			if errors.Is(err, jobs.ErrQueueFull) {
				st.rejected++
			}
			return err
		}
		st.computed++
		st.wire += w.wire
		st.retries += w.retries
		key := strconv.Itoa(c) + "/" + strconv.Itoa(i) + "/"
		b.mu.Lock()
		b.opCounts[key+ctrWireBits] = w.wire
		b.opCounts[key+ctrRetries] = w.retries
		b.mu.Unlock()
		tr.add(opID, 0, "jobs-e20.op", t0, time.Now())
		return nil
	}
	job, err := b.svc.Submit(tenants[c], e20Spec(seed))
	t1 := time.Now()
	if err != nil {
		if errors.Is(err, jobs.ErrQueueFull) {
			st.rejected++
		}
		return err
	}
	if !job.CacheHit || job.State != jobs.Done {
		return fmt.Errorf("seed %d: repeat submission was not a cache hit (state %s)", seed, job.State)
	}
	if want := b.results[c][seed]; job.Result != want {
		return fmt.Errorf("seed %d: cached bytes differ from the bytes the miss computed", seed)
	}
	st.hits++
	tr.child(opID, "jobs.submit_hit", t0, t1)
	tr.add(opID, 0, "jobs-e20.op", t0, t1)
	return nil
}

// finish checks the hit ratio the schedule fixes and stops the service.
func (b *jobsBench) finish() error {
	b.svc.Close()
	ops, hits := 0, 0
	for _, st := range b.stats {
		ops += st.ops
		hits += st.hits
	}
	if ops > 0 && hits*hitEvery != ops {
		return fmt.Errorf("cache hit ratio %d/%d, want exactly 1/%d", hits, ops, hitEvery)
	}
	return nil
}

func (b *jobsBench) counts() map[string]int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]int64, len(b.opCounts))
	for k, v := range b.opCounts {
		out[k] = v
	}
	return out
}

func (b *jobsBench) layers(t *tracer, _ int) (map[string]float64, error) {
	l := t.byName()
	var ops, hits, computed, rejected int
	var wire, retries int64
	for _, st := range b.stats {
		ops += st.ops
		hits += st.hits
		computed += st.computed
		rejected += st.rejected
		wire += st.wire
		retries += st.retries
	}
	snap := b.col.Snapshot()
	perJob := func(name string, v int64) float64 {
		if _, ok := snap[name]; !ok {
			return math.NaN()
		}
		return float64(v) / float64(computed)
	}
	stalls, err := corruptStalls()
	if err != nil {
		return nil, fmt.Errorf("corruption-stall probe: %w", err)
	}
	return map[string]float64{
		"jobs.submit_hit_us":    l["jobs.submit_hit"].meanMs() * 1e3,
		"jobs.submit_miss_us":   l["jobs.submit_miss"].meanMs() * 1e3,
		"jobs.queue_wait_ms":    l["jobs.queue_wait"].totalMs() / float64(computed),
		"sim.run_ms":            l["sim.run"].meanMs(),
		"jobs.finish_ms":        l["jobs.finish"].meanMs(),
		"jobs.cache_hit_ratio":  float64(hits) / float64(ops),
		"jobs.rejected":         float64(rejected),
		"netrun.wire_bits":      perJob(ctrWireBits, wire),
		"netrun.retries":        perJob(ctrRetries, retries),
		"netrun.corrupt_stalls": stalls,
	}, nil
}

// Corruption-stall probe: fixed seeds of the networked runtime under
// corrupt=0.04 with a short ARQ timeout. A run that takes longer than the
// timeout sat out at least one timeout: a corrupted frame whose
// retransmission was corrupted too.
const (
	stallRuns    = 40
	stallTimeout = 20 * time.Millisecond
	stallN       = 256
	stallK       = 6
)

func corruptStalls() (float64, error) {
	plan, err := faults.Parse("corrupt=0.04")
	if err != nil {
		return 0, err
	}
	inst, err := disj.GenerateFromMuN(rng.New(20), stallN, stallK)
	if err != nil {
		return 0, err
	}
	stalls := 0
	for s := uint64(1); s <= stallRuns; s++ {
		proto, err := disj.NewOptimalProtocol(inst, disj.Options{})
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		res, err := netrun.Run(proto.Scheduler(), proto.Players(), nil, netrun.Config{
			Faults: plan, Seed: s, Timeout: stallTimeout, Limits: proto.Limits(),
		})
		d := time.Since(t0)
		if err != nil {
			return 0, err
		}
		out, err := proto.Outcome(res.Board)
		if err != nil {
			return 0, err
		}
		if !out.Disjoint {
			return 0, fmt.Errorf("seed %d: answered non-disjoint on a mu^n instance", s)
		}
		if d > stallTimeout {
			stalls++
		}
	}
	return float64(stalls), nil
}
