package main

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"broadcastic/internal/blackboard"
	"broadcastic/internal/disj"
	"broadcastic/internal/rng"
)

// The E1/E2 centre and the shape of the repository's SolveOptimal
// microbenchmark.
const disjN, disjK = 16384, 8

// disjInstances is the size of the instance pool ops cycle through. One
// instance's cost moves with its seed by about ±8%. A pool this large keeps
// that out of the spread between runs on different seeds, and makes op
// times a smooth mixture whose median does not jump between instances.
const disjInstances = 64

// disjBench solves pre-generated mu^n instances, one per op.
type disjBench struct {
	insts []*disj.Instance

	mu      sync.Mutex
	refBits map[int]int64 // instance -> board bits of its first solve

	// traced-phase counts, summed over ops
	bits, messages, coordMsgs int64
}

func setupDisj(seed uint64) (bench, error) {
	src := rng.New(seed)
	b := &disjBench{refBits: make(map[int]int64)}
	for i := 0; i < disjInstances; i++ {
		inst, err := disj.GenerateFromMuN(src, disjN, disjK)
		if err != nil {
			return nil, err
		}
		truth, err := inst.Disjoint()
		if err != nil {
			return nil, err
		}
		if !truth {
			return nil, fmt.Errorf("mu^n instance %d is not disjoint", i)
		}
		b.insts = append(b.insts, inst)
	}
	// One solve outside the measured ops finishes any lazy set-up.
	out, err := disj.SolveOptimal(b.insts[0])
	if err != nil {
		return nil, err
	}
	if err := b.check(0, out.Disjoint, out.Bits); err != nil {
		return nil, err
	}
	return b, nil
}

func (b *disjBench) op(_, i int, tr *tracer) error {
	k := i % len(b.insts)
	inst := b.insts[k]
	if tr == nil {
		out, err := disj.SolveOptimal(inst)
		if err != nil {
			return err
		}
		return b.check(k, out.Disjoint, out.Bits)
	}
	opID := tr.newID()
	opStart := time.Now()
	proto, err := disj.NewOptimalProtocol(inst, disj.Options{})
	if err != nil {
		return err
	}
	runID := tr.newID()
	players := make([]blackboard.Player, len(proto.Players()))
	for j, p := range proto.Players() {
		players[j] = tracedPlayer{p, tr, runID}
	}
	runStart := time.Now()
	res, err := blackboard.Run(tracedScheduler{proto.Scheduler(), tr, runID}, players, nil, proto.Limits())
	runEnd := time.Now()
	if err != nil {
		return err
	}
	tr.add(runID, opID, "blackboard.run", runStart, runEnd)
	out, err := proto.Outcome(res.Board)
	if err != nil {
		return err
	}
	tr.add(opID, 0, "disj-full.op", opStart, time.Now())
	b.bits += int64(res.Board.TotalBits())
	b.messages += int64(res.Board.NumMessages())
	for _, m := range res.Board.Messages() {
		if m.Len > 1 {
			b.coordMsgs++
		}
	}
	return b.check(k, out.Disjoint, res.Board.TotalBits())
}

// check holds every op to the instance's answer, and every solve of an
// instance to the board bits of its first solve.
func (b *disjBench) check(k int, disjoint bool, bits int) error {
	if !disjoint {
		return fmt.Errorf("instance %d: answered non-disjoint on a mu^n instance", k)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	ref, ok := b.refBits[k]
	if !ok {
		b.refBits[k] = int64(bits)
	} else if int64(bits) != ref {
		return fmt.Errorf("instance %d: board bits %d, its first solve wrote %d", k, bits, ref)
	}
	return nil
}

// counts is each instance's board bits, which the untraced and the traced
// half of a traced run must agree on.
func (b *disjBench) counts() map[string]int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]int64, len(b.refBits))
	for k, v := range b.refBits {
		out["instance/"+strconv.Itoa(k)+"/blackboard.bits"] = v
	}
	return out
}

func (b *disjBench) finish() error { return nil }

func (b *disjBench) layers(t *tracer, ops int) (map[string]float64, error) {
	l := t.byName()
	n := float64(ops)
	return map[string]float64{
		"disj.speak_ms":       l["disj.speak"].totalMs() / n,
		"disj.next_ms":        l["disj.next"].totalMs() / n,
		"blackboard.self_ms":  l["blackboard.run"].selfMs() / n,
		"blackboard.bits":     float64(b.bits) / n,
		"blackboard.messages": float64(b.messages) / n,
		"disj.coord_msgs":     float64(b.coordMsgs) / n,
	}, nil
}

// tracedScheduler passes Next through, recording a span per call.
type tracedScheduler struct {
	inner  blackboard.Scheduler
	tr     *tracer
	parent int64
}

func (s tracedScheduler) Next(bd *blackboard.Board) (int, bool, error) {
	t0 := time.Now()
	who, done, err := s.inner.Next(bd)
	s.tr.child(s.parent, "disj.next", t0, time.Now())
	return who, done, err
}

// tracedPlayer passes Speak through, recording a span per call.
type tracedPlayer struct {
	inner  blackboard.Player
	tr     *tracer
	parent int64
}

func (p tracedPlayer) Speak(bd *blackboard.Board) (blackboard.Message, error) {
	t0 := time.Now()
	m, err := p.inner.Speak(bd)
	p.tr.child(p.parent, "disj.speak", t0, time.Now())
	return m, err
}
