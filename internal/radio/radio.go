// Package radio makes the paper's wireless reading of the broadcast model
// concrete. Section 1 notes the blackboard "can also be viewed as an
// abstract model of single-hop wireless networks, which abstracts away the
// details of contention management" — this package puts the contention
// back and measures what the abstraction hides.
//
// The substrate is a slotted single-hop channel: in each slot any subset
// of stations may transmit; a slot is idle (nobody), a success (exactly
// one), or a collision (two or more, nothing received). A station that has
// won a slot streams its message over ⌈bits/payload⌉ data slots.
//
// Two ways to run the Section 5 disjointness protocol on this channel:
//
//   - Polled: the blackboard schedule is deterministic, so stations take
//     turns with zero contention — every board message maps directly to
//     slots. This is the paper's abstraction, priced in airtime.
//   - Contention: nobody polls. Any station holding at least ⌈z/k⌉ new
//     zeroes (against the current board, z = live coordinates) contends in
//     a window of k slots, picking a slot uniformly; the first solo
//     transmission wins and sends its batch, after which everyone
//     recomputes. A completely idle window certifies that no station
//     qualifies — by the pigeonhole argument that is a proof of
//     non-disjointness — so the protocol is Las Vegas: zero error, random
//     slot count.
//
// Experiment E19 compares the two across (n, k).
package radio

import (
	"fmt"

	"broadcastic/internal/bitvec"
	"broadcastic/internal/disj"
	"broadcastic/internal/encoding"
	"broadcastic/internal/rng"
)

// SlotReport accounts for channel usage.
type SlotReport struct {
	DataSlots      int // slots carrying message payload
	ControlSlots   int // contention/polling slots (idle, collision, preamble)
	Collisions     int // collision slots (subset of ControlSlots)
	IdleSlots      int // idle slots (subset of ControlSlots)
	Bits           int // payload bits carried
	ContentionWins int // successful channel acquisitions
}

// TotalSlots returns data plus control slots.
func (r *SlotReport) TotalSlots() int { return r.DataSlots + r.ControlSlots }

// dataSlots converts a message size to slot count (at least one slot).
func dataSlots(bits, payload int) int {
	if bits <= 0 {
		return 1
	}
	return (bits + payload - 1) / payload
}

// RunPolledDisj maps a deterministic Section 5 execution onto the channel:
// each board message occupies its data slots; there is no contention
// because the schedule is common knowledge. Pass messages (1 bit) are
// counted as control slots — they exist only to keep the schedule moving.
func RunPolledDisj(inst *disj.Instance, payloadBits int) (*disj.Outcome, *SlotReport, error) {
	if payloadBits < 1 {
		return nil, nil, fmt.Errorf("radio: payload %d bits < 1", payloadBits)
	}
	out, sizes, err := disj.SolveOptimalMessages(inst, disj.Options{})
	if err != nil {
		return nil, nil, err
	}
	report := &SlotReport{}
	for _, bits := range sizes {
		if bits <= 1 {
			report.ControlSlots++
		} else {
			report.DataSlots += dataSlots(bits, payloadBits)
		}
		report.Bits += bits
	}
	return out, report, nil
}

// ContentionDisj solves disjointness over the contended channel with
// channel capture and binary exponential backoff:
//
//   - any station holding at least one "new zero" (a zero coordinate of
//     its input not yet on the board) contends;
//   - contention runs in windows of 1, 2, 4, …, k slots (doubling after a
//     window with collisions, resetting after a success); every contender
//     transmits in exactly one uniformly random slot of each window;
//   - the first solo transmission captures the channel, and the winner
//     dumps ALL its new zeroes in one message (station id, count, and a
//     ⌈log₂ C(z, c)⌉-bit subset of the live set);
//   - because every contender transmits once per window, a window with no
//     transmissions at all certifies that nobody has a new zero — every
//     live coordinate is in everyone's set — which is a proof of
//     non-disjointness. The protocol is therefore Las Vegas: zero error,
//     random slot count.
//
// Each station dumps at most once (its new-zero set only shrinks), so
// there are at most k captures.
func ContentionDisj(inst *disj.Instance, payloadBits int, src *rng.Source) (*disj.Outcome, *SlotReport, error) {
	if inst == nil {
		return nil, nil, fmt.Errorf("radio: nil instance")
	}
	if payloadBits < 1 {
		return nil, nil, fmt.Errorf("radio: payload %d bits < 1", payloadBits)
	}
	if src == nil {
		return nil, nil, fmt.Errorf("radio: nil randomness source")
	}
	n, k := inst.N, inst.K
	report := &SlotReport{}

	// live holds the coordinates not yet on the board; station i's new
	// zeroes are live \ X_i. Only a capture changes live, so the counts
	// are recomputed after captures only, and a capture covers the
	// winner's new zeroes by live ∩= X_winner.
	live, err := bitvec.New(n)
	if err != nil {
		return nil, nil, err
	}
	live.SetAll()
	z := n
	counts := make([]int, k)        // new zeroes per station
	contenders := make([]int, 0, k) // stations holding any, ascending
	recount := func() error {
		z = live.Count()
		contenders = contenders[:0]
		for i := range k {
			c, err := live.AndNotCount(inst.Sets[i])
			if err != nil {
				return err
			}
			if counts[i] = c; c > 0 {
				contenders = append(contenders, i)
			}
		}
		return nil
	}
	if err := recount(); err != nil {
		return nil, nil, err
	}
	// Per slot of the window: how many contenders chose it, and the
	// first of them.
	slotLoad := make([]int, k)
	slotFirst := make([]int, k)
	window := 1

	// Safety bound: at most k captures, expected O(log k) windows between
	// captures; 64·(k+1) windows of ≤ 2 expected retries each is generous.
	maxWindows := 64 * (k + 16) * 32

	for round := 0; ; round++ {
		if round > maxWindows {
			return nil, nil, fmt.Errorf("radio: contention did not converge in %d windows", maxWindows)
		}
		if z == 0 {
			return &disj.Outcome{Disjoint: true, Bits: report.Bits}, report, nil
		}

		// One contention window. Every contender transmits in exactly one
		// slot, so a fully silent window certifies there are no contenders.
		clear(slotLoad[:window])
		for _, station := range contenders {
			s := src.Intn(window)
			if slotLoad[s] == 0 {
				slotFirst[s] = station
			}
			slotLoad[s]++
		}
		transmissions := false
		won := false
		for s := 0; s < window && !won; s++ {
			report.ControlSlots++
			switch slotLoad[s] {
			case 0:
				report.IdleSlots++
			case 1:
				transmissions = true
				won = true
				winner := slotFirst[s]
				bits := encoding.FixedWidth(uint64(k)) // station id preamble
				bits += encoding.NonNegLen(uint64(counts[winner]))
				batchBits, err := encoding.BinomialBitLen(z, counts[winner])
				if err != nil {
					return nil, nil, err
				}
				bits += batchBits
				report.DataSlots += dataSlots(bits, payloadBits)
				report.Bits += bits
				report.ContentionWins++
				if err := live.And(inst.Sets[winner]); err != nil {
					return nil, nil, err
				}
				if err := recount(); err != nil {
					return nil, nil, err
				}
			default:
				transmissions = true
				report.Collisions++
			}
		}
		switch {
		case won:
			window = 1 // capture succeeded: reset backoff
		case transmissions:
			if window < k {
				window *= 2 // collisions: back off
				if window > k {
					window = k
				}
			}
		default:
			// A completely silent window: no station holds a new zero, so
			// every live coordinate is common to all sets.
			if len(contenders) != 0 {
				return nil, nil, fmt.Errorf("radio: silent window with %d contenders", len(contenders))
			}
			return &disj.Outcome{Disjoint: false, Bits: report.Bits}, report, nil
		}
	}
}
