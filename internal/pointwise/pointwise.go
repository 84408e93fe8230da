// Package pointwise implements the pointwise-OR (set union) problem the
// paper discusses when comparing its techniques to symmetrization
// (Phillips–Verbin–Zhang [24]): the k players must output the coordinate-
// wise OR of their inputs, i.e. the union U = ∪_i X_i, written in full on
// the blackboard.
//
// The protocol is the natural dual of the Section 5 disjointness protocol:
// one pass in which each player writes its elements not yet on the board,
// batched as a subset of the still-undetermined coordinates in
// ⌈log₂ C(z_i, c_i)⌉ bits. A coordinate no player claims is absent by
// default, so absences cost nothing. The total cost is within a small
// constant of the information-theoretic minimum log₂ C(n, |U|) + k: the
// union itself takes that many bits to write down.
package pointwise

import (
	"fmt"

	"broadcastic/internal/bitvec"
	"broadcastic/internal/blackboard"
	"broadcastic/internal/encoding"
	"broadcastic/internal/rng"
)

// Instance is a pointwise-OR input: per-player element sets over [n].
type Instance struct {
	N    int
	K    int
	Sets []*bitvec.Vector
}

// NewInstance validates per-player sets.
func NewInstance(n int, sets []*bitvec.Vector) (*Instance, error) {
	if n < 1 {
		return nil, fmt.Errorf("pointwise: universe size %d < 1", n)
	}
	if len(sets) < 1 {
		return nil, fmt.Errorf("pointwise: no players")
	}
	for i, s := range sets {
		if s == nil || s.Len() != n {
			return nil, fmt.Errorf("pointwise: player %d set invalid", i)
		}
	}
	return &Instance{N: n, K: len(sets), Sets: sets}, nil
}

// Generate samples an instance with the given per-element membership
// density.
func Generate(src *rng.Source, n, k int, density float64) (*Instance, error) {
	if src == nil {
		return nil, fmt.Errorf("pointwise: nil randomness source")
	}
	if n < 1 || k < 1 {
		return nil, fmt.Errorf("pointwise: need n >= 1 and k >= 1, got n=%d k=%d", n, k)
	}
	if density < 0 || density > 1 {
		return nil, fmt.Errorf("pointwise: density %v outside [0,1]", density)
	}
	sets := make([]*bitvec.Vector, k)
	for i := range sets {
		v, err := bitvec.New(n)
		if err != nil {
			return nil, err
		}
		for j := 0; j < n; j++ {
			if src.Bernoulli(density) {
				if err := v.Set(j); err != nil {
					return nil, err
				}
			}
		}
		sets[i] = v
	}
	return NewInstance(n, sets)
}

// TrueUnion computes the union directly.
func (inst *Instance) TrueUnion() (*bitvec.Vector, error) {
	u, err := bitvec.New(inst.N)
	if err != nil {
		return nil, err
	}
	for _, s := range inst.Sets {
		if err := u.Or(s); err != nil {
			return nil, err
		}
	}
	return u, nil
}

// Result reports a union protocol run.
type Result struct {
	Union *bitvec.Vector
	Bits  int
}

// SolveUnion runs the one-pass batched protocol. Message format per
// player: the count of new elements (Elias gamma of count+1), then the
// elements as a subset of the player's live set (the coordinates not yet
// claimed when its turn starts) in ⌈log₂ C(z_i, c_i)⌉ bits.
func SolveUnion(inst *Instance) (*Result, error) {
	if inst == nil {
		return nil, fmt.Errorf("pointwise: nil instance")
	}
	n, k := inst.N, inst.K

	// claimed is a pure function of the board, maintained as messages are
	// decoded (the scheduler never reads player inputs).
	claimed := make([]bool, n)
	var live []int // live set at the current player's turn

	// One writer, position buffer and subset code serve every player and
	// the decoder in turn: turns are strictly sequential and NewMessage
	// copies the payload, so the scratch never escapes a turn. The code
	// keeps its memoized binomials while the live set's size is unchanged.
	var (
		w         encoding.BitWriter
		positions []int
		code      encoding.SubsetCode
	)
	players := make([]blackboard.Player, k)
	for i := 0; i < k; i++ {
		i := i
		players[i] = blackboard.FuncPlayer(func(b *blackboard.Board) (blackboard.Message, error) {
			positions = positions[:0]
			for pos, coord := range live {
				if inst.Sets[i].Get(coord) {
					positions = append(positions, pos)
				}
			}
			w.Reset()
			if err := encoding.WriteNonNeg(&w, uint64(len(positions))); err != nil {
				return blackboard.Message{}, err
			}
			if err := code.Reset(len(live), len(positions)); err != nil {
				return blackboard.Message{}, err
			}
			if err := code.Write(&w, positions); err != nil {
				return blackboard.Message{}, err
			}
			return blackboard.NewMessage(i, &w), nil
		})
	}

	processed := 0
	sched := blackboard.FuncScheduler(func(b *blackboard.Board) (int, bool, error) {
		// Decode any new message against the live set of its turn.
		for _, m := range b.Messages()[processed:] {
			r, err := m.Reader()
			if err != nil {
				return 0, false, err
			}
			cnt, err := encoding.ReadNonNeg(r)
			if err != nil {
				return 0, false, fmt.Errorf("pointwise: count: %w", err)
			}
			if err := code.Reset(len(live), int(cnt)); err != nil {
				return 0, false, fmt.Errorf("pointwise: batch: %w", err)
			}
			positions, err = code.Read(r, positions)
			if err != nil {
				return 0, false, fmt.Errorf("pointwise: batch: %w", err)
			}
			for _, pos := range positions {
				claimed[live[pos]] = true
			}
			if r.Remaining() != 0 {
				return 0, false, fmt.Errorf("pointwise: %d trailing bits", r.Remaining())
			}
			processed++
		}
		if b.NumMessages() >= k {
			return 0, true, nil
		}
		// Recompute the live set for the next speaker.
		live = live[:0]
		for j := 0; j < n; j++ {
			if !claimed[j] {
				live = append(live, j)
			}
		}
		return b.NumMessages(), false, nil
	})

	res, err := blackboard.Run(sched, players, nil, blackboard.Limits{MaxMessages: k})
	if err != nil {
		return nil, fmt.Errorf("pointwise: union protocol: %w", err)
	}
	union, err := bitvec.New(n)
	if err != nil {
		return nil, err
	}
	for j, c := range claimed {
		if c {
			if err := union.Set(j); err != nil {
				return nil, err
			}
		}
	}
	return &Result{Union: union, Bits: res.Board.TotalBits()}, nil
}

// InformationLowerBound returns the information-theoretic minimum for
// announcing the union: ⌈log₂ C(n, |U|)⌉ bits for the set itself plus one
// bit per player (everyone must speak).
func InformationLowerBound(n, unionSize, k int) (int, error) {
	if unionSize < 0 || unionSize > n {
		return 0, fmt.Errorf("pointwise: union size %d outside [0,%d]", unionSize, n)
	}
	setBits := 0
	if unionSize > 0 && unionSize < n {
		b, err := encoding.BinomialBitLen(n, unionSize)
		if err != nil {
			return 0, err
		}
		setBits = b
	}
	return setBits + k, nil
}

// SolveNaive is the baseline: every player writes its raw n-bit
// characteristic vector — n·k bits regardless of the union's size.
func SolveNaive(inst *Instance) (*Result, error) {
	if inst == nil {
		return nil, fmt.Errorf("pointwise: nil instance")
	}
	union, err := inst.TrueUnion()
	if err != nil {
		return nil, err
	}
	return &Result{Union: union, Bits: inst.N * inst.K}, nil
}
