package disj

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"testing"

	"broadcastic/internal/blackboard"
	"broadcastic/internal/rng"
)

// boardDigest hashes a full board: player, length and payload of every
// message in order.
func boardDigest(b *blackboard.Board) string {
	h := sha256.New()
	var hdr [8]byte
	for _, m := range b.Messages() {
		binary.BigEndian.PutUint32(hdr[:4], uint32(m.Player))
		binary.BigEndian.PutUint32(hdr[4:], uint32(m.Len))
		h.Write(hdr[:])
		h.Write(m.Bits[:(m.Len+7)/8])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestOptimalBoardGolden pins every codeword the Section 5 protocol writes,
// not only its lengths, on three seeded mu^n instances: the E1/E2 centre
// (seven cycles), a many-player one and a small one, both of which reach
// the endgame after one phase-1 cycle.
func TestOptimalBoardGolden(t *testing.T) {
	for _, tc := range []struct {
		seed uint64
		n, k int
		want string
	}{
		{1, 16384, 8, "e88dfcd0c308469241044b67ca06d12c8723478744ecad117f96236c2f91cc2c"},
		{2, 4096, 64, "f3038594d3108e558185766c2d9a00110ed94bca8a6071998727d13cccd80bb3"},
		{3, 700, 24, "af77fc2a77d28daa4af8d2f3c3f735cc9ad507ec5fe8be67d4e72078acf2e718"},
	} {
		inst, err := GenerateFromMuN(rng.New(tc.seed), tc.n, tc.k)
		if err != nil {
			t.Fatal(err)
		}
		op, err := NewOptimalProtocol(inst, Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := blackboard.Run(op.Scheduler(), op.Players(), nil, op.Limits())
		if err != nil {
			t.Fatal(err)
		}
		if got := boardDigest(res.Board); got != tc.want {
			t.Errorf("n=%d k=%d seed %d: board digest %s, want %s", tc.n, tc.k, tc.seed, got, tc.want)
		}
	}
}

// scanOracle is the per-coordinate new-zero scan the word scan replaced:
// one membership test and one covered test per live coordinate.
func scanOracle(p *optimalRun, id int) []int {
	var out []int
	for pos, coord := range p.zCycle {
		covered := p.covered[coord/64]>>(coord%64)&1 == 1
		if !p.inst.Sets[id].Get(coord) && !covered {
			out = append(out, pos)
		}
	}
	return out
}

// TestScanNewZerosMatchesOracle runs the protocol on random instances and,
// before every turn, compares the word scan with the per-coordinate one,
// unlimited and stopped at the batch size: universes that are not a
// multiple of 64, phase-1 and endgame cycles, and every ablation.
func TestScanNewZerosMatchesOracle(t *testing.T) {
	src := rng.New(317)
	turns := map[bool]int{} // turns checked, by endgame
	for trial := 0; trial < 120; trial++ {
		n := 1 + src.Intn(700)
		k := 2 + src.Intn(10)
		var inst *Instance
		var err error
		switch trial % 3 {
		case 0:
			inst, err = GenerateFromMuN(src, n, k)
		case 1:
			inst, err = GenerateDisjoint(src, n, k, src.Float64())
		default:
			inst, err = GenerateIntersecting(src, n, k, 1+src.Intn(n), src.Float64())
		}
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{DisableBatching: trial%4 == 1, DisableEndgame: trial%4 == 2}
		op, err := NewOptimalProtocol(inst, opts)
		if err != nil {
			t.Fatal(err)
		}
		run := op.run
		players := make([]blackboard.Player, k)
		for id, pl := range op.Players() {
			players[id] = blackboard.FuncPlayer(func(b *blackboard.Board) (blackboard.Message, error) {
				want := scanOracle(run, id)
				if got := run.scanNewZeros(id, -1); !slices.Equal(got, want) {
					t.Fatalf("n=%d k=%d %+v player %d: word scan %v, oracle %v", n, k, opts, id, got, want)
				}
				if !run.endgame {
					if got := run.scanNewZeros(id, run.w); !slices.Equal(got, want[:min(run.w, len(want))]) {
						t.Fatalf("n=%d k=%d %+v player %d: scan stopped at w=%d gave %v, oracle %v", n, k, opts, id, run.w, got, want)
					}
				}
				turns[run.endgame]++
				return pl.Speak(b)
			})
		}
		res, err := blackboard.Run(op.Scheduler(), players, nil, op.Limits())
		if err != nil {
			t.Fatal(err)
		}
		out, err := op.Outcome(res.Board)
		if err != nil {
			t.Fatal(err)
		}
		if truth, _ := inst.Disjoint(); out.Disjoint != truth {
			t.Fatalf("n=%d k=%d %+v: answered %v, truth %v", n, k, opts, out.Disjoint, truth)
		}
	}
	if turns[false] == 0 || turns[true] == 0 {
		t.Fatalf("checked %d phase-1 and %d endgame turns; want both", turns[false], turns[true])
	}
}
