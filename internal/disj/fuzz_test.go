package disj

import (
	"testing"

	"broadcastic/internal/blackboard"
	"broadcastic/internal/rng"
)

// fuzzInstance is the n=256, k=6 μ^n instance whose genuine board seeds
// FuzzOptimalDecode: its run has phase-1 batches, passes and an endgame.
func fuzzInstance(tb testing.TB) (*Instance, []blackboard.Message) {
	tb.Helper()
	inst, err := GenerateFromMuN(rng.New(256), 256, 6)
	if err != nil {
		tb.Fatal(err)
	}
	op, err := NewOptimalProtocol(inst, Options{})
	if err != nil {
		tb.Fatal(err)
	}
	res, err := blackboard.Run(op.Scheduler(), op.Players(), nil, op.Limits())
	if err != nil {
		tb.Fatal(err)
	}
	return inst, res.Board.Messages()
}

// FuzzOptimalDecode replays the first `prefix` genuine messages of a real
// run, which leaves the decoder in a live phase-1 or endgame cycle, then
// writes an arbitrary message (the first nbits of data) for the next
// speaker. optimalRun.Next must reject it with an error or decode it and
// advance; it must never panic.
func FuzzOptimalDecode(f *testing.F) {
	inst, genuine := fuzzInstance(f)
	for i, m := range genuine {
		f.Add(uint16(i), m.Bits, uint16(m.Len))
		if m.Len > 1 {
			f.Add(uint16(i), m.Bits, uint16(m.Len-1))
		}
	}
	f.Add(uint16(0), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, uint16(64))
	f.Add(uint16(len(genuine)-1), []byte{0x80}, uint16(1))
	f.Fuzz(func(t *testing.T, prefix uint16, data []byte, nbits uint16) {
		run := newOptimalRun(inst, Options{})
		board, err := blackboard.NewBoard(inst.K, nil)
		if err != nil {
			t.Fatal(err)
		}
		speaker, done, err := run.Next(board)
		for _, m := range genuine[:int(prefix)%len(genuine)] {
			if err != nil || done {
				t.Fatalf("genuine replay stopped: done=%v err=%v", done, err)
			}
			if err := board.Append(m); err != nil {
				t.Fatal(err)
			}
			speaker, done, err = run.Next(board)
		}
		if err != nil || done {
			t.Fatalf("genuine replay stopped: done=%v err=%v", done, err)
		}

		// The board refuses nonzero pad bits, so clear them: the target is
		// the decoder, not Board.Append.
		n := int(nbits) % (8*len(data) + 1)
		bits := append([]byte(nil), data[:(n+7)/8]...)
		if n%8 != 0 {
			bits[n/8] &= 0xff << uint(8-n%8)
		}
		if err := board.Append(blackboard.Message{Player: speaker, Bits: bits, Len: n}); err != nil {
			t.Fatal(err)
		}
		covered := run.coveredCount
		if _, _, err := run.Next(board); err != nil {
			return
		}
		if run.processed != board.NumMessages() {
			t.Fatalf("decoded %d of %d messages without an error", run.processed, board.NumMessages())
		}
		if run.coveredCount < covered {
			t.Fatalf("covered count fell from %d to %d", covered, run.coveredCount)
		}
	})
}

// TestFuzzSeedRunShape pins what the fuzz seeds cover: the genuine n=256,
// k=6 run writes phase-1 batches and ends in an endgame cycle.
func TestFuzzSeedRunShape(t *testing.T) {
	inst, genuine := fuzzInstance(t)
	run := newOptimalRun(inst, Options{})
	board, err := blackboard.NewBoard(inst.K, nil)
	if err != nil {
		t.Fatal(err)
	}
	var batches, endgame int
	for _, m := range genuine {
		if _, _, err := run.Next(board); err != nil {
			t.Fatal(err)
		}
		switch {
		case run.endgame:
			endgame++
		case m.Len > 1:
			batches++
		}
		if err := board.Append(m); err != nil {
			t.Fatal(err)
		}
	}
	if batches == 0 || endgame == 0 {
		t.Fatalf("seed run has %d phase-1 batches and %d endgame messages; want both", batches, endgame)
	}
}
