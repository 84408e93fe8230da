package netrun_test

import (
	"testing"
	"time"

	"broadcastic/internal/disj"
	"broadcastic/internal/faults"
	"broadcastic/internal/netrun"
	"broadcastic/internal/rng"
)

// goldenLink is one star link's expected wire accounting.
type goldenLink struct {
	wireBits int64
	retries  int64
	faults   faults.Counts
}

// starGolden are wire statistics of the optimal DISJ protocol on μ^n
// instances, recorded from the shared-board runtime the star replaced
// (link i = player i's link, both directions summed). The star must
// reproduce them bit for bit: bare frames on every hop, unindexed syncs,
// and coordinator→player fault draws from child 2i of the seed,
// player→coordinator from child 2i+1.
var starGolden = []struct {
	name      string
	n, k      int
	mix       string
	seed      uint64
	boardBits int
	links     []goldenLink
}{
	{"clean", 256, 6, "", 1, 1007, []goldenLink{
		{6304, 0, faults.Counts{}},
		{6344, 0, faults.Counts{}},
		{6320, 0, faults.Counts{}},
		{6288, 0, faults.Counts{}},
		{6200, 0, faults.Counts{}},
		{5864, 0, faults.Counts{}},
	}},
	{"drop+dup", 256, 6, "drop=0.05,dup=0.05", 7, 1007, []goldenLink{
		{6384, 0, faults.Counts{Duplicates: 1}},
		{6544, 1, faults.Counts{Drops: 1, Duplicates: 1}},
		{6832, 3, faults.Counts{Drops: 3, Duplicates: 2}},
		{6464, 0, faults.Counts{Duplicates: 2}},
		{6320, 0, faults.Counts{Duplicates: 1}},
		{6464, 1, faults.Counts{Drops: 1, Duplicates: 3}},
	}},
	{"drop+dup+corrupt", 128, 4, "drop=0.06,dup=0.06,corrupt=0.05", 99, 421, []goldenLink{
		{4328, 4, faults.Counts{Drops: 3, Duplicates: 2, Corruptions: 1}},
		{4144, 3, faults.Counts{Drops: 2, Duplicates: 3, Corruptions: 1}},
		{4192, 3, faults.Counts{Drops: 1, Duplicates: 1, Corruptions: 2}},
		{3960, 4, faults.Counts{Drops: 3, Duplicates: 1, Corruptions: 1}},
	}},
	{"drop+delay", 96, 3, "drop=0.1,delay=0.2:1ms", 5, 258, []goldenLink{
		{4072, 5, faults.Counts{Drops: 5, Delays: 7}},
		{3928, 3, faults.Counts{Drops: 3, Delays: 1}},
		{4240, 5, faults.Counts{Drops: 5, Delays: 4}},
	}},
}

// TestStarWireGolden pins the star — explicit and as the nil default —
// to the recorded wire bits, per-link retries and fault counts.
func TestStarWireGolden(t *testing.T) {
	for _, topo := range []netrun.Topology{nil, netrun.Star{}} {
		for _, g := range starGolden {
			name := g.name + "/star"
			if topo == nil {
				name = g.name + "/default"
			}
			t.Run(name, func(t *testing.T) {
				inst, err := disj.GenerateFromMuN(rng.New(uint64(g.n+g.k)), g.n, g.k)
				if err != nil {
					t.Fatal(err)
				}
				plan, err := faults.Parse(g.mix)
				if err != nil {
					t.Fatal(err)
				}
				proto, err := disj.NewOptimalProtocol(inst, disj.Options{})
				if err != nil {
					t.Fatal(err)
				}
				// The generous timeout is a backstop only, so no timer
				// retransmission can perturb the seeded statistics.
				res := netFingerprint(t, proto, nil, netrun.Config{
					Topology: topo, Faults: plan, Seed: g.seed, Timeout: time.Second,
				})
				if res.Stats.BoardBits != g.boardBits {
					t.Fatalf("board bits %d, want %d", res.Stats.BoardBits, g.boardBits)
				}
				if len(res.Stats.PerLink) != len(g.links) {
					t.Fatalf("%d links, want %d", len(res.Stats.PerLink), len(g.links))
				}
				var total int64
				var injected faults.Counts
				for i, want := range g.links {
					got := res.Stats.PerLink[i]
					if got.Link != (netrun.LinkID{A: i, B: g.k}) {
						t.Fatalf("link %d joins %v, want player %d to the coordinator", i, got.Link, i)
					}
					if got.WireBits != want.wireBits || got.Retries != want.retries || got.Faults != want.faults {
						t.Errorf("link %d: wire=%d retries=%d faults=%v, want wire=%d retries=%d faults=%v",
							i, got.WireBits, got.Retries, got.Faults, want.wireBits, want.retries, want.faults)
					}
					total += want.wireBits
					injected.Add(want.faults)
				}
				if res.Stats.WireBits != total || res.Stats.Faults != injected {
					t.Errorf("totals wire=%d faults=%v, want wire=%d faults=%v",
						res.Stats.WireBits, res.Stats.Faults, total, injected)
				}
			})
		}
	}
}

// BenchmarkRun measures one networked run at E20's quick shape (n=256,
// k=6, drop/dup 5%) on the default star.
func BenchmarkRun(b *testing.B) {
	inst, err := disj.GenerateFromMuN(rng.New(21), 256, 6)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := faults.Parse("drop=0.05,dup=0.05")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var wire int64
	for i := 0; i < b.N; i++ {
		proto, err := disj.NewOptimalProtocol(inst, disj.Options{})
		if err != nil {
			b.Fatal(err)
		}
		res, err := netrun.Run(proto.Scheduler(), proto.Players(), nil, netrun.Config{
			Faults: plan, Seed: uint64(i%8 + 1), Timeout: time.Second, Limits: proto.Limits(),
		})
		if err != nil {
			b.Fatal(err)
		}
		wire += res.Stats.WireBits
	}
	b.ReportMetric(float64(wire)/float64(b.N), "wirebits/op")
}
