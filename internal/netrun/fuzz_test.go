package netrun

import (
	"bytes"
	"encoding/hex"
	"testing"
)

// Golden frames captured from fault-free runs of the optimal DISJ protocol
// (n=12, k=2). The star carries bare frames only; the envelope comes from
// a ring run (player 0 to the coordinator via player 1) and the indexed
// sync from a mesh run, where speakers gossip.
var goldenFrames = map[string]string{
	"star sync":    "0100000002f0ace0e3000b8020",
	"star turn":    "02000000012c236bee00",
	"star msg":     "0300000001a97d696d000b8020",
	"star ack":     "050000000191fe7851",
	"ring routed":  "07000000018c3773f6000203000b8020",
	"mesh gossip":  "0100000001afcea4ed00000b8020",
	"ring msg hop": "030000000256b74894010100",
}

// goldenPayloads returns the payload of every golden frame.
func goldenPayloads(tb testing.TB) [][]byte {
	tb.Helper()
	var out [][]byte
	for name, h := range goldenFrames {
		f, err := hex.DecodeString(h)
		if err != nil {
			tb.Fatalf("%s: %v", name, err)
		}
		_, _, payload, ok := parseFrame(f)
		if !ok {
			tb.Fatalf("golden frame %s does not parse", name)
		}
		out = append(out, payload)
	}
	return out
}

// TestGoldenFramesDecode pins the seed corpus: every golden frame parses
// and its payload decodes as the kind it carries.
func TestGoldenFramesDecode(t *testing.T) {
	for name, h := range goldenFrames {
		f, _ := hex.DecodeString(h)
		kind, _, payload, ok := parseFrame(f)
		if !ok {
			t.Fatalf("%s: frame rejected", name)
		}
		var err error
		switch {
		case name == "mesh gossip":
			_, _, err = decodeIndexedSync(payload)
		case kind == frameSync || kind == frameMsg:
			_, err = decodeMessagePayload(payload)
		case kind == frameTurn:
			_, err = decodeTurnPayload(payload)
		case kind == frameRouted:
			_, _, _, _, err = decodeRoutedPayload(payload)
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// The fuzz targets below share one oracle: whatever a decoder accepts
// must re-encode to exactly the input bytes (round trip), so two distinct
// wire images never decode to the same value and no dirty input — an
// overlong varint, nonzero pad bits, trailing garbage — slips through.
// Malformed input must return an error, never panic.

func FuzzParseFrame(f *testing.F) {
	for _, h := range goldenFrames {
		b, _ := hex.DecodeString(h)
		f.Add(b)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		kind, seq, payload, ok := parseFrame(data)
		if ok {
			if got := packFrame(kind, seq, payload); !bytes.Equal(got, data) {
				t.Fatalf("accepted frame %x re-packs as %x", data, got)
			}
		}
		// A checksum-valid frame is accepted exactly when its kind is
		// known and control frames carry no payload.
		if len(data) == 0 {
			return
		}
		k := data[0]
		_, _, _, ok = parseFrame(packFrame(k, 1, data[1:]))
		want := k >= frameSync && k <= frameRouted && !((k == frameAck || k == frameNack) && len(data) > 1)
		if ok != want {
			t.Fatalf("kind %d with %d payload bytes: accepted=%v, want %v", k, len(data)-1, ok, want)
		}
	})
}

func FuzzDecodeRoutedPayload(f *testing.F) {
	for _, p := range goldenPayloads(f) {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		src, dst, kind, payload, err := decodeRoutedPayload(data)
		if err != nil {
			return
		}
		if kind < frameSync || kind > frameErr || src == dst {
			t.Fatalf("accepted dirty envelope %x", data)
		}
		if got := encodeRoutedPayload(src, dst, kind, payload); !bytes.Equal(got, data) {
			t.Fatalf("envelope %x re-encodes as %x", data, got)
		}
	})
}

func FuzzDecodeIndexedSync(f *testing.F) {
	for _, p := range goldenPayloads(f) {
		f.Add(p)
	}
	f.Add([]byte{0x80, 0x00, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		idx, msg, err := decodeIndexedSync(data)
		if err != nil {
			return
		}
		if got := encodeIndexedSync(idx, msg); !bytes.Equal(got, data) {
			t.Fatalf("sync %x re-encodes as %x", data, got)
		}
	})
}

func FuzzDecodeMessagePayload(f *testing.F) {
	for _, p := range goldenPayloads(f) {
		f.Add(p)
	}
	f.Add([]byte{0x00, 0x04, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := decodeMessagePayload(data)
		if err != nil {
			return
		}
		if msg.Len < 0 || msg.Player < 0 || msg.Player >= maxTopoNodes {
			t.Fatalf("accepted dirty message %+v from %x", msg, data)
		}
		if got := encodeMessagePayload(msg); !bytes.Equal(got, data) {
			t.Fatalf("message %x re-encodes as %x", data, got)
		}
	})
}

func FuzzDecodeTurnPayload(f *testing.F) {
	for _, p := range goldenPayloads(f) {
		f.Add(p)
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := decodeTurnPayload(data)
		if err != nil {
			return
		}
		if n < 0 {
			t.Fatalf("accepted negative message count %d from %x", n, data)
		}
		if got := encodeTurnPayload(n); !bytes.Equal(got, data) {
			t.Fatalf("turn %x re-encodes as %x", data, got)
		}
	})
}
