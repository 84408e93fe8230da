package netrun

import (
	"sync"
	"testing"
	"time"

	"broadcastic/internal/blackboard"
)

// A relay must never forward what is not routed through it. On a 3-player
// ring, player 1 relays 0→1→2→coordinator. It is fed an envelope naming a
// node that does not exist, then a bare MSG — a frame only the
// coordinator accepts, and bare frames are by definition addressed to
// their receiver. The relay must drop the first, report the second as an
// error to the coordinator, and forward neither: the first frame player 2
// sees on its inbound link is that error report.
func TestRelayDropsFramesNotRoutedThroughIt(t *testing.T) {
	const k = 3
	cfg := Config{
		Topology:   Ring{},
		Transport:  NewChanTransport(),
		Timeout:    time.Second,
		MaxRetries: 2,
	}
	links := cfg.Topology.Links(k)
	r, err := newRuntime(k, links, cfg)
	if err != nil {
		t.Fatal(err)
	}
	board, err := blackboard.NewBoard(k, nil)
	if err != nil {
		t.Fatal(err)
	}
	player := blackboard.FuncPlayer(func(*blackboard.Board) (blackboard.Message, error) {
		t.Error("relay was asked to speak")
		return blackboard.Message{}, nil
	})
	var runMu sync.Mutex
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.playerLoop(1, player, &replica{board: board, settled: &r.settled}, &runMu, -1, DeliverBroadcast)
	}()

	from0 := r.link(0, 1)
	msg := encodeMessagePayload(blackboard.Message{Player: 0, Bits: []byte{0x80}, Len: 1})
	if err := from0.send(frameRouted, encodeRoutedPayload(0, 200, frameSync, msg)); err != nil {
		t.Fatal(err)
	}
	if err := from0.send(frameMsg, msg); err != nil {
		t.Fatal(err)
	}

	in, err := r.boxes[2].recv(5 * time.Second)
	if err != nil {
		t.Fatalf("player 2 saw nothing: %v", err)
	}
	if in.src != 1 || in.kind != frameRouted {
		t.Fatalf("player 2 got kind %d from %d, want an envelope from the relay", in.kind, in.src)
	}
	src, dst, kind, _, err := decodeRoutedPayload(in.payload)
	if err != nil {
		t.Fatal(err)
	}
	if src != 1 || dst != CoordinatorNode(k) || kind != frameErr {
		t.Fatalf("relay forwarded src=%d dst=%d kind=%d, want its own error report to the coordinator", src, dst, kind)
	}
	<-done // the relay exits after reporting
	r.closeAll()
	if _, err := r.boxes[2].recv(time.Millisecond); err == nil {
		t.Fatal("relay forwarded a second frame")
	}
}
