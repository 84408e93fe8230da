package netrun

import (
	"fmt"
	"sync"
	"time"

	"broadcastic/internal/blackboard"
	"broadcastic/internal/faults"
	"broadcastic/internal/rng"
	"broadcastic/internal/telemetry"
	"broadcastic/internal/telemetry/causal"
)

// This file is the runtime behind Run: node wiring, routing, the
// coordinator loop and the player loop.
//
// # Frame flow
//
// Every node (players 0..k-1 and the coordinator at id k) owns one ARQ
// endpoint per incident physical link, and all of them deliver into the
// node's one mailbox. A frame whose next hop is its destination travels
// bare: the receiver takes its source from the link it came in on, so on
// the star — and on every mesh route — no frame carries routing bytes. A
// frame on a longer route travels inside a frameRouted envelope
// ([src][dst][inner kind][inner payload]); each relay forwards it to
// Topology.NextHop with full per-hop reliability, so the stop-and-wait
// ARQ, retry budgets and fault plans of wire.go apply to every physical
// link alike. A bare frame is always addressed to its receiver and is
// never forwarded.
//
// # Ordering and determinism
//
// Each node has a single application goroutine. It handles the frames
// addressed to it and forwards the rest in mailbox order, so frames that
// share a route stay FIFO end to end and every outbound link carries the
// frames of one goroutine in program order. Because the protocols are
// turn-based ping-pong, at most one application conversation is in flight
// at a time, and the sequence of frames on every physical link — and
// therefore every injector draw and wire-bit count — is a pure function
// of (protocol, topology, seed).
//
// Teardown keeps that true to the last bit. A send returns once its first
// hop acked, so on multi-hop routes the final syncs may still be relayed
// when the coordinator's loop ends. The coordinator therefore waits until
// every replica has applied the final board (an in-process condition; no
// frame is added to the wire), then closes every endpoint and joins every
// read loop and node goroutine before it reads the counters.
//
// # Delivery modes
//
// DeliverBroadcast mirrors blackboard semantics: after each delivery the
// message reaches every replica, as coordinator-echoed SYNCs or, on
// gossip topologies, as SYNCs the speaker sends each peer. Gossip syncs
// from different speakers race, so they carry the message's board index
// (encodeIndexedSync) and the replica buffers early arrivals; a player
// announced as speaker first drains pending syncs until its replica
// reaches the turn's message count. DeliverCoordinator is the
// message-passing model of the BEOPV lower bounds: messages stop at the
// hub, replicas stay empty, and players must speak from their private
// input alone — the mode the coordinator-model DISJ protocol
// (internal/disj) is written for.

// runtime holds the wiring of one run.
type runtime struct {
	topo Topology
	k    int
	// boxes[id] is node id's mailbox.
	boxes []*mailbox
	// adj[a*(k+1)+b] is node a's endpoint on its link to node b (nil when
	// a and b are not adjacent).
	adj []*endpoint
	// eps holds both endpoints of every link: eps[2l] at link l's higher
	// node B, eps[2l+1] at its lower node A.
	eps []*endpoint
	// inj holds the fault injectors in eps order (nil entries when link
	// faults are off).
	inj          []*faults.Injector
	recvDeadline time.Duration
	settled      settle
}

// newRuntime opens one transport link per physical link and starts the
// endpoints on both ends. On the star, link i is player i's link, and its
// fault streams follow one convention for every topology: the direction
// from the higher node B to the lower node A (coordinator to player)
// draws child 2l of the run seed, A to B draws child 2l+1. An injector
// exists only when link faults are on, so a fault-free run consumes no
// randomness.
func newRuntime(k int, links []LinkID, cfg Config) (*runtime, error) {
	sideB, sideA, err := cfg.Transport.Open(len(links))
	if err != nil {
		return nil, err
	}
	n := k + 1
	r := &runtime{
		topo:  cfg.Topology,
		k:     k,
		boxes: make([]*mailbox, n),
		adj:   make([]*endpoint, n*n),
		eps:   make([]*endpoint, 2*len(links)),
		inj:   make([]*faults.Injector, 2*len(links)),
	}
	r.settled.cond.L = &r.settled.mu
	if cfg.Faults.Enabled() {
		for i, s := range rng.New(cfg.Seed).SplitN(2 * len(links)) {
			r.inj[i] = cfg.Faults.NewInjector(s)
		}
	}
	// One ping-pong round puts at most one turn and k syncs into any
	// mailbox (a ring relay sees every sync of the round), so twice that
	// never blocks a read loop.
	for id := range r.boxes {
		r.boxes[id] = newMailbox(2*n + 8)
	}
	arq := arqConfig{timeout: cfg.Timeout, maxRetries: cfg.MaxRetries, rec: cfg.Recorder, cause: cfg.Causal}
	for l, lid := range links {
		b := newEndpoint(sideB[l], r.boxes[lid.B], lid.A, l, r.inj[2*l], arq)
		a := newEndpoint(sideA[l], r.boxes[lid.A], lid.B, l, r.inj[2*l+1], arq)
		r.eps[2*l], r.eps[2*l+1] = b, a
		r.adj[lid.B*n+lid.A], r.adj[lid.A*n+lid.B] = b, a
	}
	// A route of h hops can wait through h links' worth of retransmission
	// budgets (plus injected delays) before its frame arrives.
	hops := max(r.topo.MaxHops(k), 1)
	r.recvDeadline = time.Duration(hops) * (time.Duration(cfg.MaxRetries+1)*(8*cfg.Timeout+cfg.Faults.MaxDelay) + cfg.Timeout)
	return r, nil
}

// link returns node at's endpoint toward neighbor to, or nil.
func (r *runtime) link(at, to int) *endpoint {
	if to < 0 || to > r.k {
		return nil
	}
	return r.adj[at*(r.k+1)+to]
}

// closeAll severs every link, then joins every read loop.
func (r *runtime) closeAll() {
	for _, ep := range r.eps {
		ep.shutdown()
	}
	for _, ep := range r.eps {
		<-ep.loopDone
	}
}

// leave closes node id's links as its goroutine exits; on the star this
// is how the coordinator notices a crashed player.
func (r *runtime) leave(id int) {
	n := r.k + 1
	for _, ep := range r.adj[id*n : (id+1)*n] {
		if ep != nil {
			ep.close()
		}
	}
	r.settled.exit()
}

// sendFrom routes one application frame from node at toward dst: bare
// when the next hop is dst, inside an envelope otherwise.
func (r *runtime) sendFrom(at, dst int, kind byte, payload []byte) error {
	next := r.topo.NextHop(r.k, at, dst)
	ep := r.link(at, next)
	if ep == nil {
		return fmt.Errorf("netrun: topology %s routes %d->%d via non-neighbor %d", r.topo.Name(), at, dst, next)
	}
	if next == dst {
		return ep.send(kind, payload)
	}
	return ep.send(frameRouted, encodeRoutedPayload(at, dst, kind, payload))
}

// recvAt surfaces the next frame addressed to node at, with src set to
// the node that sent it, forwarding enveloped frames addressed elsewhere
// along their route. Envelopes that are malformed or name an unreachable
// node are dropped.
func (r *runtime) recvAt(at int, deadline time.Duration) (inbound, error) {
	for {
		in, err := r.boxes[at].recv(deadline)
		if err != nil || in.kind != frameRouted {
			return in, err
		}
		src, dst, kind, payload, err := decodeRoutedPayload(in.payload)
		if err != nil || dst > r.k {
			continue
		}
		if dst == at {
			return inbound{src: src, kind: kind, payload: payload}, nil
		}
		ep := r.link(at, r.topo.NextHop(r.k, at, dst))
		if ep == nil {
			continue
		}
		if err := ep.send(frameRouted, in.payload); err != nil {
			return inbound{}, err
		}
	}
}

// settle counts replica appends so the coordinator can wait, without a
// frame on the wire, until every replica holds the final board.
type settle struct {
	mu      sync.Mutex
	cond    sync.Cond
	applied int
	exited  bool // some player goroutine returned; stop waiting
}

func (s *settle) add() {
	s.mu.Lock()
	s.applied++
	s.mu.Unlock()
	s.cond.Broadcast()
}

func (s *settle) exit() {
	s.mu.Lock()
	s.exited = true
	s.mu.Unlock()
	s.cond.Broadcast()
}

// wait blocks until want appends have happened or a player has exited.
func (s *settle) wait(want int) {
	s.mu.Lock()
	for s.applied < want && !s.exited {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// replica is a player's mirror of the board. Gossip syncs may arrive out
// of board order; early ones wait in pending until their index comes up.
type replica struct {
	board   *blackboard.Board
	pending map[int]blackboard.Message
	settled *settle
}

func (rp *replica) apply(idx int, msg blackboard.Message) error {
	if n := rp.board.NumMessages(); idx < n {
		return fmt.Errorf("netrun: duplicate sync for board index %d", idx)
	} else if idx > n {
		if rp.pending == nil {
			rp.pending = make(map[int]blackboard.Message)
		}
		rp.pending[idx] = msg
		return nil
	}
	for {
		if err := rp.board.Append(msg); err != nil {
			return err
		}
		rp.settled.add()
		next, ok := rp.pending[rp.board.NumMessages()]
		if !ok {
			return nil
		}
		delete(rp.pending, rp.board.NumMessages())
		msg = next
	}
}

// run executes the protocol once Run has validated the configuration and
// filled in its defaults.
func run(sched blackboard.Scheduler, players []blackboard.Player, public *rng.Source, links []LinkID, cfg Config) (*Result, error) {
	k := len(players)
	st, err := blackboard.NewStepper(sched, k, public, cfg.Limits)
	if err != nil {
		return nil, err
	}
	st.SetRecorder(cfg.Recorder)
	r, err := newRuntime(k, links, cfg)
	if err != nil {
		return nil, err
	}

	// runMu serializes all protocol-state access: Stepper calls on the
	// coordinator and Speak on player goroutines. The turn discipline means
	// there is never contention; the mutex exists for the happens-before
	// edges (shared scheduler/player state, shared public rng) that raw
	// socket I/O does not provide.
	var runMu sync.Mutex

	// Replicas share the canonical public source: public randomness is a
	// shared resource in the broadcast model, and the ping-pong discipline
	// (under runMu) makes every draw happen in sequential order.
	replicas := make([]*replica, k)
	for i := range replicas {
		board, err := blackboard.NewBoard(k, public)
		if err != nil {
			r.closeAll()
			return nil, err
		}
		replicas[i] = &replica{board: board, settled: &r.settled}
	}

	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r.playerLoop(i, players[i], replicas[i], &runMu, cfg.Faults.CrashTurn(i), cfg.Delivery)
		}(i)
	}

	coord := CoordinatorNode(k)
	stats := Stats{
		PerPlayer: make([]PlayerStats, k),
		PerLink:   make([]LinkStats, len(links)),
		Transport: cfg.Transport.Name(),
		Topology:  r.topo.Name(),
	}
	finish := func(crashed []int) *Result {
		r.closeAll()
		wg.Wait()
		for l := range links {
			ls := &stats.PerLink[l]
			ls.Link = links[l]
			for _, ep := range r.eps[2*l : 2*l+2] {
				ls.WireBits += ep.stats.wireBits.Load()
				ls.Retries += ep.stats.retries.Load()
				ls.BadFrames += ep.stats.badFrames.Load()
				ls.DupFrames += ep.stats.dupDropped.Load()
			}
			for _, inj := range r.inj[2*l : 2*l+2] {
				if inj != nil {
					ls.Faults.Add(inj.Counts())
				}
			}
			stats.WireBits += ls.WireBits
			stats.Faults.Add(ls.Faults)
		}
		stats.BoardBits = st.Board().TotalBits()
		return &Result{Board: st.Board(), Stats: stats, Crashed: crashed}
	}
	crash := func(player int, cause error) (*Result, error) {
		telemetry.Count(cfg.Recorder, telemetry.NetrunCrashes, 1)
		if cfg.Causal.Enabled() {
			// A crash is the unrecoverable failure of the run: mark the
			// instant and trigger the trace's flight-recorder auto-dump.
			cfg.Causal.Fail(causal.NetrunCrash,
				causal.Int("player", player), causal.String("error", cause.Error()))
		}
		res := finish([]int{player})
		return res, &CrashError{Player: player, Cause: cause}
	}
	abort := func(err error) (*Result, error) {
		r.closeAll()
		wg.Wait()
		return nil, err
	}

	for {
		runMu.Lock()
		speaker, done, err := st.Next()
		runMu.Unlock()
		if err != nil {
			return abort(err)
		}
		if done {
			if cfg.Delivery == DeliverBroadcast {
				r.settled.wait(k * st.Board().NumMessages())
			}
			return finish(nil), nil
		}

		turnStart := time.Now()
		if err := r.sendFrom(coord, speaker, frameTurn, encodeTurnPayload(st.Board().NumMessages())); err != nil {
			return crash(speaker, err)
		}
		rf, err := r.recvAt(coord, r.recvDeadline)
		if err != nil {
			return crash(speaker, err)
		}
		switch {
		case rf.kind == frameErr:
			return abort(fmt.Errorf("netrun: player %d: %s", rf.src, rf.payload))
		case rf.kind != frameMsg:
			return abort(fmt.Errorf("netrun: player %d sent unexpected frame kind %d", rf.src, rf.kind))
		case rf.src != speaker:
			return abort(fmt.Errorf("netrun: expected message from player %d, got one from %d", speaker, rf.src))
		}
		msg, err := decodeMessagePayload(rf.payload)
		if err != nil {
			return abort(err)
		}

		runMu.Lock()
		err = st.Deliver(msg)
		runMu.Unlock()
		if err != nil {
			return abort(err)
		}

		// Propagate the delivered message so every replica catches up
		// before the next turn can reach any player. On gossip topologies
		// the speaker already distributed it; in coordinator mode nobody
		// does.
		if cfg.Delivery == DeliverBroadcast && !r.topo.Gossip() {
			syncPayload := encodeMessagePayload(msg)
			for i := 0; i < k; i++ {
				if err := r.sendFrom(coord, i, frameSync, syncPayload); err != nil {
					return crash(i, err)
				}
			}
		}

		ps := &stats.PerPlayer[speaker]
		ps.Turns++
		latency := time.Since(turnStart)
		ps.Latency += latency
		if cfg.Recorder != nil {
			cfg.Recorder.Count(telemetry.NetrunTurns, 1)
			cfg.Recorder.Observe(telemetry.NetrunTurnNs, float64(latency))
		}
	}
}

// playerLoop runs player node i: apply syncs, speak on turns (draining
// late gossip first), gossip its own message on gossip topologies, relay
// frames routed through it, and die silently on a scheduled crash turn.
// It exits when its links go down (normal teardown closes them all).
func (r *runtime) playerLoop(i int, player blackboard.Player, rp *replica, runMu *sync.Mutex, crashTurn int, mode DeliveryMode) {
	defer r.leave(i)
	coord := CoordinatorNode(r.k)
	gossip := r.topo.Gossip()
	turns := 0
	fail := func(err error) {
		r.sendFrom(i, coord, frameErr, []byte(err.Error()))
	}
	applySync := func(payload []byte) error {
		if !gossip {
			msg, err := decodeMessagePayload(payload)
			if err != nil {
				return err
			}
			return rp.apply(rp.board.NumMessages(), msg)
		}
		idx, msg, err := decodeIndexedSync(payload)
		if err != nil {
			return err
		}
		return rp.apply(idx, msg)
	}
	for {
		rf, err := r.recvAt(i, 0)
		if err != nil {
			return
		}
		switch rf.kind {
		case frameSync:
			if err := applySync(rf.payload); err != nil {
				fail(err)
				return
			}
		case frameTurn:
			if crashTurn >= 0 && turns >= crashTurn {
				// Scheduled crash: vanish without a word. The coordinator
				// notices via the dead link or the recv deadline.
				return
			}
			turns++
			want, err := decodeTurnPayload(rf.payload)
			if err != nil {
				fail(err)
				return
			}
			if mode == DeliverBroadcast {
				// Drain syncs still in flight (gossip races the next turn)
				// until the replica reaches the announced board state.
				for rp.board.NumMessages() < want {
					rf2, err := r.recvAt(i, r.recvDeadline)
					if err != nil {
						fail(err)
						return
					}
					if rf2.kind != frameSync {
						fail(fmt.Errorf("netrun: unexpected frame kind %d while syncing replica", rf2.kind))
						return
					}
					if err := applySync(rf2.payload); err != nil {
						fail(err)
						return
					}
				}
				if rp.board.NumMessages() != want {
					fail(fmt.Errorf("netrun: replica out of sync: %d messages, coordinator has %d", rp.board.NumMessages(), want))
					return
				}
			}
			runMu.Lock()
			msg, err := player.Speak(rp.board)
			runMu.Unlock()
			if err != nil {
				fail(err)
				return
			}
			encoded := encodeMessagePayload(msg)
			if mode == DeliverBroadcast && gossip {
				// Speaker-distributed sync: send the message to every peer
				// directly, then append the canonical (round-tripped) copy
				// to our own replica.
				idx := rp.board.NumMessages()
				syncPayload := encodeIndexedSync(idx, msg)
				for j := 0; j < r.k; j++ {
					if j == i {
						continue
					}
					if err := r.sendFrom(i, j, frameSync, syncPayload); err != nil {
						return
					}
				}
				canonical, err := decodeMessagePayload(encoded)
				if err != nil {
					fail(err)
					return
				}
				if err := rp.apply(idx, canonical); err != nil {
					fail(err)
					return
				}
			}
			if err := r.sendFrom(i, coord, frameMsg, encoded); err != nil {
				return
			}
		default:
			fail(fmt.Errorf("netrun: unexpected frame kind %d", rf.kind))
			return
		}
	}
}
