package peer

import (
	"fmt"
	"math/rand"
	"net/netip"
	"testing"
	"time"
	"unsafe"

	"pplivesim/internal/stream"
	"pplivesim/internal/wire"
)

// slotIndex returns nb's index in s's neighbor table, or -1 if nb is not one
// of its slots.
func slotIndex(s *session, nb *neighbor) int {
	for i := range s.nbSlots {
		if &s.nbSlots[i] == nb {
			return i
		}
	}
	return -1
}

// checkNeighborTable checks s's neighbor table after any step:
//   - every live neighbor, in the map, the mesh order or the origins, is a
//     slot of the table, so the table never ran out and newNeighbor never
//     made one past it;
//   - the free stack holds the other slots, each once;
//   - the map holds exactly the mesh order and the origins, under their
//     own keys, and the mesh order is sorted and within 2*MaxNeighbors;
//   - every slot's buffer map is still in the slot's own run of the shared
//     word array.
//
// A stopped session must hold no neighbor at all.
func checkNeighborTable(s *session) error {
	n := len(s.nbSlots)
	const (
		unseen = iota
		live
		free
	)
	state := make([]int, n)
	for _, nb := range s.nbFree {
		i := slotIndex(s, nb)
		switch {
		case i < 0:
			return fmt.Errorf("the free stack holds a neighbor that is not a table slot")
		case state[i] != unseen:
			return fmt.Errorf("slot %d is on the free stack twice", i)
		}
		state[i] = free
	}
	for key, nb := range s.neighbors {
		i := slotIndex(s, nb)
		switch {
		case i < 0:
			return fmt.Errorf("neighbor %v is not a table slot: the table ran out", nb.addr)
		case state[i] == free:
			return fmt.Errorf("slot %d (%v) is live and free", i, nb.addr)
		case state[i] == live:
			return fmt.Errorf("slot %d is live under two keys", i)
		case key != akey(nb.addr):
			return fmt.Errorf("neighbor %v is mapped under key %#x", nb.addr, key)
		}
		state[i] = live
	}
	if got := len(s.neighbors) + len(s.nbFree); got != n {
		return fmt.Errorf("%d live and %d free slots of %d", len(s.neighbors), len(s.nbFree), n)
	}
	if s.phase == PhaseStopped {
		if len(s.neighbors) != 0 || len(s.sortedNbs) != 0 {
			return fmt.Errorf("stopped session holds %d neighbors, %d in the mesh order", len(s.neighbors), len(s.sortedNbs))
		}
		return nil
	}
	if len(s.sortedNbs)+len(s.origins) != len(s.neighbors) {
		return fmt.Errorf("%d mesh neighbors and %d origins, %d in the map", len(s.sortedNbs), len(s.origins), len(s.neighbors))
	}
	if len(s.sortedNbs) > 2*s.cfg.MaxNeighbors {
		return fmt.Errorf("%d mesh neighbors, above twice the cap of %d", len(s.sortedNbs), s.cfg.MaxNeighbors)
	}
	for i, nb := range s.sortedNbs {
		if s.neighbors[akey(nb.addr)] != nb || nb.origin != meshPeer {
			return fmt.Errorf("mesh neighbor %v is not the map's mesh entry", nb.addr)
		}
		if i > 0 && s.sortedNbs[i-1].addr.Compare(nb.addr) >= 0 {
			return fmt.Errorf("mesh order not sorted at %d: %v, %v", i, s.sortedNbs[i-1].addr, nb.addr)
		}
	}
	for _, nb := range s.origins {
		if s.neighbors[akey(nb.addr)] != nb || nb.origin == meshPeer {
			return fmt.Errorf("origin %v is not the map's origin entry", nb.addr)
		}
	}
	if n == 0 {
		return nil
	}
	words := (max(s.cfg.BufferWindow, knowledgeWindow) + 63) / 64
	base := unsafe.Pointer(unsafe.SliceData(s.nbSlots[0].buffer.Words))
	for i := range s.nbSlots {
		w := s.nbSlots[i].buffer.Words
		if cap(w) != words || unsafe.Pointer(unsafe.SliceData(w)) != unsafe.Add(base, i*words*8) {
			return fmt.Errorf("slot %d's buffer map left its storage (cap %d, want %d)", i, cap(w), words)
		}
	}
	return nil
}

// tableCoverage counts how often a run of runNeighborTable reached each path
// it is meant to drive.
type tableCoverage struct {
	full, replaced, rejected, trimmed, silent, keepalive, edgeDrops, switches int
}

// TestNeighborTableInvariants drives clients through random sequences of
// inbound handshakes up to the 2x cap, accepted and rejected acks (with
// worst-neighbor replacement), gossip rounds that trim and evict silent
// neighbors, time passing under every timer (keepalive evictions under
// Resilient), timed-out requests that drop CDN edges, buffer maps and Have
// hints that refill the neighbors' maps, and channel switches; after every
// step checkNeighborTable must hold. Every path must be reached somewhere.
func TestNeighborTableInvariants(t *testing.T) {
	seeds := 400
	if testing.Short() {
		seeds = 100
	}
	var cov tableCoverage
	for seed := int64(0); seed < int64(seeds); seed++ {
		if err := runNeighborTable(t, seed, &cov); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	t.Logf("%+v", cov)
	for _, c := range []struct {
		what string
		n    int
	}{
		{"mesh at twice the cap", cov.full},
		{"worst-neighbor replacements", cov.replaced},
		{"rejected acks", cov.rejected},
		{"gossip trims", cov.trimmed},
		{"silent evictions", cov.silent},
		{"keepalive evictions", cov.keepalive},
		{"edge drops", cov.edgeDrops},
		{"channel switches", cov.switches},
	} {
		if c.n == 0 {
			t.Errorf("no %s in %d seeds", c.what, seeds)
		}
	}
}

func runNeighborTable(t *testing.T, seed int64, cov *tableCoverage) error {
	rng := rand.New(rand.NewSource(seed))
	env := newFakeEnv("58.32.0.1")
	env.rng = rand.New(rand.NewSource(seed))
	cfg := testConfig()
	cfg.Resilient = rng.Intn(2) == 0
	cfg.LatencyBias = rng.Intn(4) != 0
	cfg.MaxNeighbors = []int{1, 2, 3, 5, 8, 28}[rng.Intn(6)]
	c := newClient(t, env, cfg)
	channels := []stream.Spec{cfg.Channel, stream.DefaultSpec(2, "other", 50)}

	// Remote peers: three times as many as the mesh holds, so inbound and
	// dialled ones keep arriving.
	pool := make([]netip.Addr, 6*cfg.MaxNeighbors+4)
	for i := range pool {
		pool[i] = netip.AddrFrom4([4]byte{58, 33, byte(i >> 8), byte(i)})
	}
	edges := func() []netip.Addr {
		e := make([]netip.Addr, rng.Intn(4))
		for i := range e {
			e[i] = netip.AddrFrom4([4]byte{61, 200, 0, byte(i + 1)})
		}
		return e
	}
	playlink := func() {
		c.HandleMessage(bootstrapAddr, &wire.PlaylinkResponse{
			Channel: c.active.spec.Channel, Source: sourceAddr, Trackers: trackerAddrs, Edges: edges(),
		})
	}
	c.Start()
	c.HandleMessage(bootstrapAddr, &wire.ChannelListResponse{Channels: []wire.ChannelInfo{{ID: 1, Name: "test"}}})
	playlink()

	const steps = 300
	for step := 0; step < steps; step++ {
		s := c.active
		ch := s.spec.Channel
		op := rng.Intn(100)
		switch {
		case op < 25: // inbound handshakes, accepted below twice the cap
			for k := 1 + rng.Intn(2*cfg.MaxNeighbors); k > 0; k-- {
				c.HandleMessage(pool[rng.Intn(len(pool))], &wire.Handshake{Channel: ch})
			}
			if len(s.sortedNbs) == 2*cfg.MaxNeighbors {
				cov.full++
			}
		case op < 35: // a peer list arrives: dial some of it
			list := make([]netip.Addr, 1+rng.Intn(10))
			for i := range list {
				list[i] = pool[rng.Intn(len(pool))]
			}
			c.HandleMessage(trackerAddrs[0], &wire.TrackerResponse{Channel: ch, Peers: list})
		case op < 50: // an ack for a pending dial, after a random round trip
			if len(s.pending) == 0 {
				break
			}
			key := s.pending[rng.Intn(len(s.pending))].key
			from := netip.AddrFrom4([4]byte{byte(key >> 24), byte(key >> 16), byte(key >> 8), byte(key)})
			env.now += time.Duration(1+rng.Intn(600)) * time.Millisecond
			accepted := rng.Intn(4) != 0
			full := len(s.sortedNbs) >= cfg.MaxNeighbors
			_, had := s.neighbors[key]
			ack := &wire.HandshakeAck{Channel: ch, Accepted: accepted}
			if rng.Intn(2) == 0 {
				ack.Buffer = wire.MakeBufferMap(s.buffer.Playhead(), cfg.BufferWindow)
				ack.Buffer.SetRange(s.buffer.Playhead(), s.buffer.Playhead()+uint64(rng.Intn(cfg.BufferWindow)))
			}
			c.HandleMessage(from, ack)
			_, has := s.neighbors[key]
			switch {
			case !accepted:
				cov.rejected++
			case full && has && !had:
				cov.replaced++
			}
		case op < 60: // a gossip round: evict the silent, trim to the cap
			now := env.now
			silent := 0
			for _, nb := range s.sortedNbs {
				if now-nb.lastHeard > cfg.NeighborSilence {
					silent++
				}
			}
			if silent > 0 {
				cov.silent++
			}
			if len(s.sortedNbs)-silent > cfg.MaxNeighbors {
				cov.trimmed++
			}
			s.gossip()
		case op < 72: // time passes, every timer firing on the way
			evicted := c.stats.KeepaliveEvictions
			env.Advance(time.Duration(rng.Intn(20000)) * time.Millisecond)
			if c.stats.KeepaliveEvictions > evicted {
				cov.keepalive++
			}
		case op < 80: // an edge gets a request it will not answer
			var edge *neighbor
			for _, nb := range s.origins {
				if nb.origin == originEdge {
					edge = nb
				}
			}
			if edge == nil || s.outstandingTotal >= cfg.MaxOutstanding || int(edge.reqCount) >= cfg.MaxOutstandingPerNeighbor {
				break
			}
			seq := s.buffer.Playhead() + uint64(rng.Intn(64))
			if s.inFlight(seq) {
				break
			}
			s.sendDataRequest(edge, seq, 1, env.now)
			origins := len(s.origins)
			env.now += cfg.RequestTimeout + time.Millisecond
			s.expireRequests(env.now)
			if len(s.origins) < origins {
				cov.edgeDrops++
			}
		case op < 92: // neighbors are heard from: a buffer map or a Have
			if len(s.sortedNbs) == 0 {
				break
			}
			nb := s.sortedNbs[rng.Intn(len(s.sortedNbs))]
			if rng.Intn(2) == 0 {
				m := &wire.BufferMapAnnounce{Channel: ch, Buffer: wire.MakeBufferMap(s.buffer.Playhead(), cfg.BufferWindow)}
				m.Buffer.SetRange(s.buffer.Playhead(), s.buffer.Playhead()+uint64(rng.Intn(cfg.BufferWindow)))
				c.HandleMessage(nb.addr, m)
			} else {
				// Far enough ahead to re-anchor the knowledge window now and then.
				seq := s.buffer.Playhead() + uint64(rng.Intn(3*knowledgeWindow))
				c.HandleMessage(nb.addr, &wire.Have{Channel: ch, Seq: seq, Count: 1})
			}
		default: // the viewer switches channels
			old := s
			c.Switch(channels[int(ch)%2])
			if err := checkNeighborTable(old); err != nil {
				return fmt.Errorf("step %d: the session left: %v", step, err)
			}
			if err := checkNeighborTable(c.active); err != nil {
				return fmt.Errorf("step %d: the session before its playlink: %v", step, err)
			}
			playlink()
			cov.switches++
		}
		env.take()
		if err := checkNeighborTable(c.active); err != nil {
			return fmt.Errorf("step %d (op %d): %v", step, op, err)
		}
	}
	return nil
}

// TestNeighborTableZeroAlloc is the neighbor table's allocation gate: once
// warm, a session's mesh fills to twice its cap by inbound handshakes, each
// peer following its handshake with a buffer map and a Have that re-anchors
// the knowledge window, and a gossip round trims it back to the cap — and
// none of it allocates.
func TestNeighborTableZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items on purpose under the race detector")
	}
	env := newFakeEnv("58.32.0.1")
	cfg := testConfig() // no timer fires: the clock moves only by hand
	c := newClient(t, env, cfg)
	join(t, env, c)
	env.take()
	s := c.active
	peers := make([]netip.Addr, 2*cfg.MaxNeighbors)
	for i := range peers {
		peers[i] = netip.AddrFrom4([4]byte{58, 33, 0, byte(i + 1)})
	}
	hs := &wire.Handshake{Channel: 1}
	announce := &wire.BufferMapAnnounce{Channel: 1, Buffer: wire.MakeBufferMap(s.buffer.Playhead(), cfg.BufferWindow)}
	announce.Buffer.SetRange(s.buffer.Playhead(), s.buffer.Playhead()+uint64(cfg.BufferWindow/2))
	have := &wire.Have{Channel: 1, Seq: s.buffer.Playhead() + 2*knowledgeWindow, Count: 1}
	// The session's acks and peer-list requests go back to their pools, as
	// the transport releases them.
	release := func() {
		for _, m := range env.sent {
			wire.Release(m.msg)
		}
		env.sent = env.sent[:0]
	}
	var filled, trimmed int
	cycle := func() {
		for _, p := range peers {
			c.HandleMessage(p, hs)
			c.HandleMessage(p, announce)
			c.HandleMessage(p, have)
		}
		filled = len(s.sortedNbs)
		release()
		env.now += time.Second
		s.gossip()
		trimmed = len(s.sortedNbs)
		release()
	}
	const runs = 50
	before := c.Stats()
	allocs := testing.AllocsPerRun(runs, cycle)
	if filled != 2*cfg.MaxNeighbors || trimmed != cfg.MaxNeighbors {
		t.Fatalf("the mesh filled to %d and trimmed to %d, want %d and %d", filled, trimmed, 2*cfg.MaxNeighbors, cfg.MaxNeighbors)
	}
	// The warm-up run fills an empty mesh; every later one adds back the
	// MaxNeighbors the trim dropped and turns the rest away.
	if got, want := c.Stats().InboundAccepted-before.InboundAccepted, uint64((runs+2)*cfg.MaxNeighbors); got != want {
		t.Errorf("%d inbound handshakes accepted over %d runs, want %d", got, runs+1, want)
	}
	if allocs != 0 {
		t.Errorf("neighbor table: %.1f allocs per fill and trim of %d neighbors, want 0", allocs, cfg.MaxNeighbors)
	}
}
