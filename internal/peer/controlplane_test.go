package peer

import (
	"net/netip"
	"reflect"
	"slices"
	"testing"
	"time"

	"pplivesim/internal/isp"
	"pplivesim/internal/simnet"
	"pplivesim/internal/tracker"
	"pplivesim/internal/wire"
)

// quietInterval is quietConfig's timer period: longer than the simulated
// hour its longest test runs, and inside Config.Validate's in-flight ring
// bound (about eight hours at testChannel's rate).
const quietInterval = 4 * time.Hour

// quietConfig is testConfig with every periodic timer quietInterval apart,
// so a session does nothing a test does not make it do. A test on it checks
// that its clock stays short of quietInterval.
func quietConfig() Config {
	cfg := testConfig()
	cfg.GossipInterval = quietInterval
	cfg.SchedInterval = quietInterval
	cfg.BufferMapInterval = quietInterval
	cfg.AnnounceInterval = quietInterval
	cfg.TrackerIntervalStartup = quietInterval
	cfg.TrackerIntervalSteady = quietInterval
	return cfg
}

// TestControlPlaneZeroAlloc is the control plane's allocation gate: once
// warm, two sessions in different domains of a sharded world go through a
// handshake the responder rejects, a neighbor drop on both sides and the
// re-add by a handshake it accepts, the peer-list request and reply that
// follow, and a six-target Have fan-out — all of it sent and delivered
// through World.Run — and allocate nothing.
func TestControlPlaneZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items on purpose under the race detector")
	}
	w := simnet.NewShardedWorldN(7, simnet.DefaultShards)
	spawn := func(cat isp.ISP) *simnet.Env {
		env, err := w.DomainsOf(cat)[0].Spawn(simnet.HostSpec{ISP: cat, UploadBps: 1 << 30})
		if err != nil {
			t.Fatal(err)
		}
		return env
	}
	envA, envB, envBuddy := spawn(isp.TELE), spawn(isp.CNC), spawn(isp.TELE)
	cfg := quietConfig()
	a, err := New(envA, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MaxNeighbors = 1 // b is full with two inbound neighbors
	b, err := New(envB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	envA.SetHandler(a)
	envB.SetHandler(b)
	joinTB(a)
	joinTB(b)
	sa, sb := a.active, b.active
	addrA, addrB := envA.Addr(), envB.Addr()

	// b's second neighbor fills its table while a is the first and is what
	// b refers a to; a holds it already, so a dials no one else. a's Have
	// targets are b, a buddy in its own domain, and the filler, which no
	// host answers to.
	filler := netip.MustParseAddr("58.32.7.7")
	sb.addNeighbor(filler, wire.BufferMap{})
	sa.addNeighbor(filler, wire.BufferMap{})
	sa.addNeighbor(envBuddy.Addr(), wire.BufferMap{})
	var havesSent, havesGot, havesWrong int
	seq := uint64(0)
	envA.TapSend(func(_ netip.Addr, m wire.Message, _ int) {
		if m.Kind() == wire.THave {
			havesSent++
		}
	})
	// Every target sees the fan-out's one message intact: none of the
	// earlier deliveries recycled it under the later ones.
	gotHave := func(_ netip.Addr, m wire.Message, _ int) {
		if h, ok := m.(*wire.Have); ok {
			havesGot++
			if h.Seq != seq || h.Count != 1 {
				havesWrong++
			}
		}
	}
	envB.TapRecv(gotHave)
	envBuddy.TapRecv(gotHave)

	var horizon time.Duration
	run := func() {
		horizon += time.Second
		if err := w.Run(horizon, 1); err != nil {
			t.Fatal(err)
		}
	}
	dial := func() { sa.sendHandshake(addrB) }
	dropB := func() { sa.dropNeighbor(addrB) }
	dropA := func() { sb.dropNeighbor(addrA) }
	fanout := func() {
		seq++
		sa.gossipHave(seq, 1, sourceAddr)
	}
	cycle := func() {
		envA.Domain().At(horizon, dial) // rejected: b holds the filler and a
		run()
		envA.Domain().At(horizon, dropB)
		envB.Domain().At(horizon, dropA)
		envA.Domain().At(horizon+time.Millisecond, dial) // accepted
		run()
		envA.Domain().At(horizon, fanout)
		run()
	}
	envA.Domain().At(horizon, dial) // the first dial makes a b's neighbor
	run()
	for i := 0; i < 200; i++ {
		cycle()
	}

	// AllocsPerRun divides its count by the runs in integers. A run of ten
	// cycles makes an object a tenth of them allocate show, where a run of
	// one would round it away; the event queue's amortized growth, a few
	// objects in the whole measurement, stays below it.
	const runs, batch = 50, 10
	idle := testing.AllocsPerRun(runs, func() {
		for i := 0; i < 3*batch; i++ {
			run()
		}
	})
	before, beforeB := a.Stats(), b.Stats()
	_, lostBefore, _, _ := w.NetStats()
	havesSent, havesGot = 0, 0
	allocs := testing.AllocsPerRun(runs, func() {
		for i := 0; i < batch; i++ {
			cycle()
		}
	})
	st, stB := a.Stats(), b.Stats()
	_, lost, _, _ := w.NetStats()
	lost -= lostBefore
	// The TELE–CNC path loses a few datagrams, and each loss can cost or,
	// by leaving a dial unanswered until the next cycle, add one outcome.
	const cycles = (runs + 1) * batch
	for _, c := range []struct {
		what string
		got  uint64
	}{
		{"rejected handshakes", st.HandshakesRejected - before.HandshakesRejected},
		{"accepted handshakes", st.HandshakesAccepted - before.HandshakesAccepted},
		{"handshakes b rejected", stB.InboundRejected - beforeB.InboundRejected},
		{"peer-list replies", st.GossipReplies - before.GossipReplies},
	} {
		if c.got+lost < cycles || c.got > cycles+lost {
			t.Errorf("%d %s over %d cycles with %d datagrams lost", c.got, c.what, cycles, lost)
		}
	}
	if havesSent != 6*cycles || havesGot == 0 || havesWrong != 0 {
		t.Errorf("%d Haves sent, %d delivered (%d of them recycled early) over %d six-target fan-outs",
			havesSent, havesGot, havesWrong, cycles)
	}
	if horizon >= quietInterval {
		t.Errorf("the clock reached %v, past quietConfig's timers", horizon)
	}
	t.Logf("%d idle World.Runs: %.0f allocs; as %d cycles: %.0f", 3*batch, idle, batch, allocs)
	if got := allocs - idle; got != 0 {
		t.Errorf("%d control-plane cycles allocate %.2f objects beyond %d idle World.Runs (%.0f), want 0", batch, got, 3*batch, idle)
	}
}

// TestPeriodicMessagesZeroAlloc is the allocation gate of the messages a
// session sends on its timers: once warm, a three-target buffer-map announce
// fan-out (to a neighbor in another domain, one in the sender's own and one no
// host answers to), a tracker round through a real tracker.Server in a third
// domain — both sessions announce, one queries and takes in the response —
// and a keepalive ping and its pong, all sent and delivered through
// World.Run, allocate nothing.
func TestPeriodicMessagesZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items on purpose under the race detector")
	}
	w := simnet.NewShardedWorldN(7, simnet.DefaultShards)
	spawn := func(cat isp.ISP) *simnet.Env {
		env, err := w.DomainsOf(cat)[0].Spawn(simnet.HostSpec{ISP: cat, UploadBps: 1 << 30})
		if err != nil {
			t.Fatal(err)
		}
		return env
	}
	envA, envB, envBuddy, envTrk := spawn(isp.TELE), spawn(isp.CNC), spawn(isp.TELE), spawn(isp.CER)
	trk := tracker.NewServer(envTrk)
	envTrk.SetHandler(trk)
	a, err := New(envA, quietConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(envB, quietConfig())
	if err != nil {
		t.Fatal(err)
	}
	envA.SetHandler(a)
	envB.SetHandler(b)
	joinTB(a)
	joinTB(b)
	sa, sb := a.active, b.active
	addrB := envB.Addr()
	sa.trackers = []netip.Addr{envTrk.Addr()}
	sb.trackers = sa.trackers
	sa.addNeighbor(netip.MustParseAddr("58.32.7.7"), wire.BufferMap{})
	sa.addNeighbor(envBuddy.Addr(), wire.BufferMap{})

	var maps, pongs, responses int
	envB.TapRecv(func(_ netip.Addr, m wire.Message, _ int) {
		if bm, ok := m.(*wire.BufferMapAnnounce); ok && bm.Buffer.ByteLen > 0 {
			maps++
		}
	})
	envA.TapRecv(func(_ netip.Addr, m wire.Message, _ int) {
		switch m := m.(type) {
		case *wire.Pong:
			pongs++
		case *wire.TrackerResponse:
			if len(m.Peers) == 1 && m.Peers[0] == addrB {
				responses++
			}
		}
	})

	var horizon time.Duration
	run := func() {
		horizon += time.Second
		if err := w.Run(horizon, 1); err != nil {
			t.Fatal(err)
		}
	}
	announce := func() { sa.announceBufferMap() }
	track := func() {
		sa.announceTrackers(false)
		sb.announceTrackers(false)
	}
	query := func() { sa.queryTrackers() }
	// b alone has been quiet for the keepalive idle bound, so a pings it,
	// and nothing else, and b's pong marks it heard again.
	ping := func() {
		now := envA.Now()
		for _, nb := range sa.sortedNbs {
			nb.lastHeard = now
		}
		nb := sa.neighbors[akey(addrB)]
		nb.lastHeard, nb.lastPing = now-keepaliveIdle, 0
		sa.keepaliveTick()
	}
	cycle := func() {
		envA.Domain().At(horizon, announce)
		envA.Domain().At(horizon, track)
		run()
		envA.Domain().At(horizon, query)
		envA.Domain().At(horizon, ping)
		run()
	}
	envA.Domain().At(horizon, func() { sa.sendHandshake(addrB) })
	run()
	if _, ok := sa.neighbors[akey(addrB)]; !ok {
		t.Fatal("setup: b did not accept a's handshake")
	}
	for i := 0; i < 200; i++ {
		cycle()
	}

	const runs, batch = 50, 10
	idle := testing.AllocsPerRun(runs, func() {
		for i := 0; i < 2*batch; i++ {
			run()
		}
	})
	maps, pongs, responses = 0, 0, 0
	before := a.Stats()
	_, lostBefore, _, _ := w.NetStats()
	allocs := testing.AllocsPerRun(runs, func() {
		for i := 0; i < batch; i++ {
			cycle()
		}
	})
	st := a.Stats()
	_, lost, _, _ := w.NetStats()
	lost -= lostBefore
	const cycles = (runs + 1) * batch
	for _, c := range []struct {
		what string
		got  uint64
	}{
		{"buffer maps b got", uint64(maps)},
		{"pongs a got", uint64(pongs)},
		{"tracker responses listing b", uint64(responses)},
		{"pings a sent", st.PingsSent - before.PingsSent},
		{"tracker queries a sent", st.TrackerQueries - before.TrackerQueries},
	} {
		// A lost datagram costs at most one outcome; pings and queries do
		// not depend on the network.
		if c.got+lost < cycles || c.got > cycles {
			t.Errorf("%d %s over %d cycles with %d datagrams lost", c.got, c.what, cycles, lost)
		}
	}
	if horizon >= quietInterval {
		t.Errorf("the clock reached %v, past quietConfig's timers", horizon)
	}
	t.Logf("%d idle World.Runs: %.0f allocs; as %d cycles: %.0f", 2*batch, idle, batch, allocs)
	if got := allocs - idle; got != 0 {
		t.Errorf("%d periodic-message cycles allocate %.2f objects beyond %d idle World.Runs (%.0f), want 0", batch, got, 2*batch, idle)
	}
}

// scribble overwrites every element of s up to its capacity.
func scribble[T any](s []T, v T) {
	s = s[:cap(s)]
	for i := range s {
		s[i] = v
	}
}

// sessionView is the part of a session a delivered message may leave
// behind: copies, so a later scribble cannot reach them.
type sessionView struct {
	buffer  []uint64
	pending []pendingShake
	recent  []netip.Addr
	dialed  []netip.Addr
}

func viewOf(s *session, env *fakeEnv, nb netip.Addr) sessionView {
	v := sessionView{
		buffer:  slices.Clone(s.neighbors[akey(nb)].buffer.Words),
		pending: slices.Clone(s.pending),
		recent:  slices.Clone(s.recent),
	}
	for _, m := range env.sent {
		if m.msg.Kind() == wire.THandshake {
			v.dialed = append(v.dialed, m.to)
		}
	}
	return v
}

// TestRecycledMessagesNotRetained delivers a pooled HandshakeAck,
// PeerListRequest and PeerListReply to a session, releases each as the
// transport does, and scribbles over the storage the next sender gets: the
// neighbor's buffer map, the handshake window, the referral source and the
// handshakes sent must not change, because a session copies what it keeps.
// Then the same for a BufferMapAnnounce and the neighbor's map.
func TestRecycledMessagesNotRetained(t *testing.T) {
	env := newFakeEnv("58.32.0.1")
	c := newClient(t, env, testConfig())
	join(t, env, c)
	env.take()
	s := c.active
	p := netip.MustParseAddr("58.32.0.2")
	c.HandleMessage(trackerAddrs[0], &wire.TrackerResponse{Channel: 1, Peers: []netip.Addr{p}})

	ack := wire.NewHandshakeAck(1, true)
	ack.Buffer = wire.ResetBufferMap(ack.Buffer.Words, 64, 2048)
	ack.Buffer.SetRange(100, 900)
	c.HandleMessage(p, ack)
	request := wire.NewPeerListRequest(1)
	request.OwnPeers = append(request.OwnPeers, netip.MustParseAddr("58.32.0.3"), netip.MustParseAddr("58.32.0.4"))
	c.HandleMessage(p, request)
	reply := wire.NewPeerListReply(1)
	reply.Peers = append(reply.Peers, netip.MustParseAddr("58.32.0.5"), netip.MustParseAddr("58.32.0.6"))
	c.HandleMessage(p, reply)
	want := viewOf(s, env, p)
	if len(want.buffer) == 0 || len(want.pending) != 2 || len(want.dialed) != 3 {
		t.Fatalf("setup: %d buffer words, %d pending, %d dials; want a map, 2 pending, 3 dials",
			len(want.buffer), len(want.pending), len(want.dialed))
	}

	words, own, peers := ack.Buffer.Words, request.OwnPeers, reply.Peers
	wire.Release(ack)
	wire.Release(request)
	wire.Release(reply)
	junk := netip.MustParseAddr("203.0.113.9")
	scribble(words, ^uint64(0))
	scribble(own, junk)
	scribble(peers, junk)
	// The next sender appends into the same storage.
	next := wire.NewHandshakeAck(1, true)
	next.Buffer = wire.ResetBufferMap(next.Buffer.Words, 0, 2048)
	scribble(next.Buffer.Words, ^uint64(0))
	nextList := wire.NewPeerListReply(1)
	nextList.Peers = append(nextList.Peers, junk, junk, junk)

	if got := viewOf(s, env, p); !reflect.DeepEqual(got, want) {
		t.Errorf("session changed after its messages were recycled:\n got %+v\nwant %+v", got, want)
	}

	// A buffer-map announce replaces the neighbor's view; the view keeps its
	// words after the announce is recycled and the next sender refills them.
	announce := wire.NewBufferMapAnnounce(1)
	announce.Buffer = wire.ResetBufferMap(announce.Buffer.Words, 128, 2048)
	announce.Buffer.SetRange(300, 1500)
	c.HandleMessage(p, announce)
	want = viewOf(s, env, p)
	if nb := s.neighbors[akey(p)]; !nb.buffer.Has(1500) || nb.buffer.Has(200) {
		t.Fatal("setup: the announce did not replace the neighbor's map")
	}
	words = announce.Buffer.Words
	wire.Release(announce)
	scribble(words, ^uint64(0))
	refill := wire.NewBufferMapAnnounce(1)
	refill.Buffer = wire.ResetBufferMap(refill.Buffer.Words, 0, 2048)
	scribble(refill.Buffer.Words, ^uint64(0))
	if got := viewOf(s, env, p); !reflect.DeepEqual(got, want) {
		t.Errorf("neighbor view changed after its announce was recycled and refilled:\n got %+v\nwant %+v", got, want)
	}
}

// TestRecycledNeighborStartsClean: the neighbor table slot the session freed
// is the next one it fills, and nothing of its previous occupant carries over
// — no outstanding request, no plan row, no scores, no failure streak or
// backoff, no buffer coverage — but the slot's own buffer-map storage.
func TestRecycledNeighborStartsClean(t *testing.T) {
	env := newFakeEnv("58.32.0.1")
	c := newClient(t, env, resilientConfig())
	join(t, env, c)
	env.take()
	s := c.active
	old := addPeerNeighbor(t, env, c, "58.32.0.2")
	nb := s.neighbors[akey(old)]
	nb.setBuffer(wire.MakeBufferMap(0, 2048), env.now)
	nb.learnHas(0, 500, env.now)
	s.buildSchedPlan(0, 600, env.now)
	s.sendDataRequest(nb, 10, 1, env.now)
	nb.score, nb.minRTT, nb.failStreak, nb.backoffUntil = time.Second, time.Second, 3, time.Hour
	nb.lastPing, nb.requests, nb.replies, nb.bytes = time.Minute, 5, 4, 1000
	if nb.planIdx < 0 || nb.reqCount != 1 {
		t.Fatalf("setup: plan row %d, %d outstanding", nb.planIdx, nb.reqCount)
	}
	total, free := s.outstandingTotal, freeSlots(s)
	words := nb.buffer.Words[:1]
	s.dropNeighbor(old)
	if s.outstandingTotal != total-1 || s.inflight.Has(10) || freeSlots(s) != free+1 {
		t.Errorf("dropping left %d of %d requests outstanding (seq 10 in flight: %v, %d of %d table slots free)",
			s.outstandingTotal, total, s.inflight.Has(10), freeSlots(s), free+1)
	}

	// An inbound handshake sets nothing but the entry itself (an accepted
	// dial would set the scores from its round trip).
	env.now += time.Second
	fresh := netip.MustParseAddr("58.32.0.3")
	c.HandleMessage(fresh, &wire.Handshake{Channel: 1})
	got := s.neighbors[akey(fresh)]
	if got != nb || slotIndex(s, got) < 0 {
		t.Fatalf("the freed slot %d was not reused (got slot %d)", slotIndex(s, nb), slotIndex(s, got))
	}
	if cap(got.buffer.Words) != cap(words) || &got.buffer.Words[:1][0] != &words[0] {
		t.Error("the recycled neighbor lost its slot's buffer-map storage")
	}
	clean := *got
	clean.buffer.Words = nil
	want := neighbor{addr: fresh, connected: env.now, lastHeard: env.now, bufferAt: env.now, reqHead: -1, planIdx: -1}
	if !reflect.DeepEqual(clean, want) || len(got.buffer.Words) != 0 {
		t.Errorf("recycled neighbor = %+v (%d words), want %+v and nothing else",
			clean, len(got.buffer.Words), want)
	}
}
