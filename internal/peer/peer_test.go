package peer

import (
	"math"
	"net/netip"
	"testing"
	"time"

	"pplivesim/internal/stream"
	"pplivesim/internal/wire"
)

var (
	bootstrapAddr = netip.MustParseAddr("61.128.0.100")
	sourceAddr    = netip.MustParseAddr("58.32.9.9")
	trackerAddrs  = []netip.Addr{
		netip.MustParseAddr("61.128.0.1"),
		netip.MustParseAddr("60.0.0.1"),
		netip.MustParseAddr("59.64.0.1"),
		netip.MustParseAddr("61.129.0.1"),
		netip.MustParseAddr("60.1.0.1"),
	}
)

func testChannel() stream.Spec { return stream.DefaultSpec(1, "test", 100) }

func testConfig() Config {
	return DefaultConfig(testChannel(), bootstrapAddr)
}

func newClient(t *testing.T, env *fakeEnv, cfg Config) *Client {
	t.Helper()
	c, err := New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// join walks a client through the bootstrap flow.
func join(t *testing.T, env *fakeEnv, c *Client) {
	t.Helper()
	c.Start()
	msgs := env.take()
	if len(msgs) != 1 || msgs[0].msg.Kind() != wire.TChannelListRequest {
		t.Fatalf("start sent %v, want one ChannelListRequest", kinds(msgs))
	}
	c.HandleMessage(bootstrapAddr, &wire.ChannelListResponse{
		Channels: []wire.ChannelInfo{{ID: 1, Name: "test"}},
	})
	msgs = env.take()
	if len(msgs) != 1 || msgs[0].msg.Kind() != wire.TPlaylinkRequest {
		t.Fatalf("channel list produced %v, want one PlaylinkRequest", kinds(msgs))
	}
	c.HandleMessage(bootstrapAddr, &wire.PlaylinkResponse{
		Channel:  1,
		Source:   sourceAddr,
		Trackers: trackerAddrs,
	})
	if c.Phase() != PhaseStartup {
		t.Fatalf("phase after playlink = %v, want startup", c.Phase())
	}
}

func TestConfigValidation(t *testing.T) {
	good := testConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Bootstrap = netip.Addr{} },
		func(c *Config) { c.BufferWindow = 4 },
		func(c *Config) { c.GossipInterval = 0 },
		func(c *Config) { c.FetchLead = 0 },
		func(c *Config) { c.TrackerIntervalSteady = 0 },
		func(c *Config) { c.MaxNeighbors = 0 },
		func(c *Config) { c.ReferralSize = 500 },
		func(c *Config) { c.BatchCount = 0 },
		func(c *Config) { c.BatchCount = 100 },
		func(c *Config) { c.MaxOutstanding = 0 },
		func(c *Config) { c.MaxOutstandingPerNeighbor = 0 },
		// The request table links its slots by int16 index.
		func(c *Config) { c.MaxOutstanding = math.MaxInt16 + 1 },
		func(c *Config) { c.RequestTimeout = 0 },
		// The in-flight ring spans the buffer window plus what the channel
		// emits over RequestTimeout and one SchedInterval.
		func(c *Config) { c.SchedInterval = 365 * 24 * time.Hour },
		func(c *Config) { c.RequestTimeout = 365 * 24 * time.Hour },
		func(c *Config) { c.RequestTimeout, c.SchedInterval = math.MaxInt64, math.MaxInt64 },
		func(c *Config) { c.BufferWindow = maxInflightSpan },
		func(c *Config) { c.Channel.BitrateBps = math.MaxInt32 },
	}
	for i, mutate := range cases {
		cfg := testConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	largest := testConfig()
	largest.MaxOutstanding = math.MaxInt16
	if err := largest.Validate(); err != nil {
		t.Errorf("the largest request table rejected: %v", err)
	}
	quiet := quietConfig()
	if err := quiet.Validate(); err != nil {
		t.Errorf("quietConfig rejected: %v", err)
	}
	// The ring's bound falls between two whole-second scheduler intervals.
	room := (maxInflightSpan-float64(good.BufferWindow+64))/testChannel().Rate() - good.RequestTimeout.Seconds()
	in, out := testConfig(), testConfig()
	in.SchedInterval = time.Duration(room) * time.Second
	out.SchedInterval = in.SchedInterval + time.Second
	if err := in.Validate(); err != nil {
		t.Errorf("scheduler interval %v, the longest whose ring fits, rejected: %v", in.SchedInterval, err)
	}
	if err := out.Validate(); err == nil {
		t.Errorf("scheduler interval %v, whose ring is past the bound, accepted", out.SchedInterval)
	}
}

func TestJoinFlow(t *testing.T) {
	env := newFakeEnv("58.32.0.1")
	c := newClient(t, env, testConfig())
	join(t, env, c)

	// After the playlink: announce + query all five trackers; the source is
	// registered as a neighbor of last resort.
	msgs := env.take()
	announces, queries := 0, 0
	for _, m := range msgs {
		switch m.msg.Kind() {
		case wire.TTrackerAnnounce:
			announces++
		case wire.TTrackerQuery:
			queries++
		}
	}
	if announces != 5 || queries != 5 {
		t.Errorf("announces=%d queries=%d, want 5 each", announces, queries)
	}
	if c.NumNeighbors() != 1 {
		t.Errorf("neighbors after join = %d, want 1 (the source)", c.NumNeighbors())
	}
}

func TestBootstrapRetry(t *testing.T) {
	env := newFakeEnv("58.32.0.1")
	c := newClient(t, env, testConfig())
	c.Start()
	env.take()
	env.Advance(5 * time.Second)
	retries := 0
	for _, m := range env.take() {
		if m.msg.Kind() == wire.TChannelListRequest {
			retries++
		}
	}
	if retries == 0 {
		t.Error("no bootstrap retries after silence")
	}
}

func TestConnectsImmediatelyOnTrackerList(t *testing.T) {
	env := newFakeEnv("58.32.0.1")
	cfg := testConfig()
	cfg.ConnectFanout = 3
	c := newClient(t, env, cfg)
	join(t, env, c)
	env.take()

	peers := []netip.Addr{
		netip.MustParseAddr("58.32.0.2"),
		netip.MustParseAddr("58.32.0.3"),
		netip.MustParseAddr("58.32.0.4"),
		netip.MustParseAddr("58.32.0.5"),
	}
	c.HandleMessage(trackerAddrs[0], &wire.TrackerResponse{Channel: 1, Peers: peers})
	handshakes := 0
	for _, m := range env.take() {
		if m.msg.Kind() == wire.THandshake {
			handshakes++
		}
	}
	if handshakes != 3 {
		t.Errorf("handshakes = %d, want ConnectFanout=3 sent immediately", handshakes)
	}
}

func TestHandshakeAckCreatesNeighborAndAsksForList(t *testing.T) {
	env := newFakeEnv("58.32.0.1")
	c := newClient(t, env, testConfig())
	join(t, env, c)
	env.take()

	peerAddr := netip.MustParseAddr("58.32.0.2")
	c.HandleMessage(trackerAddrs[0], &wire.TrackerResponse{Channel: 1, Peers: []netip.Addr{peerAddr}})
	env.take()
	env.Advance(50 * time.Millisecond)
	c.HandleMessage(peerAddr, &wire.HandshakeAck{Channel: 1, Accepted: true})
	got := env.sentTo(peerAddr)
	if len(got) != 1 || got[0].Kind() != wire.TPeerListRequest {
		t.Fatalf("after ack sent %v, want one PeerListRequest first", got)
	}
	if c.NumNeighbors() != 2 { // source + new peer
		t.Errorf("neighbors = %d, want 2", c.NumNeighbors())
	}
	st := c.Stats()
	if st.HandshakesAccepted != 1 {
		t.Errorf("HandshakesAccepted = %d", st.HandshakesAccepted)
	}
}

func TestInboundHandshakeAccepted(t *testing.T) {
	env := newFakeEnv("58.32.0.1")
	c := newClient(t, env, testConfig())
	join(t, env, c)
	env.take()

	peerAddr := netip.MustParseAddr("60.0.0.7")
	c.HandleMessage(peerAddr, &wire.Handshake{Channel: 1})
	got := env.sentTo(peerAddr)
	if len(got) != 1 {
		t.Fatalf("inbound handshake produced %d messages", len(got))
	}
	ack, ok := got[0].(*wire.HandshakeAck)
	if !ok || !ack.Accepted {
		t.Fatalf("reply = %#v, want accepting HandshakeAck", got[0])
	}
	if ack.Buffer.Words == nil {
		t.Error("accepting ack carries no buffer map")
	}
}

func TestReferralListAndEnclosedGossip(t *testing.T) {
	env := newFakeEnv("58.32.0.1")
	c := newClient(t, env, testConfig())
	join(t, env, c)
	env.take()

	// Connect two neighbors.
	n1 := netip.MustParseAddr("58.32.0.2")
	n2 := netip.MustParseAddr("58.32.0.3")
	for _, a := range []netip.Addr{n1, n2} {
		c.HandleMessage(trackerAddrs[0], &wire.TrackerResponse{Channel: 1, Peers: []netip.Addr{a}})
		c.HandleMessage(a, &wire.HandshakeAck{Channel: 1, Accepted: true})
	}
	env.take()

	// A third peer asks for our list, enclosing its own.
	asker := netip.MustParseAddr("60.0.0.9")
	enclosed := netip.MustParseAddr("60.0.0.10")
	learned := c.Stats().AddrsLearned
	c.HandleMessage(asker, &wire.PeerListRequest{Channel: 1, OwnPeers: []netip.Addr{enclosed}})
	got := env.sentTo(asker)
	if len(got) != 1 {
		t.Fatalf("list request produced %d messages", len(got))
	}
	reply, ok := got[0].(*wire.PeerListReply)
	if !ok {
		t.Fatalf("reply = %T", got[0])
	}
	// Referral = recently connected peers, most recent first, source excluded.
	if len(reply.Peers) != 2 || reply.Peers[0] != n2 || reply.Peers[1] != n1 {
		t.Errorf("referral = %v, want [n2 n1]", reply.Peers)
	}
	// The enclosed list was counted as learned addresses.
	if got := c.Stats().AddrsLearned - learned; got != 1 {
		t.Errorf("AddrsLearned grew by %d on a one-address enclosed list, want 1", got)
	}
}

func TestReferralDisabledReturnsEmpty(t *testing.T) {
	env := newFakeEnv("58.32.0.1")
	cfg := testConfig()
	cfg.ReferralEnabled = false
	c := newClient(t, env, cfg)
	join(t, env, c)
	n1 := netip.MustParseAddr("58.32.0.2")
	c.HandleMessage(trackerAddrs[0], &wire.TrackerResponse{Channel: 1, Peers: []netip.Addr{n1}})
	c.HandleMessage(n1, &wire.HandshakeAck{Channel: 1, Accepted: true})
	env.take()

	asker := netip.MustParseAddr("60.0.0.9")
	c.HandleMessage(asker, &wire.PeerListRequest{Channel: 1})
	got := env.sentTo(asker)
	if len(got) != 1 {
		t.Fatalf("list request produced %d messages", len(got))
	}
	reply, ok := got[0].(*wire.PeerListReply)
	if !ok || len(reply.Peers) != 0 {
		t.Errorf("ablated referral returned %v, want empty", got[0])
	}
}

func TestGossipCadence(t *testing.T) {
	env := newFakeEnv("58.32.0.1")
	c := newClient(t, env, testConfig())
	join(t, env, c)
	n1 := netip.MustParseAddr("58.32.0.2")
	c.HandleMessage(trackerAddrs[0], &wire.TrackerResponse{Channel: 1, Peers: []netip.Addr{n1}})
	c.HandleMessage(n1, &wire.HandshakeAck{Channel: 1, Accepted: true})
	env.take()

	env.Advance(21 * time.Second)
	gossips := 0
	for _, m := range env.take() {
		if m.to == n1 && m.msg.Kind() == wire.TPeerListRequest {
			gossips++
		}
	}
	if gossips != 1 {
		t.Errorf("gossip requests in 21s = %d, want 1 (20s cadence)", gossips)
	}
}

func TestServeDataRequest(t *testing.T) {
	env := newFakeEnv("58.32.0.1")
	c := newClient(t, env, testConfig())
	join(t, env, c)
	env.take()

	// Give the client a piece: pretend the source replied.
	seq := c.active.buffer.Playhead()
	c.HandleMessage(sourceAddr, &wire.DataReply{Channel: 1, Seq: seq, Count: 1, PieceLen: 1380})
	env.take()

	asker := netip.MustParseAddr("58.32.0.5")
	c.HandleMessage(asker, &wire.DataRequest{Channel: 1, Seq: seq, Count: 1})
	got := env.sentTo(asker)
	if len(got) != 1 {
		t.Fatalf("data request produced %d messages", len(got))
	}
	reply, ok := got[0].(*wire.DataReply)
	if !ok || reply.Count != 1 || reply.Seq != seq {
		t.Fatalf("reply = %#v", got[0])
	}
	if c.Stats().DataRequestsServed != 1 {
		t.Error("served counter not bumped")
	}
}

func TestNoHaveReplyAndMapPiggyback(t *testing.T) {
	env := newFakeEnv("58.32.0.1")
	c := newClient(t, env, testConfig())
	join(t, env, c)
	env.take()

	asker := netip.MustParseAddr("58.32.0.5")
	c.HandleMessage(asker, &wire.DataRequest{Channel: 1, Seq: c.active.buffer.Playhead(), Count: 1})
	got := env.sentTo(asker)
	if len(got) != 2 {
		t.Fatalf("decline produced %d messages, want no-have + map", len(got))
	}
	reply, ok := got[0].(*wire.DataReply)
	if !ok || reply.Count != 0 || reply.Busy {
		t.Fatalf("first = %#v, want Count=0 non-busy DataReply", got[0])
	}
	if got[1].Kind() != wire.TBufferMap {
		t.Errorf("second = %v, want piggybacked buffer map", got[1].Kind())
	}
}

func TestBusyShedWhenBacklogged(t *testing.T) {
	env := newFakeEnv("58.32.0.1")
	c := newClient(t, env, testConfig())
	join(t, env, c)
	seq := c.active.buffer.Playhead()
	c.HandleMessage(sourceAddr, &wire.DataReply{Channel: 1, Seq: seq, Count: 1, PieceLen: 1380})
	env.take()

	env.backlog = 10 * time.Second
	asker := netip.MustParseAddr("58.32.0.5")
	c.HandleMessage(asker, &wire.DataRequest{Channel: 1, Seq: seq, Count: 1})
	got := env.sentTo(asker)
	if len(got) != 1 {
		t.Fatalf("shed produced %d messages", len(got))
	}
	reply, ok := got[0].(*wire.DataReply)
	if !ok || !reply.Busy || reply.Count != 0 {
		t.Fatalf("reply = %#v, want busy signal", got[0])
	}
	if c.Stats().DataRequestsShed != 1 {
		t.Error("shed counter not bumped")
	}
}

func TestSchedulerRequestsFromProvenHolder(t *testing.T) {
	env := newFakeEnv("58.32.0.1")
	c := newClient(t, env, testConfig())
	join(t, env, c)
	env.take()

	// Neighbor with a full buffer map over the window we want.
	n1 := netip.MustParseAddr("58.32.0.2")
	c.HandleMessage(trackerAddrs[0], &wire.TrackerResponse{Channel: 1, Peers: []netip.Addr{n1}})
	c.HandleMessage(n1, &wire.HandshakeAck{Channel: 1, Accepted: true})
	bits := make([]byte, 256)
	for i := range bits {
		bits[i] = 0xff
	}
	c.HandleMessage(n1, &wire.BufferMapAnnounce{Channel: 1, Buffer: bufferMapFromBytes(c.active.buffer.Playhead(), bits)})
	env.take()

	env.Advance(2 * time.Second) // a few scheduler ticks past some emissions
	requests := 0
	for _, m := range env.take() {
		if m.to == n1 && m.msg.Kind() == wire.TDataRequest {
			requests++
		}
	}
	if requests == 0 {
		t.Error("scheduler never requested from a proven holder")
	}
}

func TestHaveHintUpdatesCoverageAndPropagates(t *testing.T) {
	env := newFakeEnv("58.32.0.1")
	c := newClient(t, env, testConfig())
	join(t, env, c)
	n1 := netip.MustParseAddr("58.32.0.2")
	c.HandleMessage(trackerAddrs[0], &wire.TrackerResponse{Channel: 1, Peers: []netip.Addr{n1}})
	c.HandleMessage(n1, &wire.HandshakeAck{Channel: 1, Accepted: true})
	env.take()

	seq := c.active.buffer.Playhead()
	c.HandleMessage(n1, &wire.Have{Channel: 1, Seq: seq, Count: 2})
	nb := c.active.neighbors[akey(n1)]
	if !nb.covers(seq) || !nb.covers(seq+1) {
		t.Error("Have hint not recorded as coverage")
	}

	// Receiving fresh data triggers outgoing Have hints.
	c.HandleMessage(sourceAddr, &wire.DataReply{Channel: 1, Seq: seq, Count: 1, PieceLen: 1380})
	hints := 0
	for _, m := range env.take() {
		if m.msg.Kind() == wire.THave {
			hints++
		}
	}
	if hints == 0 {
		t.Error("fresh data produced no Have hints")
	}
}

func TestLatencySwapReplacesWorstNeighbor(t *testing.T) {
	env := newFakeEnv("58.32.0.1")
	cfg := testConfig()
	cfg.MaxNeighbors = 2
	c := newClient(t, env, cfg)
	join(t, env, c)
	env.take()

	// Fill the table with two neighbors; give them measured RTTs.
	slow := netip.MustParseAddr("60.0.0.2")
	fast := netip.MustParseAddr("58.32.0.2")
	for _, a := range []netip.Addr{slow, fast} {
		c.HandleMessage(trackerAddrs[0], &wire.TrackerResponse{Channel: 1, Peers: []netip.Addr{a}})
		c.HandleMessage(a, &wire.HandshakeAck{Channel: 1, Accepted: true})
	}
	c.active.neighbors[akey(slow)].minRTT = 900 * time.Millisecond
	c.active.neighbors[akey(fast)].minRTT = 30 * time.Millisecond
	env.take()

	// A new candidate acks quickly: it must replace the slow neighbor.
	closer := netip.MustParseAddr("58.32.0.3")
	c.HandleMessage(trackerAddrs[0], &wire.TrackerResponse{Channel: 1, Peers: []netip.Addr{closer}})
	env.Advance(20 * time.Millisecond)
	c.HandleMessage(closer, &wire.HandshakeAck{Channel: 1, Accepted: true})
	if _, ok := c.active.neighbors[akey(closer)]; !ok {
		t.Fatal("fast candidate not admitted")
	}
	if _, ok := c.active.neighbors[akey(slow)]; ok {
		t.Error("slow neighbor survived the swap")
	}
	if _, ok := c.active.neighbors[akey(fast)]; !ok {
		t.Error("fast neighbor was evicted instead")
	}
}

func TestLatencySwapDisabledRejectsWhenFull(t *testing.T) {
	env := newFakeEnv("58.32.0.1")
	cfg := testConfig()
	cfg.MaxNeighbors = 1
	cfg.LatencyBias = false
	c := newClient(t, env, cfg)
	join(t, env, c)
	first := netip.MustParseAddr("60.0.0.2")
	c.HandleMessage(trackerAddrs[0], &wire.TrackerResponse{Channel: 1, Peers: []netip.Addr{first}})
	env.Advance(3 * time.Second) // deferred (ablated) handshake goes out
	c.HandleMessage(first, &wire.HandshakeAck{Channel: 1, Accepted: true})

	second := netip.MustParseAddr("58.32.0.2")
	c.HandleMessage(trackerAddrs[0], &wire.TrackerResponse{Channel: 1, Peers: []netip.Addr{second}})
	env.Advance(3 * time.Second)
	c.HandleMessage(second, &wire.HandshakeAck{Channel: 1, Accepted: true})
	if _, ok := c.active.neighbors[akey(second)]; ok {
		t.Error("full table admitted newcomer with latency bias ablated")
	}
	if c.Stats().HandshakesRejected == 0 {
		t.Error("rejection not counted")
	}
}

func TestPushRecentDedupAndCap(t *testing.T) {
	env := newFakeEnv("58.32.0.1")
	cfg := testConfig()
	cfg.ReferralSize = 3
	c := newClient(t, env, cfg)
	s := newSession(c, testChannel())
	a := netip.MustParseAddr("10.0.0.1")
	b := netip.MustParseAddr("10.0.0.2")
	d := netip.MustParseAddr("10.0.0.3")
	e := netip.MustParseAddr("10.0.0.4")
	s.pushRecent(a)
	s.pushRecent(b)
	s.pushRecent(a) // dedup: moves to front
	if len(s.recent) != 2 || s.recent[0] != a || s.recent[1] != b {
		t.Fatalf("recent = %v, want [a b]", s.recent)
	}
	s.pushRecent(d)
	s.pushRecent(e) // cap 3: oldest (b) falls off
	if len(s.recent) != 3 || s.recent[0] != e || s.recent[1] != d || s.recent[2] != a {
		t.Fatalf("recent = %v, want [e d a]", s.recent)
	}
}

// TestStopAnnouncesLeaving covers both ways a client retires: Stop withdraws
// every tracker registration, Kill (a crash) sends nothing. Either way the
// client ends stopped, runs onStopped once, and keeps what it played.
func TestStopAnnouncesLeaving(t *testing.T) {
	for _, tc := range []struct {
		name     string
		retire   func(*Client)
		datagram int // datagrams sent by the retirement
		leaves   int // of which Leaving tracker announces
	}{
		{"Stop", (*Client).Stop, 5, 5},
		{"Kill", (*Client).Kill, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := newFakeEnv("58.32.0.1")
			c := newClient(t, env, testConfig())
			join(t, env, c)
			seq := c.active.buffer.Playhead()
			c.HandleMessage(sourceAddr, &wire.DataReply{Channel: 1, Seq: seq, Count: 4, PieceLen: 1380})
			env.Advance(30 * time.Second)
			env.take()
			played := c.BufferStats()
			if played.Received == 0 || played.PlayedOK+played.PlayedMiss == 0 {
				t.Fatalf("session played nothing before retiring: %+v", played)
			}
			stopped := 0
			c.SetOnStopped(func() { stopped++ })
			tc.retire(c)
			sent := env.take()
			leaves := 0
			for _, m := range sent {
				if ta, ok := m.msg.(*wire.TrackerAnnounce); ok && ta.Leaving {
					leaves++
				}
			}
			if len(sent) != tc.datagram || leaves != tc.leaves {
				t.Errorf("sent %d datagrams (%d leaving announces), want %d (%d)", len(sent), leaves, tc.datagram, tc.leaves)
			}
			if stopped != 1 {
				t.Errorf("onStopped ran %d times, want 1", stopped)
			}
			if c.Phase() != PhaseStopped {
				t.Errorf("phase = %v", c.Phase())
			}
			if got := c.BufferStats(); got != played {
				t.Errorf("BufferStats after retiring = %+v, want %+v", got, played)
			}
			// Retiring twice, or any post-stop message, does nothing.
			c.Stop()
			c.Kill()
			c.HandleMessage(trackerAddrs[0], &wire.TrackerResponse{Channel: 1, Peers: []netip.Addr{netip.MustParseAddr("1.2.3.4")}})
			if got := env.take(); len(got) != 0 {
				t.Errorf("stopped client sent %v", kinds(got))
			}
			if stopped != 1 {
				t.Errorf("onStopped ran %d times after a second retire, want 1", stopped)
			}
		})
	}
}

func TestRequestTimeoutExpiresAndPenalizes(t *testing.T) {
	env := newFakeEnv("58.32.0.1")
	c := newClient(t, env, testConfig())
	join(t, env, c)
	n1 := netip.MustParseAddr("58.32.0.2")
	c.HandleMessage(trackerAddrs[0], &wire.TrackerResponse{Channel: 1, Peers: []netip.Addr{n1}})
	c.HandleMessage(n1, &wire.HandshakeAck{Channel: 1, Accepted: true})
	bits := make([]byte, 256)
	for i := range bits {
		bits[i] = 0xff
	}
	c.HandleMessage(n1, &wire.BufferMapAnnounce{Channel: 1, Buffer: bufferMapFromBytes(c.active.buffer.Playhead(), bits)})
	env.take()
	env.Advance(time.Second)
	env.take()

	nb := c.active.neighbors[akey(n1)]
	sent := nb.reqCount
	if sent == 0 {
		t.Fatal("no outstanding requests to expire")
	}
	before := c.Stats().RequestTimeouts
	env.Advance(10 * time.Second) // well past RequestTimeout
	// Every request booked before the jump expired; the ticks since may
	// have booked fresh ones, each of them in the table.
	if got := c.Stats().RequestTimeouts - before; got < uint64(sent) {
		t.Errorf("%d timeouts counted, want at least the %d requests sent", got, sent)
	}
	if s := c.active; s.outstandingTotal+freeSlots(s) != s.cfg.MaxOutstanding {
		t.Errorf("%d outstanding + %d free table slots, want %d", s.outstandingTotal, freeSlots(s), s.cfg.MaxOutstanding)
	}
}

// TestPendingHandshakesExpire guards against the pending-window clog: if
// handshakes to departed peers never expired, MaxPending unanswered attempts
// would permanently stop neighbor acquisition.
func TestPendingHandshakesExpire(t *testing.T) {
	env := newFakeEnv("58.32.0.1")
	cfg := testConfig()
	cfg.MaxPending = 3
	cfg.ConnectFanout = 3
	c := newClient(t, env, cfg)
	join(t, env, c)
	env.take()

	// Three handshakes to peers that will never answer.
	dead := []netip.Addr{
		netip.MustParseAddr("10.0.0.1"),
		netip.MustParseAddr("10.0.0.2"),
		netip.MustParseAddr("10.0.0.3"),
	}
	c.HandleMessage(trackerAddrs[0], &wire.TrackerResponse{Channel: 1, Peers: dead})
	if len(c.active.pending) != 3 {
		t.Fatalf("pending = %d, want full window", len(c.active.pending))
	}
	// A fresh candidate cannot be tried while the window is clogged.
	env.take()
	alive := netip.MustParseAddr("58.32.0.2")
	c.HandleMessage(trackerAddrs[0], &wire.TrackerResponse{Channel: 1, Peers: []netip.Addr{alive}})
	if got := env.sentTo(alive); len(got) != 0 {
		t.Fatalf("handshake sent despite full pending window: %v", got)
	}

	// After the gossip tick passes HandshakeTimeout, the window clears and
	// new candidates are tried again.
	env.Advance(cfg.HandshakeTimeout + cfg.GossipInterval + time.Second)
	if len(c.active.pending) != 0 {
		t.Fatalf("pending = %d after expiry, want 0", len(c.active.pending))
	}
	if c.Stats().HandshakeTimeouts != 3 {
		t.Errorf("HandshakeTimeouts = %d, want 3", c.Stats().HandshakeTimeouts)
	}
	env.take()
	c.HandleMessage(trackerAddrs[0], &wire.TrackerResponse{Channel: 1, Peers: []netip.Addr{alive}})
	if got := env.sentTo(alive); len(got) != 1 || got[0].Kind() != wire.THandshake {
		t.Errorf("no handshake after window cleared: %v", got)
	}
}

func TestWrongChannelIgnored(t *testing.T) {
	env := newFakeEnv("58.32.0.1")
	c := newClient(t, env, testConfig())
	join(t, env, c)
	env.take()
	asker := netip.MustParseAddr("58.32.0.5")
	c.HandleMessage(asker, &wire.DataRequest{Channel: 99, Seq: 0, Count: 1})
	c.HandleMessage(asker, &wire.PeerListRequest{Channel: 99})
	c.HandleMessage(asker, &wire.Handshake{Channel: 99})
	if got := env.sentTo(asker); len(got) != 0 {
		t.Errorf("wrong-channel messages answered: %v", got)
	}
}

// TestSwitchChangesChannel drives Client.Switch: the old session withdraws
// from its trackers, the new one asks the bootstrap for its playlink
// directly, late traffic for the old channel changes nothing, and the
// playback counters span both sessions. A switch to the watched channel,
// before Start, or after Stop does nothing.
func TestSwitchChangesChannel(t *testing.T) {
	env := newFakeEnv("58.32.0.1")
	c := newClient(t, env, testConfig())
	other := stream.DefaultSpec(2, "other", 100)
	otherSource := netip.MustParseAddr("58.32.9.10")

	noop := func(when string, wantSwitches uint64) {
		t.Helper()
		if got := env.take(); len(got) != 0 {
			t.Errorf("switch %s sent %v", when, kinds(got))
		}
		if got := c.Stats().ChannelSwitches; got != wantSwitches {
			t.Errorf("ChannelSwitches after a switch %s = %d, want %d", when, got, wantSwitches)
		}
	}
	c.Switch(other)
	noop("before Start", 0)
	if c.Phase() != PhaseInit {
		t.Errorf("phase after a switch before Start = %v, want init", c.Phase())
	}

	join(t, env, c)
	seq := c.active.buffer.Playhead()
	c.HandleMessage(sourceAddr, &wire.DataReply{Channel: 1, Seq: seq, Count: 4, PieceLen: 1380})
	env.Advance(30 * time.Second)
	env.take()
	played := c.BufferStats()
	if played.Received == 0 {
		t.Fatalf("first session received nothing: %+v", played)
	}
	c.Switch(testChannel())
	noop("to the watched channel", 0)

	c.Switch(other)
	leaves := map[netip.Addr]int{}
	playlinks := 0
	for _, m := range env.take() {
		switch msg := m.msg.(type) {
		case *wire.TrackerAnnounce:
			if !msg.Leaving || msg.Channel != 1 {
				t.Errorf("switch sent %+v to %v, want only Leaving announces for channel 1", msg, m.to)
			}
			leaves[m.to]++
		case *wire.PlaylinkRequest:
			if m.to != bootstrapAddr || msg.Channel != other.Channel {
				t.Errorf("playlink request %+v to %v, want channel %d to the bootstrap", msg, m.to, other.Channel)
			}
			playlinks++
		default:
			t.Errorf("switch sent a %v to %v", m.msg.Kind(), m.to)
		}
	}
	for _, tr := range trackerAddrs {
		if leaves[tr] != 1 {
			t.Errorf("tracker %v got %d Leaving announces, want 1", tr, leaves[tr])
		}
	}
	if len(leaves) != len(trackerAddrs) || playlinks != 1 {
		t.Errorf("switch reached %d trackers and sent %d playlink requests, want %d and 1", len(leaves), playlinks, len(trackerAddrs))
	}
	if c.Phase() != PhaseBootstrap || c.Stats().ChannelSwitches != 1 {
		t.Errorf("after the switch: phase %v, %d switches; want bootstrap, 1", c.Phase(), c.Stats().ChannelSwitches)
	}

	// The new session joins; the old channel's stragglers are dropped.
	c.HandleMessage(bootstrapAddr, &wire.PlaylinkResponse{Channel: 2, Source: otherSource, Trackers: trackerAddrs[:2]})
	env.take()
	before := c.Stats()
	stale := netip.MustParseAddr("58.32.0.7")
	c.HandleMessage(trackerAddrs[0], &wire.TrackerResponse{Channel: 1, Peers: []netip.Addr{stale}})
	c.HandleMessage(stale, &wire.PeerListReply{Channel: 1, Peers: []netip.Addr{stale}})
	c.HandleMessage(sourceAddr, &wire.DataReply{Channel: 1, Seq: seq + 4, Count: 1, PieceLen: 1380})
	if got := env.take(); len(got) != 0 {
		t.Errorf("old-channel traffic sent %v", kinds(got))
	}
	if got := c.Stats(); got != before {
		t.Errorf("old-channel traffic moved the counters: %+v, want %+v", got, before)
	}
	if got := c.BufferStats(); got != played {
		t.Errorf("BufferStats before the new session received = %+v, want the first session's %+v", got, played)
	}

	seq2 := c.active.buffer.Playhead()
	c.HandleMessage(otherSource, &wire.DataReply{Channel: 2, Seq: seq2, Count: 3, PieceLen: 1380})
	if got := c.BufferStats().Received; got != played.Received+3 {
		t.Errorf("BufferStats.Received = %d, want %d from the first session plus 3", got, played.Received)
	}

	c.Stop()
	env.take()
	c.Switch(testChannel())
	noop("after Stop", 1)
	if c.Phase() != PhaseStopped {
		t.Errorf("phase after a switch after Stop = %v, want stopped", c.Phase())
	}
}
