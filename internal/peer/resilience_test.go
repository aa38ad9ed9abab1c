package peer

import (
	"net/netip"
	"testing"
	"time"

	"pplivesim/internal/wire"
)

func resilientConfig() Config {
	cfg := testConfig()
	cfg.Resilient = true
	return cfg
}

// TestHardeningConstants pins the relations between the fixed protocol
// constants that a config check used to enforce when they were settable.
func TestHardeningConstants(t *testing.T) {
	checks := []struct {
		name string
		ok   bool
	}{
		{"keepalive dead > idle > 0", keepaliveDead > keepaliveIdle && keepaliveIdle > 0},
		{"keepalive interval > 0", keepaliveInterval > 0},
		{"retry backoff max >= base > 0", retryBackoffMax >= retryBackoff && retryBackoff > 0},
		{"tracker backoff max >= base > 0", trackerBackoffMax >= trackerBackoff && trackerBackoff > 0},
		{"fail threshold >= 1", failThreshold >= 1},
		{"urgent widen factor >= 1", urgentWidenFactor >= 1},
		{"source probe cadence >= 1", sourceProbeEvery >= 1},
		{"flow max lag in [1, window)", flowMaxLag >= 1 && flowMaxLag < flowWindow},
		{"flow links per member in [1, max links]", flowLinksPerMember >= 1 && flowLinksPerMember <= flowMaxLinks},
		{"flow tracker sample >= 1", flowTrackerSample >= 1},
	}
	for _, c := range checks {
		if !c.ok {
			t.Errorf("%s does not hold", c.name)
		}
	}
}

// addPeerNeighbor walks the tracker-list → handshake → ack flow for one peer.
func addPeerNeighbor(t *testing.T, env *fakeEnv, c *Client, addr string) netip.Addr {
	t.Helper()
	a := netip.MustParseAddr(addr)
	c.HandleMessage(trackerAddrs[0], &wire.TrackerResponse{Channel: 1, Peers: []netip.Addr{a}})
	c.HandleMessage(a, &wire.HandshakeAck{Channel: 1, Accepted: true})
	if _, ok := c.active.neighbors[akey(a)]; !ok {
		t.Fatalf("peer %s did not become a neighbor", addr)
	}
	env.take()
	return a
}

func TestKeepalivePingsQuietNeighbors(t *testing.T) {
	env := newFakeEnv("58.32.0.1")
	c := newClient(t, env, resilientConfig())
	join(t, env, c)
	env.take()
	peerAddr := addPeerNeighbor(t, env, c, "58.32.0.2")

	// KeepaliveIdle (10s) of silence: the next tick pings.
	env.Advance(11 * time.Second)
	pings := 0
	for _, m := range env.sentTo(peerAddr) {
		if m.Kind() == wire.TPing {
			pings++
		}
	}
	if pings == 0 {
		t.Fatal("no keepalive ping after idle window")
	}
	if c.Stats().PingsSent == 0 {
		t.Error("PingsSent not counted")
	}
	env.take()

	// A pong refreshes liveness: no eviction however long the peer stays
	// otherwise silent, as long as it keeps answering pings.
	for i := 0; i < 4; i++ {
		c.HandleMessage(peerAddr, &wire.Pong{Channel: 1, Nonce: 1})
		env.Advance(10 * time.Second)
	}
	if _, ok := c.active.neighbors[akey(peerAddr)]; !ok {
		t.Error("pong-answering neighbor was evicted")
	}
	if c.Stats().KeepaliveEvictions != 0 {
		t.Errorf("KeepaliveEvictions = %d, want 0", c.Stats().KeepaliveEvictions)
	}
}

// TestKeepaliveEvictsDeadNeighborTeardown pins the full teardown of an
// evicted dead neighbor: no entry in the neighbor table or sorted order, no
// scheduler-plan row, no pending retransmit state (outstanding requests and
// their in-flight marks), and an immediate tracker re-announce when the mesh
// shrinks below the floor. A late reply from the dead address must not
// resurrect anything.
func TestKeepaliveEvictsDeadNeighborTeardown(t *testing.T) {
	env := newFakeEnv("58.32.0.1")
	c := newClient(t, env, resilientConfig())
	join(t, env, c)
	env.take()
	peerAddr := addPeerNeighbor(t, env, c, "58.32.0.2")

	s := c.active

	// Silence through the pings at 10s and 15s. At 15.2s, between scheduler
	// ticks, the neighbor is dead (idle > 15s, pinged since last heard):
	// leave a live outstanding request so eviction — not expiry — must tear
	// down the retransmit state, then run the keepalive pass by hand so no
	// scheduler pass can touch the in-flight set before the assertions.
	env.Advance(15200 * time.Millisecond)
	if c.Stats().PingsSent == 0 {
		t.Fatal("no ping before the dead window")
	}
	if c.Stats().KeepaliveEvictions != 0 {
		t.Fatal("neighbor evicted before the dead window")
	}
	nb := s.neighbors[akey(peerAddr)]
	seq := s.buffer.Playhead() + 5
	s.sendDataRequest(nb, seq, 1, env.Now())
	if !s.inFlight(seq) {
		t.Fatal("request not marked in flight")
	}
	env.take()
	s.keepaliveTick()

	if c.Stats().KeepaliveEvictions != 1 {
		t.Fatalf("KeepaliveEvictions = %d, want 1", c.Stats().KeepaliveEvictions)
	}
	if _, ok := s.neighbors[akey(peerAddr)]; ok {
		t.Error("evicted neighbor still in the table")
	}
	for _, other := range s.sortedNbs {
		if other.addr == peerAddr {
			t.Error("evicted neighbor still in sorted order")
		}
	}
	if nb.planIdx != -1 {
		t.Errorf("evicted neighbor planIdx = %d, want -1", nb.planIdx)
	}
	if nb.reqCount != 0 || nb.reqHead != -1 {
		t.Errorf("evicted neighbor keeps %d outstanding requests (chain head %d)", nb.reqCount, nb.reqHead)
	}
	if s.inFlight(seq) {
		t.Error("evicted neighbor's request still marked in flight")
	}

	// The mesh fell below reannounceFloor: the eviction re-announces to every
	// tracker immediately (the periodic announce cadence is 60s, so these can
	// only come from the eviction path). The paired re-query round queries the
	// one tracker that answered during setup and backs off the four still
	// pending from the join round.
	announces, queries := 0, 0
	for _, m := range env.take() {
		switch m.msg.Kind() {
		case wire.TTrackerAnnounce:
			announces++
		case wire.TTrackerQuery:
			queries++
		}
	}
	if announces != 5 {
		t.Errorf("tracker announces after eviction = %d, want 5 (one per tracker)", announces)
	}
	if queries != 1 {
		t.Errorf("eviction re-query sent %d queries, want 1 (only the healthy tracker)", queries)
	}
	if c.Stats().TrackerFailures != 4 {
		t.Errorf("TrackerFailures = %d, want 4 (the four silent trackers)", c.Stats().TrackerFailures)
	}

	// Late reply from the dead address: dropped, nothing resurrected.
	c.HandleMessage(peerAddr, &wire.DataReply{Channel: 1, Seq: seq, Count: 1, PieceLen: 1380})
	if _, ok := s.neighbors[akey(peerAddr)]; ok {
		t.Error("late reply resurrected the evicted neighbor")
	}
}

func TestRequestTimeoutBackoffExcludesAndRecovers(t *testing.T) {
	env := newFakeEnv("58.32.0.1")
	c := newClient(t, env, resilientConfig())
	join(t, env, c)
	env.take()
	peerAddr := addPeerNeighbor(t, env, c, "58.32.0.2")

	s := c.active
	nb := s.neighbors[akey(peerAddr)]
	now := env.Now()
	seq := s.buffer.Playhead() + 3
	s.sendDataRequest(nb, seq, 1, now)

	// Expire past RequestTimeout: streak starts, backoff armed, retransmit
	// slot freed so the sequence re-enters the want set.
	expiry := now + s.cfg.RequestTimeout + time.Millisecond
	s.expireNeighbor(nb, expiry)
	if nb.failStreak != 1 {
		t.Fatalf("failStreak = %d, want 1", nb.failStreak)
	}
	if nb.backoffUntil <= expiry {
		t.Fatal("no backoff armed after request timeout")
	}
	if s.inFlight(seq) {
		t.Error("timed-out request still in flight (would block retransmission)")
	}

	// While backed off, the scheduler plan marks the neighbor ineligible.
	s.buildSchedPlan(seq, seq, expiry)
	if s.planElig[0]&(1<<63) != 0 {
		t.Error("backed-off neighbor still eligible in the plan")
	}
	s.buildSchedPlan(seq, seq, nb.backoffUntil+1)
	if s.planElig[0]&(1<<63) == 0 {
		t.Error("neighbor still ineligible after backoff expiry")
	}

	// Any reply proves liveness and clears the penalty.
	c.HandleMessage(peerAddr, &wire.DataReply{Channel: 1, Seq: seq, Count: 1, PieceLen: 1380})
	if nb.failStreak != 0 || nb.backoffUntil != 0 {
		t.Errorf("reply did not reset backoff: streak=%d until=%s", nb.failStreak, nb.backoffUntil)
	}
}

func TestTrackerOutageBackoff(t *testing.T) {
	env := newFakeEnv("58.32.0.1")
	c := newClient(t, env, resilientConfig())
	join(t, env, c) // sends the first query round; all five now pending
	env.take()

	s := c.active
	base := c.Stats().TrackerQueries
	// Second round with nothing answered: every tracker is marked failed and
	// backed off — no queries go out.
	s.queryTrackers()
	if got := c.Stats().TrackerFailures; got != 5 {
		t.Fatalf("TrackerFailures = %d, want 5", got)
	}
	if got := c.Stats().TrackerQueries; got != base {
		t.Errorf("queries sent to backed-off trackers: %d new", got-base)
	}

	// One tracker answers: its health resets, and the next round queries it
	// again while the silent four stay backed off.
	c.HandleMessage(trackerAddrs[0], &wire.TrackerResponse{Channel: 1})
	env.take()
	s.queryTrackers()
	sent := env.take()
	if len(sent) != 1 || sent[0].to != trackerAddrs[0] {
		t.Fatalf("post-recovery round sent %d queries (first to %v), want 1 to the recovered tracker",
			len(sent), sent)
	}
}

func TestBackoffDelayShape(t *testing.T) {
	base, cap := 2*time.Second, 30*time.Second
	// Deterministic: same (streak, key) → same delay.
	if a, b := backoffDelay(base, cap, 3, 99), backoffDelay(base, cap, 3, 99); a != b {
		t.Fatalf("backoffDelay not deterministic: %s vs %s", a, b)
	}
	// Exponential growth capped at max, jitter within a quarter of the delay.
	prev := time.Duration(0)
	for streak := 1; streak <= 10; streak++ {
		d := backoffDelay(base, cap, streak, 7)
		raw := base << (streak - 1)
		if raw > cap {
			raw = cap
		}
		if d < raw || d > raw+raw/4 {
			t.Errorf("streak %d: delay %s outside [%s, %s]", streak, d, raw, raw+raw/4)
		}
		if d < prev/2 {
			t.Errorf("streak %d: delay %s collapsed from %s", streak, d, prev)
		}
		prev = d
	}
	// Different keys de-synchronize retries.
	if backoffDelay(base, cap, 5, 1) == backoffDelay(base, cap, 5, 2) {
		t.Error("jitter identical across keys (lockstep retries)")
	}
}

// TestResilienceDisabledStaysDormant guards the determinism contract at the
// protocol level: with Resilient off, no pings, no tracker health, no
// backoff state — the exact legacy message sequence.
func TestResilienceDisabledStaysDormant(t *testing.T) {
	env := newFakeEnv("58.32.0.1")
	c := newClient(t, env, testConfig())
	join(t, env, c)
	env.take()
	peerAddr := addPeerNeighbor(t, env, c, "58.32.0.2")

	env.Advance(40 * time.Second)
	for _, m := range env.take() {
		if m.msg.Kind() == wire.TPing {
			t.Fatal("keepalive ping sent with resilience disabled")
		}
	}
	st := c.Stats()
	if st.PingsSent != 0 || st.KeepaliveEvictions != 0 || st.TrackerFailures != 0 {
		t.Errorf("resilience counters moved while disabled: %+v", st)
	}
	if c.active.trHealth != nil {
		t.Error("tracker health allocated while disabled")
	}
	nb := c.active.neighbors[akey(peerAddr)]
	if nb != nil && (nb.failStreak != 0 || nb.backoffUntil != 0 || nb.lastPing != 0) {
		t.Error("neighbor hardening state moved while disabled")
	}
}
