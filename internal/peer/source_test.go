package peer

import (
	"net/netip"
	"testing"
	"time"

	"pplivesim/internal/wire"
)

func newSource(t *testing.T) (*fakeEnv, *Source) {
	t.Helper()
	env := newFakeEnv("58.32.9.9")
	src, err := NewSource(env, testChannel())
	if err != nil {
		t.Fatal(err)
	}
	return env, src
}

func TestNewSourceValidation(t *testing.T) {
	env := newFakeEnv("58.32.9.9")
	bad := testChannel()
	bad.BitrateBps = 0
	if _, err := NewSource(env, bad); err == nil {
		t.Error("invalid spec accepted")
	}
}

func TestSourceHasTracksLiveEdge(t *testing.T) {
	env, src := newSource(t)
	if !src.Has(0, env.Now()) {
		t.Error("source lacks sequence 0 at start")
	}
	future := uint64(testChannel().Rate()*100) + 10
	if src.Has(future, env.Now()) {
		t.Error("source claims a piece not yet emitted")
	}
	env.Advance(101 * time.Second)
	if !src.Has(future, env.Now()) {
		t.Error("source lacks an emitted piece")
	}
}

func TestSourceServesDataPrefixRun(t *testing.T) {
	env, src := newSource(t)
	env.Advance(10 * time.Second)
	client := netip.MustParseAddr("58.32.0.1")
	src.HandleMessage(client, &wire.DataRequest{Channel: 1, Seq: 0, Count: 4})
	got := env.sentTo(client)
	if len(got) != 1 {
		t.Fatalf("source sent %d messages", len(got))
	}
	reply, ok := got[0].(*wire.DataReply)
	if !ok || reply.Count != 4 || reply.Seq != 0 {
		t.Fatalf("reply = %#v", got[0])
	}
	served, bytes := src.Stats()
	if served != 1 || bytes != uint64(4*testChannel().SubPieceLen) {
		t.Errorf("stats = %d served %d bytes", served, bytes)
	}
}

func TestSourceTruncatesRunAtEdge(t *testing.T) {
	env, src := newSource(t)
	env.Advance(time.Second) // edge ≈ 36
	edge := src.origin.Edge(env.Now())
	client := netip.MustParseAddr("58.32.0.1")
	src.HandleMessage(client, &wire.DataRequest{Channel: 1, Seq: edge - 1, Count: 10})
	got := env.sentTo(client)
	if len(got) != 1 {
		t.Fatalf("source sent %d messages", len(got))
	}
	reply, ok := got[0].(*wire.DataReply)
	if !ok {
		t.Fatalf("reply = %T", got[0])
	}
	if reply.Count != 2 { // edge-1 and edge
		t.Errorf("reply count = %d, want truncation to 2 at live edge", reply.Count)
	}
}

func TestSourceIgnoresFutureRequest(t *testing.T) {
	env, src := newSource(t)
	client := netip.MustParseAddr("58.32.0.1")
	src.HandleMessage(client, &wire.DataRequest{Channel: 1, Seq: 1 << 40, Count: 1})
	if got := env.sentTo(client); len(got) != 0 {
		t.Errorf("future request answered: %v", got)
	}
}

func TestSourceShedsWhenBacklogged(t *testing.T) {
	env, src := newSource(t)
	env.Advance(10 * time.Second)
	env.backlog = 5 * time.Second
	client := netip.MustParseAddr("58.32.0.1")
	src.HandleMessage(client, &wire.DataRequest{Channel: 1, Seq: 0, Count: 1})
	// Shedding must be explicit: a tiny Busy reply lets the requester
	// reschedule at once instead of burning a request timeout (a silent
	// drop here is what let the saturated source death-spiral the swarm).
	got := env.sentTo(client)
	if len(got) != 1 {
		t.Fatalf("backlogged source sent %d messages, want 1 busy reply", len(got))
	}
	reply, ok := got[0].(*wire.DataReply)
	if !ok || !reply.Busy || reply.Count != 0 {
		t.Errorf("reply = %#v, want empty Busy DataReply", got[0])
	}
	if src.origin.shed != 1 {
		t.Errorf("shed counter = %d", src.origin.shed)
	}
}

func TestSourceHandshakeAckCoversEdgeWindow(t *testing.T) {
	env, src := newSource(t)
	env.Advance(2 * time.Minute)
	client := netip.MustParseAddr("58.32.0.1")
	src.HandleMessage(client, &wire.Handshake{Channel: 1})
	got := env.sentTo(client)
	if len(got) != 1 {
		t.Fatalf("handshake produced %d messages", len(got))
	}
	ack, ok := got[0].(*wire.HandshakeAck)
	if !ok || !ack.Accepted {
		t.Fatalf("ack = %#v", got[0])
	}
	edge := src.origin.Edge(env.Now())
	if !ack.Buffer.Has(edge) {
		t.Error("ack map misses the live edge")
	}
	if !ack.Buffer.Has(edge - 1000) {
		t.Error("ack map misses recent history")
	}
	if ack.Buffer.Has(edge + 100) {
		t.Error("ack map claims unemitted pieces")
	}
}

func TestSourceReferralOfRecentClients(t *testing.T) {
	env, src := newSource(t)
	a := netip.MustParseAddr("58.32.0.1")
	b := netip.MustParseAddr("58.32.0.2")
	src.HandleMessage(a, &wire.Handshake{Channel: 1})
	src.HandleMessage(b, &wire.Handshake{Channel: 1})
	env.take()
	src.HandleMessage(a, &wire.PeerListRequest{Channel: 1})
	got := env.sentTo(a)
	if len(got) != 1 {
		t.Fatalf("list request produced %d messages", len(got))
	}
	reply, ok := got[0].(*wire.PeerListReply)
	if !ok {
		t.Fatalf("reply = %T", got[0])
	}
	if len(reply.Peers) != 1 || reply.Peers[0] != b {
		t.Errorf("referral = %v, want [b] (requester excluded)", reply.Peers)
	}
}

func TestSourceIgnoresWrongChannel(t *testing.T) {
	env, src := newSource(t)
	client := netip.MustParseAddr("58.32.0.1")
	src.HandleMessage(client, &wire.DataRequest{Channel: 99, Seq: 0, Count: 1})
	src.HandleMessage(client, &wire.Handshake{Channel: 99})
	if got := env.sentTo(client); len(got) != 0 {
		t.Errorf("wrong-channel messages answered: %v", got)
	}
}

// TestSourceShedsSustainedOverload drives the source through a sustained
// uplink overload: every request during the episode must get an explicit Busy
// reply (never a silent drop, never real service that would deepen the
// backlog), and normal service must resume the moment the backlog drains.
func TestSourceShedsSustainedOverload(t *testing.T) {
	env, src := newSource(t)
	env.Advance(30 * time.Second)
	client := netip.MustParseAddr("58.32.0.1")

	env.backlog = 5 * time.Second
	const rounds = 20
	for i := 0; i < rounds; i++ {
		env.Advance(time.Second)
		src.HandleMessage(client, &wire.DataRequest{Channel: 1, Seq: uint64(i), Count: 1})
	}
	replies := env.sentTo(client)
	if len(replies) != rounds {
		t.Fatalf("source sent %d replies over the overload episode, want %d (one Busy each)", len(replies), rounds)
	}
	for i, m := range replies {
		r, ok := m.(*wire.DataReply)
		if !ok || !r.Busy || r.Count != 0 {
			t.Fatalf("reply %d = %#v, want empty Busy DataReply", i, m)
		}
	}
	if served, bytes := src.Stats(); served != 0 || bytes != 0 {
		t.Errorf("served %d requests (%d bytes) while overloaded, want 0", served, bytes)
	}
	if src.origin.shed != rounds {
		t.Errorf("shed counter = %d, want %d", src.origin.shed, rounds)
	}
	env.take()

	// Backlog drained: the very next request is served for real.
	env.backlog = 0
	src.HandleMessage(client, &wire.DataRequest{Channel: 1, Seq: 100, Count: 1})
	got := env.sentTo(client)
	if len(got) != 1 {
		t.Fatalf("recovered source sent %d replies, want 1", len(got))
	}
	if r := got[0].(*wire.DataReply); r.Busy || r.Count != 1 {
		t.Errorf("post-recovery reply = %#v, want real data", got[0])
	}
	if served, _ := src.Stats(); served != 1 {
		t.Errorf("served = %d after recovery, want 1", served)
	}
}

// TestSourceDownDropsEverything covers the crash fault: a downed source
// answers nothing — data, handshakes, pings — and resumes cleanly on recovery.
func TestSourceDownDropsEverything(t *testing.T) {
	env, src := newSource(t)
	env.Advance(10 * time.Second)
	client := netip.MustParseAddr("58.32.0.1")

	src.SetDown(true)
	src.HandleMessage(client, &wire.DataRequest{Channel: 1, Seq: 0, Count: 1})
	src.HandleMessage(client, &wire.Handshake{Channel: 1})
	src.HandleMessage(client, &wire.Ping{Channel: 1, Nonce: 7})
	if got := env.sentTo(client); len(got) != 0 {
		t.Fatalf("downed source replied: %v", kinds(env.take()))
	}

	src.SetDown(false)
	src.HandleMessage(client, &wire.DataRequest{Channel: 1, Seq: 0, Count: 1})
	got := env.sentTo(client)
	if len(got) != 1 {
		t.Fatalf("recovered source sent %d replies, want 1", len(got))
	}
	if r := got[0].(*wire.DataReply); r.Busy || r.Count != 1 {
		t.Errorf("post-recovery reply = %#v, want real data", got[0])
	}
}

// TestSourcePongsKeepalive: the source answers keepalive pings so resilient
// clients never false-positive it as dead while it is merely idle.
func TestSourcePongsKeepalive(t *testing.T) {
	env, src := newSource(t)
	client := netip.MustParseAddr("58.32.0.1")
	src.HandleMessage(client, &wire.Ping{Channel: 1, Nonce: 42})
	got := env.sentTo(client)
	if len(got) != 1 {
		t.Fatalf("ping produced %d replies, want 1", len(got))
	}
	pong, ok := got[0].(*wire.Pong)
	if !ok || pong.Nonce != 42 || pong.Channel != 1 {
		t.Errorf("reply = %#v, want Pong nonce 42", got[0])
	}
	// Wrong-channel pings are ignored.
	env.take()
	src.HandleMessage(client, &wire.Ping{Channel: 9, Nonce: 1})
	if got := env.sentTo(client); len(got) != 0 {
		t.Errorf("wrong-channel ping answered: %v", got)
	}
}
