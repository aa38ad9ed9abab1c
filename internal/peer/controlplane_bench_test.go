package peer

import (
	"net/netip"
	"testing"

	"pplivesim/internal/wire"
)

// linkNode is one client on a testLink, with the spare buffer its sends
// swap into while a flush delivers the previous batch.
type linkNode struct {
	env   *fakeEnv
	c     *Client
	spare []sentMsg
}

// testLink joins clients on fake envs into a lossless transport without an
// engine: flush hands every captured send to the client at its destination
// in send order, then releases the message as simnet's transport does, and
// repeats until nobody has anything left to send. A send to an address not
// on the link is dropped and released at once.
type testLink struct{ nodes []*linkNode }

func (l *testLink) add(env *fakeEnv, c *Client) { l.nodes = append(l.nodes, &linkNode{env: env, c: c}) }

func (l *testLink) flush() {
	for moved := true; moved; {
		moved = false
		for _, n := range l.nodes {
			batch := n.env.sent
			n.env.sent, n.spare = n.spare[:0], nil
			for _, s := range batch {
				for _, dst := range l.nodes {
					if dst.env.addr == s.to {
						dst.c.HandleMessage(n.env.addr, s.msg)
						break
					}
				}
				wire.Release(s.msg)
			}
			n.spare = batch[:0]
			moved = moved || len(batch) > 0
		}
	}
}

// joinTB walks a client through the bootstrap flow without checks.
func joinTB(c *Client) {
	c.Start()
	c.HandleMessage(bootstrapAddr, &wire.ChannelListResponse{Channels: []wire.ChannelInfo{{ID: 1, Name: "test"}}})
	c.HandleMessage(bootstrapAddr, &wire.PlaylinkResponse{Channel: 1, Source: sourceAddr, Trackers: trackerAddrs})
}

// benchPair returns two joined clients on a testLink: a dials, b answers. b
// holds fillers neighbors besides a, and a holds them too, so b's referral
// reply to a carries len(fillers) addresses that a is already connected to
// and dials no one else.
func benchPair(tb testing.TB, fillers int) (a, b *Client, link *testLink) {
	tb.Helper()
	envA, envB := newFakeEnv("58.32.0.1"), newFakeEnv("61.128.0.1")
	cfg := testConfig()
	var err error
	if a, err = New(envA, cfg); err != nil {
		tb.Fatal(err)
	}
	cfg.MaxNeighbors = (fillers + 2) / 2 // b is full with the fillers and a
	if b, err = New(envB, cfg); err != nil {
		tb.Fatal(err)
	}
	joinTB(a)
	joinTB(b)
	for i := 0; i < fillers; i++ {
		f := netip.AddrFrom4([4]byte{58, 32, 7, byte(i + 1)})
		a.active.addNeighbor(f, wire.BufferMap{})
		b.active.addNeighbor(f, wire.BufferMap{})
	}
	link = &testLink{}
	link.add(envA, a)
	link.add(envB, b)
	link.flush()
	return a, b, link
}

// BenchmarkHandshakeRoundTrip is one join attempt each way it can end: a
// dial the full responder rejects, then, once both sides have dropped each
// other, a dial it accepts with the buffer-map snapshot in its ack, and the
// peer-list request and the 19-address reply that follow.
func BenchmarkHandshakeRoundTrip(b *testing.B) {
	ca, cb, link := benchPair(b, 19)
	sa, sb := ca.active, cb.active
	addrA, addrB := ca.Addr(), cb.Addr()
	sa.sendHandshake(addrB)
	link.flush()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sa.sendHandshake(addrB) // rejected: b is full
		link.flush()
		sa.dropNeighbor(addrB)
		sb.dropNeighbor(addrA)
		sa.sendHandshake(addrB) // accepted, then the list exchange
		link.flush()
	}
	b.StopTimer()
	if st := ca.Stats(); st.HandshakesRejected < uint64(b.N) || st.HandshakesAccepted < uint64(b.N) || st.GossipReplies < uint64(b.N) {
		b.Fatalf("%d rejected, %d accepted, %d lists over %d round trips", st.HandshakesRejected, st.HandshakesAccepted, st.GossipReplies, b.N)
	}
}

// BenchmarkHaveFanout is one fresh piece's Have hints: six targets drawn
// from twenty neighbors, one of them on the link (which takes the hint in),
// the rest dropped.
func BenchmarkHaveFanout(b *testing.B) {
	ca, _, link := benchPair(b, 19)
	sa := ca.active
	sa.sendHandshake(link.nodes[1].env.addr)
	link.flush()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sa.gossipHave(uint64(i+1), 1, sourceAddr)
		link.flush()
	}
}
