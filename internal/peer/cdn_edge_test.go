package peer

import (
	"net/netip"
	"slices"
	"testing"
	"time"

	"pplivesim/internal/wire"
)

var (
	edgeAddr1 = netip.MustParseAddr("61.200.0.1")
	edgeAddr2 = netip.MustParseAddr("60.200.0.1")
)

// joinWithEdges walks a client through the bootstrap flow with a playlink
// that lists CDN edges in affinity order.
func joinWithEdges(t *testing.T, env *fakeEnv, c *Client, edges []netip.Addr) {
	t.Helper()
	c.Start()
	env.take()
	c.HandleMessage(bootstrapAddr, &wire.ChannelListResponse{
		Channels: []wire.ChannelInfo{{ID: 1, Name: "test"}},
	})
	env.take()
	c.HandleMessage(bootstrapAddr, &wire.PlaylinkResponse{
		Channel:  1,
		Source:   sourceAddr,
		Trackers: trackerAddrs,
		Edges:    edges,
	})
	if c.Phase() != PhaseStartup {
		t.Fatalf("phase after playlink = %v, want startup", c.Phase())
	}
}

// edgesOf returns the addresses of the session's edge origins, in the order
// an urgent miss walks them.
func edgesOf(s *session) []netip.Addr {
	var out []netip.Addr
	for _, nb := range s.origins {
		if nb.origin == originEdge {
			out = append(out, nb.addr)
		}
	}
	return out
}

// hasEdge reports whether a is one of the session's edge origins.
func hasEdge(s *session, a netip.Addr) bool { return slices.Contains(edgesOf(s), a) }

// TestEdgesArePseudoNeighbors checks the structural contract: edges live in
// the neighbor table (so replies and timeouts are tracked) and in the origin
// list ahead of the source, but never in the sorted mesh order, the referral
// memory, or the gossip pool — exactly like the source.
func TestEdgesArePseudoNeighbors(t *testing.T) {
	env := newFakeEnv("58.32.0.1")
	c := newClient(t, env, testConfig())
	joinWithEdges(t, env, c, []netip.Addr{edgeAddr1, edgeAddr2})
	s := c.active

	for _, e := range []netip.Addr{edgeAddr1, edgeAddr2} {
		if _, ok := s.neighbors[akey(e)]; !ok {
			t.Errorf("edge %v missing from the neighbor table", e)
		}
		if !hasEdge(s, e) {
			t.Errorf("edge %v missing from the origins", e)
		}
	}
	if got := edgesOf(s); !slices.Equal(got, []netip.Addr{edgeAddr1, edgeAddr2}) {
		t.Errorf("edge origins = %v, want the playlink's affinity order", got)
	}
	if last := s.origins[len(s.origins)-1]; last.origin != originSource || last.addr != sourceAddr {
		t.Errorf("last origin = %v, want the source %v", last.addr, sourceAddr)
	}
	for _, nb := range s.sortedNbs {
		if hasEdge(s, nb.addr) || nb.origin != meshPeer {
			t.Errorf("edge %v leaked into the sorted mesh order", nb.addr)
		}
	}
	for _, a := range s.recent {
		if hasEdge(s, a) {
			t.Errorf("edge %v leaked into the referral memory", a)
		}
	}
	for _, a := range s.sampleNeighbors(len(s.neighbors)) {
		if hasEdge(s, a) {
			t.Errorf("edge %v leaked into the gossip pool", a)
		}
	}

	// A neighbor asking for referrals must never be handed infrastructure.
	asker := netip.MustParseAddr("60.0.0.9")
	c.HandleMessage(asker, &wire.PeerListRequest{Channel: 1})
	for _, m := range env.sentTo(asker) {
		if reply, ok := m.(*wire.PeerListReply); ok {
			for _, p := range reply.Peers {
				if hasEdge(s, p) {
					t.Errorf("referral reply leaked edge %v", p)
				}
			}
		}
	}
}

// TestEdgeFallbackOrdering drives the urgent-miss path: no mesh neighbor
// covers the piece, so the pick walks edge→edge→source. A Busy reply from an
// edge puts it in a deterministic hold-off, moving the walk to the next edge
// and finally the origin; when the hold-off lapses the first edge is
// preferred again.
func TestEdgeFallbackOrdering(t *testing.T) {
	env := newFakeEnv("58.32.0.1")
	c := newClient(t, env, testConfig())
	joinWithEdges(t, env, c, []netip.Addr{edgeAddr1, edgeAddr2})
	s := c.active

	env.now = 10 * time.Second
	seq := s.spec.EdgeSeq(env.now) // urgent piece at the live edge
	pick := func() netip.Addr {
		s.buildSchedPlan(seq, seq, env.now)
		nb := s.pickProvider(seq, env.now, true)
		if nb == nil {
			t.Fatal("urgent pick returned nil with edges and source available")
		}
		return nb.addr
	}

	if got := pick(); got != edgeAddr1 {
		t.Fatalf("first urgent pick = %v, want first affinity edge %v", got, edgeAddr1)
	}

	// Edge 1 sheds: walk on to edge 2.
	c.HandleMessage(edgeAddr1, &wire.DataReply{Channel: 1, Seq: seq, Count: 0, Busy: true, PieceLen: uint16(s.spec.SubPieceLen)})
	if got := pick(); got != edgeAddr2 {
		t.Fatalf("pick after edge1 Busy = %v, want %v", got, edgeAddr2)
	}

	// Edge 2 sheds too: only then does the origin take the request.
	c.HandleMessage(edgeAddr2, &wire.DataReply{Channel: 1, Seq: seq, Count: 0, Busy: true, PieceLen: uint16(s.spec.SubPieceLen)})
	if got := pick(); got != sourceAddr {
		t.Fatalf("pick with both edges busy = %v, want source %v", got, sourceAddr)
	}

	// Hold-off lapses: the first edge absorbs urgent misses again.
	env.now += shedBacklog + time.Millisecond
	seq = s.spec.EdgeSeq(env.now)
	if got := pick(); got != edgeAddr1 {
		t.Fatalf("pick after hold-off = %v, want %v", got, edgeAddr1)
	}
}

// TestCrashedEdgePurged checks the timeout path: after failThreshold
// consecutive expiry rounds the edge is evicted from the origins and the
// neighbor table, and urgent picks fall back to the source.
func TestCrashedEdgePurged(t *testing.T) {
	env := newFakeEnv("58.32.0.1")
	c := newClient(t, env, testConfig())
	joinWithEdges(t, env, c, []netip.Addr{edgeAddr1})
	s := c.active

	env.now = 10 * time.Second
	for round := 0; round < failThreshold; round++ {
		nb, ok := s.neighbors[akey(edgeAddr1)]
		if !ok {
			t.Fatalf("edge gone after %d rounds, want eviction only at %d", round, failThreshold)
		}
		seq := s.spec.EdgeSeq(env.now)
		s.sendDataRequest(nb, seq, 1, env.now)
		env.now += s.cfg.RequestTimeout + time.Second
		s.expireRequests(env.now)
		// Step past the timeout backoff so the next round's streak grows
		// instead of the edge just sitting ineligible.
		env.now += retryBackoffMax
	}

	if got := edgesOf(s); len(got) != 0 {
		t.Errorf("edges after purge = %v, want none", got)
	}
	if len(s.origins) != 1 || s.origins[0].addr != sourceAddr {
		t.Errorf("origins after purge = %d entries, want the source alone", len(s.origins))
	}
	if _, ok := s.neighbors[akey(edgeAddr1)]; ok {
		t.Error("purged edge still in neighbor table")
	}

	seq := s.spec.EdgeSeq(env.now)
	s.buildSchedPlan(seq, seq, env.now)
	nb := s.pickProvider(seq, env.now, true)
	if nb == nil || nb.addr != sourceAddr {
		t.Errorf("urgent pick after purge = %v, want source %v", nb, sourceAddr)
	}
}

// TestEdgeRecoveryResetsStreak checks that one successful reply clears the
// failure streak: a flaky edge that answers between timeouts is never purged.
func TestEdgeRecoveryResetsStreak(t *testing.T) {
	env := newFakeEnv("58.32.0.1")
	c := newClient(t, env, testConfig())
	joinWithEdges(t, env, c, []netip.Addr{edgeAddr1})
	s := c.active

	env.now = 10 * time.Second
	for round := 0; round < 2*failThreshold; round++ {
		nb := s.neighbors[akey(edgeAddr1)]
		seq := s.spec.EdgeSeq(env.now)
		s.sendDataRequest(nb, seq, 1, env.now)
		env.now += s.cfg.RequestTimeout + time.Second
		s.expireRequests(env.now)
		// The edge comes back with a real reply: streak resets.
		c.HandleMessage(edgeAddr1, &wire.DataReply{Channel: 1, Seq: seq, Count: 1, PieceLen: uint16(s.spec.SubPieceLen)})
		if nb.failStreak != 0 {
			t.Fatalf("round %d: streak = %d after a successful reply, want 0", round, nb.failStreak)
		}
	}
	if len(edgesOf(s)) != 1 {
		t.Errorf("flaky-but-alive edge was purged")
	}
}
