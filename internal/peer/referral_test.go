package peer

import (
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"pplivesim/internal/isp"
	"pplivesim/internal/selection"
	"pplivesim/internal/wire"
)

// referralPeersTo extracts the peer list the client sent to addr in response
// to a PeerListRequest.
func referralPeersTo(t *testing.T, env *fakeEnv, to netip.Addr) []netip.Addr {
	t.Helper()
	for _, m := range env.sentTo(to) {
		if reply, ok := m.(*wire.PeerListReply); ok {
			return reply.Peers
		}
	}
	t.Fatalf("no PeerListReply sent to %v", to)
	return nil
}

// TestReferralExcludesRequester pins the session-side mirror of the
// tracker's requester exclusion: a gossip reply never bounces the requester
// back to itself, even though the requester sits in the recent list.
func TestReferralExcludesRequester(t *testing.T) {
	env := newFakeEnv("58.32.0.1")
	c := newClient(t, env, testConfig())
	join(t, env, c)
	env.take()
	a := addPeerNeighbor(t, env, c, "58.32.0.2")
	b := addPeerNeighbor(t, env, c, "58.32.0.3")

	// Both neighbors are in recent; a's request must return only b.
	c.HandleMessage(a, &wire.PeerListRequest{Channel: 1})
	peers := referralPeersTo(t, env, a)
	for _, p := range peers {
		if p == a {
			t.Fatal("referral reply contains the requester itself")
		}
		if p == c.Addr() {
			t.Fatal("referral reply contains the replying client's own address")
		}
	}
	if len(peers) != 1 || peers[0] != b {
		t.Errorf("referral to %v = %v, want [%v]", a, peers, b)
	}
}

// TestReferralExcludesKeepaliveEvicted is the regression test for the
// referral-source purge: a neighbor evicted by keepalive failure detection
// (positive evidence of death, unlike plain silence) must disappear from
// subsequent referral replies instead of being gossiped around the mesh.
func TestReferralExcludesKeepaliveEvicted(t *testing.T) {
	env := newFakeEnv("58.32.0.1")
	c := newClient(t, env, resilientConfig())
	join(t, env, c)
	env.take()
	dead := addPeerNeighbor(t, env, c, "58.32.0.2")
	live := addPeerNeighbor(t, env, c, "58.32.0.3")

	// Keep `live` answering pings while `dead` stays silent through the
	// ping window until the keepalive tick evicts it.
	for i := 0; i < 4; i++ {
		env.Advance(5 * time.Second)
		c.HandleMessage(live, &wire.Pong{Channel: 1, Nonce: 1})
	}
	if c.Stats().KeepaliveEvictions == 0 {
		t.Fatal("silent neighbor was not keepalive-evicted")
	}
	if _, ok := c.active.neighbors[akey(dead)]; ok {
		t.Fatal("evicted neighbor still in the neighbor table")
	}
	env.take()

	c.HandleMessage(live, &wire.PeerListRequest{Channel: 1})
	for _, p := range referralPeersTo(t, env, live) {
		if p == dead {
			t.Fatal("referral reply contains a keepalive-evicted (dead) neighbor")
		}
	}
}

// neighborISPs maps the test peer addresses (58.32.x = TELE, 61.135.x = CNC
// in the simulation's address plan) for selection-policy shaping.
type neighborISPs map[netip.Addr]isp.ISP

func (m neighborISPs) ISPOf(a netip.Addr) (isp.ISP, bool) {
	cat, ok := m[a]
	return cat, ok
}

// TestReferralAppliesSelectionPolicy checks a configured selection policy
// shapes referral replies: with quota:0 only same-ISP peers are referred.
func TestReferralAppliesSelectionPolicy(t *testing.T) {
	env := newFakeEnv("58.32.0.1")
	cfg := testConfig()
	requester := netip.MustParseAddr("58.32.0.9")
	res := neighborISPs{
		requester:                         isp.TELE,
		netip.MustParseAddr("58.32.0.2"):  isp.TELE,
		netip.MustParseAddr("61.135.0.2"): isp.CNC,
	}
	pol, err := selection.NewQuota(res, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Selection = pol
	c := newClient(t, env, cfg)
	join(t, env, c)
	env.take()
	sameISP := addPeerNeighbor(t, env, c, "58.32.0.2")
	addPeerNeighbor(t, env, c, "61.135.0.2")

	c.HandleMessage(requester, &wire.PeerListRequest{Channel: 1})
	peers := referralPeersTo(t, env, requester)
	if len(peers) != 1 || peers[0] != sameISP {
		t.Errorf("quota:0 referral = %v, want only same-ISP %v", peers, sameISP)
	}
}

// TestFlowRandomAliveNeverDead is the kill-churn property test for
// FlowSwarm.randomAlive: after heavy kills the picker must never return a
// dead row — the regression the removed always-true guard was masking — and
// every survivor must remain reachable even at sparse, fragmented occupancy
// where the linear-scan fallback does most of the work.
func TestFlowRandomAliveNeverDead(t *testing.T) {
	port := &flowTestPort{}
	cfg := DefaultFlowConfig(flowTestSpec())
	s, err := NewFlowSwarm(cfg, port, rand.New(rand.NewSource(2)), nil, 400)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		s.Add(netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)}))
	}
	// Three rounds of heavy kill-churn leave ~5% alive.
	for round := 0; round < 3; round++ {
		s.KillFraction(0.65)
	}
	alive := s.Alive()
	if alive < 5 || alive > 60 {
		t.Fatalf("kill rounds left %d alive, want a sparse survivor set", alive)
	}

	const picks = 20000
	counts := make(map[int]int)
	for n := 0; n < picks; n++ {
		i := s.randomAlive()
		if i < 0 {
			t.Fatal("randomAlive returned -1 with live members present")
		}
		if !s.alive[i] {
			t.Fatalf("randomAlive returned dead index %d", i)
		}
		counts[i]++
	}
	if len(counts) != alive {
		t.Errorf("randomAlive reached %d of %d live members", len(counts), alive)
	}
}

// TestFlowRandomAliveUniform checks the distribution at ~50% occupancy,
// where the rejection loop all but always succeeds (miss chance 0.5^16) and
// the pick must be uniform over live members within binomial tolerance.
func TestFlowRandomAliveUniform(t *testing.T) {
	port := &flowTestPort{}
	cfg := DefaultFlowConfig(flowTestSpec())
	s, err := NewFlowSwarm(cfg, port, rand.New(rand.NewSource(3)), nil, 400)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		s.Add(netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)}))
	}
	s.KillFraction(0.5)
	alive := s.Alive()
	if alive < 150 || alive > 250 {
		t.Fatalf("half-kill left %d alive, want ~200", alive)
	}

	const picks = 40000
	counts := make(map[int]int)
	for n := 0; n < picks; n++ {
		i := s.randomAlive()
		if i < 0 || !s.alive[i] {
			t.Fatalf("randomAlive returned dead or invalid index %d", i)
		}
		counts[i]++
	}
	// Each live member expects picks/alive ≈ 200 selections, sd ≈ 14; ±50%
	// is ~7 sd, far beyond binomial noise at the fixed seed, so a systematic
	// bias (e.g. dead-run weighting) fails while sampling noise cannot.
	expect := float64(picks) / float64(alive)
	for i, n := range counts {
		if float64(n) < 0.5*expect || float64(n) > 1.5*expect {
			t.Errorf("member %d picked %d times, want ~%.0f (±50%%)", i, n, expect)
		}
	}
	if len(counts) != alive {
		t.Errorf("reached %d of %d live members", len(counts), alive)
	}
}

// TestFlowReferralExclusions pins the flow-side referral composition: no
// requester echo, no self-row echo, no dead members.
func TestFlowReferralExclusions(t *testing.T) {
	port := &flowTestPort{}
	s := newTestSwarm(t, port, 32)
	port.now = 2 * time.Minute

	// Kill a third of the swarm so referral rows contain dead entries.
	s.KillFraction(0.33)
	probe := probeAddr()
	for i := 0; i < 32; i++ {
		if !s.alive[i] {
			continue
		}
		for _, p := range s.appendReferrals(nil, i, probe) {
			if p == probe {
				t.Fatalf("member %d referred the requester back to itself", i)
			}
			if p == s.Addr(i) {
				t.Fatalf("member %d referred its own address", i)
			}
		}
	}
	// Referring a member's own address via the requester path: ask member i
	// for a referral pretending to be one of its row entries.
	for i := 0; i < 32; i++ {
		if !s.alive[i] {
			continue
		}
		row := s.nbr[i*flowNbrWidth : (i+1)*flowNbrWidth]
		for _, j := range row {
			if int(j) == i || !s.alive[j] {
				continue
			}
			req := s.Addr(int(j))
			for _, p := range s.appendReferrals(nil, i, req) {
				if p == req {
					t.Fatalf("member %d echoed requester %v from its row", i, req)
				}
			}
		}
		for _, j := range row {
			if !s.alive[j] {
				for _, p := range s.appendReferrals(nil, i, probe) {
					if p == s.Addr(int(j)) {
						t.Fatalf("member %d referred dead member %d", i, j)
					}
				}
			}
		}
	}
}
