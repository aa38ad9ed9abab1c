package tracker

import (
	"net/netip"
	"testing"
	"time"

	"pplivesim/internal/isp"
	"pplivesim/internal/simnet"
	"pplivesim/internal/wire"
)

// activePeers returns the live (non-expired) peers of a channel in address
// order.
func activePeers(s *Server, ch wire.ChannelID) []netip.Addr {
	cp := s.channels[ch]
	if cp == nil {
		return nil
	}
	var out []netip.Addr
	for _, addr := range cp.order {
		if s.env.Now()-cp.seen[addr] <= DefaultEntryTTL {
			out = append(out, addr)
		}
	}
	return out
}

// testRig spawns a tracker server plus a capture-all client env.
type testRig struct {
	world  *simnet.World
	server *Server
	srvEnv *simnet.Env
	client *simnet.Env
	inbox  []wire.Message
}

func newRig(t *testing.T) *testRig {
	t.Helper()
	w := simnet.NewShardedWorldN(1, 1)
	w.CodecCheck = true
	srvEnv, err := w.DomainsOf(isp.TELE)[0].Spawn(simnet.HostSpec{ISP: isp.TELE, UploadBps: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	server := NewServer(srvEnv)
	srvEnv.SetHandler(server)

	client, err := w.DomainsOf(isp.TELE)[0].Spawn(simnet.HostSpec{ISP: isp.TELE, UploadBps: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	rig := &testRig{world: w, server: server, srvEnv: srvEnv, client: client}
	client.SetHandler(handlerFunc(func(from netip.Addr, msg wire.Message) {
		rig.inbox = append(rig.inbox, msg)
	}))
	return rig
}

type handlerFunc func(from netip.Addr, msg wire.Message)

func (f handlerFunc) HandleMessage(from netip.Addr, msg wire.Message) { f(from, msg) }

func (r *testRig) run(t *testing.T, d time.Duration) {
	t.Helper()
	if err := r.world.Run(r.world.Now()+d, 1); err != nil {
		t.Fatal(err)
	}
}

func TestAnnounceAndQuery(t *testing.T) {
	rig := newRig(t)
	// Announce three peers for channel 1 directly (bypassing transport for
	// the announcing side keeps the test focused).
	for i := 0; i < 3; i++ {
		addr := netip.AddrFrom4([4]byte{58, 40, 0, byte(i + 1)})
		rig.server.HandleMessage(addr, &wire.TrackerAnnounce{Channel: 1})
	}
	rig.client.Send(rig.srvEnv.Addr(), &wire.TrackerQuery{Channel: 1})
	rig.run(t, 5*time.Second)

	if len(rig.inbox) != 1 {
		t.Fatalf("client got %d messages, want 1", len(rig.inbox))
	}
	resp, ok := rig.inbox[0].(*wire.TrackerResponse)
	if !ok {
		t.Fatalf("got %T, want TrackerResponse", rig.inbox[0])
	}
	if resp.Channel != 1 || len(resp.Peers) != 3 {
		t.Errorf("response = %+v, want channel 1 with 3 peers", resp)
	}
}

func TestQueryExcludesRequester(t *testing.T) {
	rig := newRig(t)
	rig.server.HandleMessage(rig.client.Addr(), &wire.TrackerAnnounce{Channel: 1})
	other := netip.AddrFrom4([4]byte{58, 40, 0, 9})
	rig.server.HandleMessage(other, &wire.TrackerAnnounce{Channel: 1})

	rig.client.Send(rig.srvEnv.Addr(), &wire.TrackerQuery{Channel: 1})
	rig.run(t, 5*time.Second)

	resp, ok := rig.inbox[0].(*wire.TrackerResponse)
	if !ok {
		t.Fatalf("got %T", rig.inbox[0])
	}
	for _, p := range resp.Peers {
		if p == rig.client.Addr() {
			t.Error("response contains the requester itself")
		}
	}
	if len(resp.Peers) != 1 || resp.Peers[0] != other {
		t.Errorf("peers = %v, want [%v]", resp.Peers, other)
	}
}

func TestLeaveRemoves(t *testing.T) {
	rig := newRig(t)
	a := netip.AddrFrom4([4]byte{58, 40, 0, 1})
	rig.server.HandleMessage(a, &wire.TrackerAnnounce{Channel: 1})
	rig.server.HandleMessage(a, &wire.TrackerAnnounce{Channel: 1, Leaving: true})
	if got := activePeers(rig.server, 1); len(got) != 0 {
		t.Errorf("ActivePeers = %v after leave, want empty", got)
	}
	// Leaving an unknown channel must not panic or create state.
	rig.server.HandleMessage(a, &wire.TrackerAnnounce{Channel: 99, Leaving: true})
	if got := activePeers(rig.server, 99); len(got) != 0 {
		t.Errorf("phantom channel created: %v", got)
	}
}

func TestEntryExpiry(t *testing.T) {
	rig := newRig(t)
	a := netip.AddrFrom4([4]byte{58, 40, 0, 1})
	rig.server.HandleMessage(a, &wire.TrackerAnnounce{Channel: 1})
	if got := activePeers(rig.server, 1); len(got) != 1 {
		t.Fatalf("ActivePeers = %v, want 1 entry", got)
	}
	rig.run(t, DefaultEntryTTL+time.Second)
	if got := activePeers(rig.server, 1); len(got) != 0 {
		t.Errorf("ActivePeers = %v after TTL, want empty", got)
	}
	// A query after expiry returns no peers.
	rig.client.Send(rig.srvEnv.Addr(), &wire.TrackerQuery{Channel: 1})
	rig.run(t, 5*time.Second)
	resp, ok := rig.inbox[0].(*wire.TrackerResponse)
	if !ok {
		t.Fatalf("got %T", rig.inbox[0])
	}
	if len(resp.Peers) != 0 {
		t.Errorf("expired peers served: %v", resp.Peers)
	}
}

func TestMaxReplyBound(t *testing.T) {
	rig := newRig(t)
	for i := 0; i < 200; i++ {
		addr := netip.AddrFrom4([4]byte{58, 40, byte(i / 250), byte(i%250 + 1)})
		rig.server.HandleMessage(addr, &wire.TrackerAnnounce{Channel: 1})
	}
	rig.client.Send(rig.srvEnv.Addr(), &wire.TrackerQuery{Channel: 1})
	rig.run(t, 5*time.Second)
	resp, ok := rig.inbox[0].(*wire.TrackerResponse)
	if !ok {
		t.Fatalf("got %T", rig.inbox[0])
	}
	if len(resp.Peers) != DefaultMaxReply {
		t.Errorf("served %d peers, want cap %d", len(resp.Peers), DefaultMaxReply)
	}
	seen := map[netip.Addr]bool{}
	for _, p := range resp.Peers {
		if seen[p] {
			t.Fatalf("duplicate peer %v in response", p)
		}
		seen[p] = true
	}
}

func TestBootstrapChannelListAndPlaylink(t *testing.T) {
	w := simnet.NewShardedWorldN(2, 1)
	w.CodecCheck = true
	bsEnv, err := w.DomainsOf(isp.TELE)[0].Spawn(simnet.HostSpec{ISP: isp.TELE, UploadBps: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	bs := NewBootstrap(bsEnv)
	bsEnv.SetHandler(bs)

	var groups [Groups][]netip.Addr
	for g := range groups {
		groups[g] = []netip.Addr{
			netip.AddrFrom4([4]byte{61, 128, byte(g), 1}),
			netip.AddrFrom4([4]byte{61, 128, byte(g), 2}),
		}
	}
	dir := ChannelDirectory{
		Info:          wire.ChannelInfo{ID: 5, Rating: 777, Name: "CCTV-5"},
		Source:        netip.AddrFrom4([4]byte{58, 32, 0, 5}),
		TrackerGroups: groups,
	}
	if err := bs.AddChannel(dir); err != nil {
		t.Fatal(err)
	}
	if err := bs.AddChannel(dir); err == nil {
		t.Error("duplicate AddChannel did not error")
	}

	client, err := w.DomainsOf(isp.CNC)[0].Spawn(simnet.HostSpec{ISP: isp.CNC, UploadBps: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	var inbox []wire.Message
	client.SetHandler(handlerFunc(func(_ netip.Addr, msg wire.Message) { inbox = append(inbox, msg) }))

	// Sent from an event, so the barrier closing its window forwards the
	// requests to the bootstrap's domain.
	client.After(0, func() {
		client.Send(bsEnv.Addr(), &wire.ChannelListRequest{})
		client.Send(bsEnv.Addr(), &wire.PlaylinkRequest{Channel: 5})
		client.Send(bsEnv.Addr(), &wire.PlaylinkRequest{Channel: 42}) // unknown
	})
	if err := w.Run(10*time.Second, 1); err != nil {
		t.Fatal(err)
	}

	if len(inbox) != 2 {
		t.Fatalf("client got %d replies, want 2 (unknown channel ignored)", len(inbox))
	}
	list, ok := inbox[0].(*wire.ChannelListResponse)
	if !ok {
		t.Fatalf("first reply %T", inbox[0])
	}
	if len(list.Channels) != 1 || list.Channels[0].Name != "CCTV-5" {
		t.Errorf("channel list = %+v", list.Channels)
	}
	pl, ok := inbox[1].(*wire.PlaylinkResponse)
	if !ok {
		t.Fatalf("second reply %T", inbox[1])
	}
	if pl.Source != dir.Source {
		t.Errorf("source = %v, want %v", pl.Source, dir.Source)
	}
	if len(pl.Trackers) != Groups {
		t.Fatalf("playlink has %d trackers, want %d (one per group)", len(pl.Trackers), Groups)
	}
	for g, addr := range pl.Trackers {
		found := false
		for _, cand := range groups[g] {
			if cand == addr {
				found = true
			}
		}
		if !found {
			t.Errorf("tracker %v not from group %d", addr, g)
		}
	}
}

func TestBootstrapRejectsEmptyGroup(t *testing.T) {
	w := simnet.NewShardedWorldN(3, 1)
	env, err := w.DomainsOf(isp.TELE)[0].Spawn(simnet.HostSpec{ISP: isp.TELE, UploadBps: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	bs := NewBootstrap(env)
	var groups [Groups][]netip.Addr // all empty
	err = bs.AddChannel(ChannelDirectory{Info: wire.ChannelInfo{ID: 1}, TrackerGroups: groups})
	if err == nil {
		t.Error("empty tracker group accepted")
	}
}

func TestServerIgnoresUnrelatedMessages(t *testing.T) {
	rig := newRig(t)
	rig.server.HandleMessage(rig.client.Addr(), &wire.DataRequest{Channel: 1, Seq: 5})
	rig.run(t, time.Second)
	if len(rig.inbox) != 0 {
		t.Errorf("tracker replied to a data request: %v", rig.inbox)
	}
}

// TestChannelSwitchLeavesRegistry is the channel-switch regression test: a
// peer announced on channel A that switches to channel B sends a Leaving
// announce for A (as peer.Client does on Leave), so it drops out of A's
// registry immediately and never appears in A's query responses again, while
// staying listed on B.
func TestChannelSwitchLeavesRegistry(t *testing.T) {
	rig := newRig(t)
	switcher := netip.AddrFrom4([4]byte{58, 40, 0, 9})

	rig.server.HandleMessage(switcher, &wire.TrackerAnnounce{Channel: 1})
	if got := activePeers(rig.server, 1); len(got) != 1 || got[0] != switcher {
		t.Fatalf("channel 1 registry = %v, want [%v]", got, switcher)
	}

	// Switch: leave A, announce on B.
	rig.server.HandleMessage(switcher, &wire.TrackerAnnounce{Channel: 1, Leaving: true})
	rig.server.HandleMessage(switcher, &wire.TrackerAnnounce{Channel: 2})

	if got := activePeers(rig.server, 1); len(got) != 0 {
		t.Errorf("channel 1 registry after leave = %v, want empty", got)
	}
	if got := activePeers(rig.server, 2); len(got) != 1 || got[0] != switcher {
		t.Errorf("channel 2 registry = %v, want [%v]", got, switcher)
	}

	// No query response for A may ever include the switcher again.
	for i := 0; i < 3; i++ {
		rig.client.Send(rig.srvEnv.Addr(), &wire.TrackerQuery{Channel: 1})
		rig.run(t, 30*time.Second)
	}
	for _, msg := range rig.inbox {
		resp, ok := msg.(*wire.TrackerResponse)
		if !ok {
			t.Fatalf("got %T, want TrackerResponse", msg)
		}
		for _, p := range resp.Peers {
			if p == switcher {
				t.Fatalf("channel 1 response still lists the departed peer %v", p)
			}
		}
	}
}

// TestSilentDepartureExpiresWithinTTL covers the crash-stop path of the same
// contract: a peer that stops re-announcing (no Leaving message — e.g. the
// process died mid-switch) must age out of the registry within the entry TTL
// and never be served from it afterwards, while a peer that keeps announcing
// stays listed.
func TestSilentDepartureExpiresWithinTTL(t *testing.T) {
	rig := newRig(t)
	ghost := netip.AddrFrom4([4]byte{58, 40, 0, 10})
	alive := netip.AddrFrom4([4]byte{58, 40, 0, 11})

	rig.server.HandleMessage(ghost, &wire.TrackerAnnounce{Channel: 1})
	rig.server.HandleMessage(alive, &wire.TrackerAnnounce{Channel: 1})

	// Advance past the TTL; only `alive` re-announces along the way.
	step := 30 * time.Second
	for elapsed := time.Duration(0); elapsed <= DefaultEntryTTL+step; elapsed += step {
		rig.run(t, step)
		rig.server.HandleMessage(alive, &wire.TrackerAnnounce{Channel: 1})
	}

	if got := activePeers(rig.server, 1); len(got) != 1 || got[0] != alive {
		t.Errorf("registry after TTL = %v, want only %v", got, alive)
	}
	rig.client.Send(rig.srvEnv.Addr(), &wire.TrackerQuery{Channel: 1})
	rig.run(t, 5*time.Second)
	if len(rig.inbox) != 1 {
		t.Fatalf("client got %d messages, want 1", len(rig.inbox))
	}
	resp := rig.inbox[0].(*wire.TrackerResponse)
	for _, p := range resp.Peers {
		if p == ghost {
			t.Fatalf("expired peer %v still served", p)
		}
	}
	if len(resp.Peers) != 1 || resp.Peers[0] != alive {
		t.Errorf("response peers = %v, want [%v]", resp.Peers, alive)
	}
}

// TestOutageDropsInboundThenRecovers covers the tracker-crash fault: while
// down the server neither registers announces nor answers queries, and it
// picks up right where it left off on recovery.
func TestOutageDropsInboundThenRecovers(t *testing.T) {
	rig := newRig(t)
	peerA := netip.AddrFrom4([4]byte{58, 40, 0, 20})

	rig.server.SetDown(true)
	rig.server.HandleMessage(peerA, &wire.TrackerAnnounce{Channel: 1})
	rig.client.Send(rig.srvEnv.Addr(), &wire.TrackerQuery{Channel: 1})
	rig.run(t, 5*time.Second)
	if len(rig.inbox) != 0 {
		t.Fatalf("downed tracker answered %d messages", len(rig.inbox))
	}
	if announces, queries, _ := rig.server.Stats(); announces != 0 || queries != 0 {
		t.Errorf("downed tracker counted traffic: %d announces, %d queries", announces, queries)
	}
	if got := activePeers(rig.server, 1); len(got) != 0 {
		t.Errorf("announce registered while down: %v", got)
	}

	rig.server.SetDown(false)
	rig.server.HandleMessage(peerA, &wire.TrackerAnnounce{Channel: 1})
	rig.client.Send(rig.srvEnv.Addr(), &wire.TrackerQuery{Channel: 1})
	rig.run(t, 5*time.Second)
	if len(rig.inbox) != 1 {
		t.Fatalf("recovered tracker answered %d messages, want 1", len(rig.inbox))
	}
	resp := rig.inbox[0].(*wire.TrackerResponse)
	if len(resp.Peers) != 1 || resp.Peers[0] != peerA {
		t.Errorf("response peers = %v, want [%v]", resp.Peers, peerA)
	}
}
