package simnet_test

import (
	"net/netip"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"pplivesim/internal/isp"
	"pplivesim/internal/node"
	"pplivesim/internal/simnet"
	"pplivesim/internal/wire"
)

// TestDataPlaneZeroAlloc is the data plane's allocation gate: once warm, a
// data request, its reply and the Have hint that follows — each made by its
// wire constructor, sent, delivered through World.Run and released by the
// receiving env — allocate nothing. The requester and the server sit in
// different domains of a sharded world, so the request and the reply take
// the cross-domain path (router mailbox, barrier flush, Inject); the Have
// goes to a third env in the requester's domain and takes the local one.
func TestDataPlaneZeroAlloc(t *testing.T) {
	// The pooled flag lives in the structs' padding: recycling must not
	// grow the per-piece messages.
	for name, size := range map[string]uintptr{
		"DataRequest": unsafe.Sizeof(wire.DataRequest{}),
		"DataReply":   unsafe.Sizeof(wire.DataReply{}),
		"Have":        unsafe.Sizeof(wire.Have{}),
	} {
		if size != 24 {
			t.Errorf("wire.%s is %d bytes, want 24", name, size)
		}
	}
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
	client, server, buddy := spawn(isp.TELE), spawn(isp.CNC), spawn(isp.TELE)
	var requests, replies, haves int
	server.SetHandler(node.HandlerFunc(func(from netip.Addr, msg wire.Message) {
		m := msg.(*wire.DataRequest)
		requests++
		server.Send(from, wire.NewDataReply(m.Channel, m.Seq, m.Count, wire.SubPieceSize, false))
	}))
	client.SetHandler(node.HandlerFunc(func(_ netip.Addr, msg wire.Message) {
		m := msg.(*wire.DataReply)
		replies++
		client.Send(buddy.Addr(), wire.NewHave(m.Channel, m.Seq, m.Count))
	}))
	buddy.SetHandler(node.HandlerFunc(func(netip.Addr, wire.Message) { haves++ }))

	var horizon time.Duration
	run := func() {
		horizon += time.Second
		if err := w.Run(horizon, 1); err != nil {
			t.Fatal(err)
		}
	}
	seq := uint64(0)
	request := func() {
		seq++
		client.Send(server.Addr(), wire.NewDataRequest(1, seq, 1))
	}
	exchange := func() {
		client.Domain().At(horizon, request)
		run()
	}
	for i := 0; i < 10; i++ {
		exchange()
	}
	// World.Run sets up its window group on every call; that cost is the
	// idle run's, and the exchange may add nothing to it.
	const runs = 50
	idle := testing.AllocsPerRun(runs, run)
	requests, replies, haves = 0, 0, 0
	allocs := testing.AllocsPerRun(runs, exchange)
	// The world is deterministic and at seed 7 the underlay loses none of
	// the measured exchanges' datagrams, so the count is exact;
	// TestDataPlaneZeroAllocLossy measures the drops.
	if requests != runs+1 || replies != runs+1 || haves != runs+1 {
		t.Fatalf("%d requests, %d replies, %d haves delivered over %d exchanges", requests, replies, haves, runs+1)
	}
	t.Logf("idle World.Run: %.0f allocs; with one exchange: %.0f", idle, allocs)
	if got := allocs - idle; got != 0 {
		t.Errorf("one exchange allocates %.2f objects beyond an idle World.Run (%.0f), want 0", got, idle)
	}
}

// TestDataPlaneZeroAllocLossy is TestDataPlaneZeroAlloc with drops: a third
// of every datagram the two domains send is lost, and in the middle of the
// measured exchanges one Have destination in the requester's domain detaches
// while a Have to it is in flight and one in the server's domain detaches
// too. Later Haves to them die at the send and at the barrier. Every dropped
// message goes back to the pool, so the exchanges still allocate nothing.
func TestDataPlaneZeroAllocLossy(t *testing.T) {
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
	client, server, buddy, far := spawn(isp.TELE), spawn(isp.CNC), spawn(isp.TELE), spawn(isp.CNC)
	client.Domain().Network().AddBurstLoss(1.0 / 3)
	server.Domain().Network().AddBurstLoss(1.0 / 3)
	detach := false
	server.SetHandler(node.HandlerFunc(func(from netip.Addr, msg wire.Message) {
		m := msg.(*wire.DataRequest)
		server.Send(from, wire.NewDataReply(m.Channel, m.Seq, m.Count, wire.SubPieceSize, false))
	}))
	client.SetHandler(node.HandlerFunc(func(_ netip.Addr, msg wire.Message) {
		m := msg.(*wire.DataReply)
		have := wire.NewHave(m.Channel, m.Seq, m.Count)
		have.SetDeliveries(2)
		client.Send(buddy.Addr(), have)
		client.Send(far.Addr(), have)
		if detach {
			detach = false
			buddy.Close() // the Have just sent is in flight
		}
	}))
	closeFar := func() { far.Close() }

	var horizon time.Duration
	run := func() {
		horizon += time.Second
		if err := w.Run(horizon, 1); err != nil {
			t.Fatal(err)
		}
	}
	seq := uint64(0)
	request := func() {
		seq++
		client.Send(server.Addr(), wire.NewDataRequest(1, seq, 1))
	}
	// AllocsPerRun divides its count by the runs in integers. A run of ten
	// exchanges makes a message a tenth of them leak show, where a run of
	// one would round it away; the event queue's amortized growth, a few
	// objects in the whole measurement, stays below it.
	const runs, batch = 50, 10
	exchanges := 0
	exchange := func() {
		if exchanges++; exchanges == runs*batch/2 {
			detach = true
			server.Domain().At(horizon+time.Millisecond, closeFar)
		}
		client.Domain().At(horizon, request)
		run()
	}
	exchangeBatch := func() {
		for i := 0; i < batch; i++ {
			exchange()
		}
	}
	idleBatch := func() {
		for i := 0; i < batch; i++ {
			run()
		}
	}
	for i := 0; i < 200; i++ {
		client.Domain().At(horizon, request)
		run()
	}
	idle := testing.AllocsPerRun(runs, idleBatch)
	_, lostBefore, _, noHostBefore := w.NetStats()
	allocs := testing.AllocsPerRun(runs, exchangeBatch)
	_, lost, _, noHost := w.NetStats()
	if !buddy.Closed() || !far.Closed() {
		t.Fatal("the Have destinations did not detach")
	}
	if lost == lostBefore || noHost == noHostBefore {
		t.Fatalf("measured exchanges lost %d datagrams and found no host for %d, want both > 0", lost-lostBefore, noHost-noHostBefore)
	}
	t.Logf("%d idle World.Runs: %.0f allocs; with one lossy exchange each: %.0f (%d lost, %d to no host over %d exchanges)",
		batch, idle, allocs, lost-lostBefore, noHost-noHostBefore, (runs+1)*batch)
	if got := allocs - idle; got != 0 {
		t.Errorf("%d lossy exchanges allocate %.2f objects beyond as many idle World.Runs (%.0f), want 0", batch, got, idle)
	}
}

// TestDropSitesRelease sends one message of every recycled type into each of
// the transport's drop sites in turn and checks that it came back to the wire
// pool, which zeroes it: the uplink queue bound, no host at the send, random
// loss and a partition on both the local and the cross-domain path, no host
// at the barrier's injection, a destination that detaches in flight, and a
// closed sender.
func TestDropSitesRelease(t *testing.T) {
	w := simnet.NewShardedWorldN(7, simnet.DefaultShards)
	spawn := func(cat isp.ISP, bps float64) *simnet.Env {
		env, err := w.DomainsOf(cat)[0].Spawn(simnet.HostSpec{ISP: cat, UploadBps: bps})
		if err != nil {
			t.Fatal(err)
		}
		return env
	}
	sender, local, remote := spawn(isp.TELE, 1<<30), spawn(isp.TELE, 1<<30), spawn(isp.CNC, 1<<30)
	slow := spawn(isp.TELE, 1) // one Have keeps its uplink busy past the 8 s queue bound
	goneLocal, goneRemote := spawn(isp.TELE, 1<<30), spawn(isp.CNC, 1<<30)
	goneLocal.Close()
	goneRemote.Close()
	closed := spawn(isp.TELE, 1<<30)
	closed.Close()
	net := sender.Domain().Network()

	var horizon time.Duration
	for i, c := range []struct {
		site   string
		from   *simnet.Env
		to     netip.Addr
		before func()        // at the send, before it
		after  func()        // at the send, after it
		stat   func() uint64 // the site's drop counter; nil if it has none
	}{
		{site: "queue bound", from: slow, to: local.Addr(),
			before: func() { slow.Send(local.Addr(), &wire.Have{Channel: 1, Seq: 1, Count: 1}) },
			stat:   func() uint64 { _, _, q, _ := w.NetStats(); return q }},
		{site: "no host at send", from: sender, to: goneLocal.Addr(),
			stat: func() uint64 { _, _, _, n := w.NetStats(); return n }},
		{site: "loss", from: sender, to: local.Addr(),
			before: func() { net.AddBurstLoss(1) }, after: func() { net.RemoveBurstLoss(1) },
			stat: func() uint64 { _, l, _, _ := w.NetStats(); return l }},
		{site: "loss across domains", from: sender, to: remote.Addr(),
			before: func() { net.AddBurstLoss(1) }, after: func() { net.RemoveBurstLoss(1) },
			stat: func() uint64 { _, l, _, _ := w.NetStats(); return l }},
		{site: "partition", from: sender, to: local.Addr(),
			before: func() { net.ApplyLinkFault(isp.TELE, isp.TELE, 0, 0, true) },
			after:  func() { net.ClearLinkFault(isp.TELE, isp.TELE, 0, 0, true) },
			stat:   net.FaultDrops},
		{site: "partition across domains", from: sender, to: remote.Addr(),
			before: func() { net.ApplyLinkFault(isp.TELE, isp.CNC, 0, 0, true) },
			after:  func() { net.ClearLinkFault(isp.TELE, isp.CNC, 0, 0, true) },
			stat:   net.FaultDrops},
		{site: "no host at injection", from: sender, to: goneRemote.Addr(),
			stat: func() uint64 { _, _, _, n := w.NetStats(); return n }},
		{site: "detached in flight", from: sender, to: local.Addr(),
			after: func() { local.Close() },
			stat:  func() uint64 { _, _, _, n := w.NetStats(); return n }},
		{site: "closed sender", from: closed, to: remote.Addr()},
	} {
		peers := []netip.Addr{local.Addr(), remote.Addr()}
		request := wire.NewPeerListRequest(1)
		request.OwnPeers = append(request.OwnPeers, peers...)
		reply := wire.NewPeerListReply(1)
		reply.Peers = append(reply.Peers, peers...)
		response := wire.NewTrackerResponse(1)
		response.Peers = append(response.Peers, peers...)
		ack := wire.NewHandshakeAck(1, true)
		ack.Buffer = wire.ResetBufferMap(ack.Buffer.Words, 64, 512)
		announce := wire.NewBufferMapAnnounce(1)
		announce.Buffer = wire.ResetBufferMap(announce.Buffer.Words, 64, 512)
		msgs := []wire.Message{
			wire.NewDataRequest(1, uint64(100+i), 1),
			wire.NewDataReply(1, uint64(100+i), 1, wire.SubPieceSize, false),
			wire.NewHave(1, uint64(100+i), 1),
			ack, request, reply, announce,
			wire.NewTrackerAnnounce(1, false),
			wire.NewTrackerQuery(1),
			response,
			wire.NewPing(1, 7),
			wire.NewPong(1, 7),
		}
		var before uint64
		if c.stat != nil {
			before = c.stat()
		}
		send := func() {
			if c.before != nil {
				c.before()
			}
			for _, m := range msgs {
				c.from.Send(c.to, m)
			}
			if c.after != nil {
				c.after()
			}
		}
		c.from.Domain().At(horizon, send)
		horizon += time.Minute
		if err := w.Run(horizon, 1); err != nil {
			t.Fatal(err)
		}
		if c.stat != nil && c.stat() == before {
			t.Errorf("%s: the drop counter did not move", c.site)
		}
		// Every message above has a channel of 1, and Release zeroes it.
		for _, m := range msgs {
			if ch := reflect.ValueOf(m).Elem().FieldByName("Channel").Uint(); ch != 0 {
				t.Errorf("%s: the dropped %s was not released", c.site, m.Kind())
			}
		}
	}
}
