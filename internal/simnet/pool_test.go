package simnet_test

import (
	"net/netip"
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
	// A lost datagram leaves its message to the collector, and the pool one
	// short. The world is deterministic and at seed 7 the underlay loses
	// none of the measured exchanges' datagrams, so the count is exact.
	if requests != runs+1 || replies != runs+1 || haves != runs+1 {
		t.Fatalf("%d requests, %d replies, %d haves delivered over %d exchanges", requests, replies, haves, runs+1)
	}
	t.Logf("idle World.Run: %.0f allocs; with one exchange: %.0f", idle, allocs)
	if got := allocs - idle; got != 0 {
		t.Errorf("one exchange allocates %.2f objects beyond an idle World.Run (%.0f), want 0", got, idle)
	}
}
