package simnet_test

import (
	"net/netip"
	"testing"
	"time"

	"pplivesim/internal/isp"
	"pplivesim/internal/node"
	"pplivesim/internal/simnet"
	"pplivesim/internal/wire"
)

type recorder struct {
	got []wire.Message
}

func (r *recorder) HandleMessage(_ netip.Addr, msg wire.Message) {
	r.got = append(r.got, msg)
}

// spawn attaches a host of the category in the first domain that holds it.
func spawn(t *testing.T, w *simnet.World, category isp.ISP) *simnet.Env {
	t.Helper()
	env, err := w.DomainsOf(category)[0].Spawn(simnet.HostSpec{ISP: category, UploadBps: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestSpawnAllocatesResolvableAddrs(t *testing.T) {
	w := simnet.NewShardedWorldN(1, 1)
	for _, category := range isp.All() {
		env := spawn(t, w, category)
		got, ok := w.Registry.ISPOf(env.Addr())
		if !ok || got != category {
			t.Errorf("spawned %s addr %v resolves to (%v,%v)", category, env.Addr(), got, ok)
		}
		if env.ISP() != category {
			t.Errorf("env ISP = %v", env.ISP())
		}
	}
}

func TestSendDeliversToHandler(t *testing.T) {
	w := simnet.NewShardedWorldN(2, 1)
	a := spawn(t, w, isp.TELE)
	b := spawn(t, w, isp.TELE)
	rec := &recorder{}
	b.SetHandler(rec)
	a.Send(b.Addr(), &wire.Handshake{Channel: 5})
	if err := w.Run(5*time.Second, 1); err != nil {
		t.Fatal(err)
	}
	if len(rec.got) != 1 {
		t.Fatalf("delivered %d messages", len(rec.got))
	}
	hs, ok := rec.got[0].(*wire.Handshake)
	if !ok || hs.Channel != 5 {
		t.Errorf("got %#v", rec.got[0])
	}
}

func TestCodecCheckRoundTripsPayloads(t *testing.T) {
	w := simnet.NewShardedWorldN(3, 1)
	w.CodecCheck = true
	a := spawn(t, w, isp.TELE)
	b := spawn(t, w, isp.CNC)
	rec := &recorder{}
	b.SetHandler(rec)
	sentMsg := &wire.PeerListReply{Channel: 1, Peers: []netip.Addr{a.Addr()}}
	// Sent from an event: a cross-domain datagram waits in its mailbox for
	// the barrier that closes the window it was sent in.
	a.After(0, func() { a.Send(b.Addr(), sentMsg) })
	if err := w.Run(5*time.Second, 1); err != nil {
		t.Fatal(err)
	}
	if len(rec.got) != 1 {
		t.Fatalf("delivered %d messages", len(rec.got))
	}
	// With codec check the delivered message is a decoded copy, not the
	// same object.
	if rec.got[0] == wire.Message(sentMsg) {
		t.Error("codec check delivered the original object")
	}
	reply, ok := rec.got[0].(*wire.PeerListReply)
	if !ok || len(reply.Peers) != 1 || reply.Peers[0] != a.Addr() {
		t.Errorf("decoded copy = %#v", rec.got[0])
	}
}

func TestTapsObserveBothDirections(t *testing.T) {
	w := simnet.NewShardedWorldN(4, 1)
	a := spawn(t, w, isp.TELE)
	b := spawn(t, w, isp.TELE)
	b.SetHandler(&recorder{})
	var sends, recvs int
	a.TapSend(func(to netip.Addr, msg wire.Message, size int) {
		if to != b.Addr() || size <= 0 {
			t.Errorf("send tap: to=%v size=%d", to, size)
		}
		sends++
	})
	b.TapRecv(func(from netip.Addr, msg wire.Message, size int) {
		if from != a.Addr() {
			t.Errorf("recv tap from %v", from)
		}
		recvs++
	})
	a.Send(b.Addr(), &wire.Handshake{Channel: 1})
	if err := w.Run(5*time.Second, 1); err != nil {
		t.Fatal(err)
	}
	if sends != 1 || recvs != 1 {
		t.Errorf("taps: sends=%d recvs=%d", sends, recvs)
	}
}

func TestCloseSilencesNode(t *testing.T) {
	w := simnet.NewShardedWorldN(5, 1)
	a := spawn(t, w, isp.TELE)
	b := spawn(t, w, isp.TELE)
	rec := &recorder{}
	b.SetHandler(rec)
	fired := 0
	a.Every(time.Second, func() { fired++ })
	b.Close()
	if !b.Closed() {
		t.Error("Closed() false after Close")
	}
	b.Close() // idempotent
	a.Send(b.Addr(), &wire.Handshake{Channel: 1})
	if err := w.Run(10*time.Second, 1); err != nil {
		t.Fatal(err)
	}
	if len(rec.got) != 0 {
		t.Error("closed node received a message")
	}
	if fired == 0 {
		t.Error("live node's timer never fired")
	}
	// Closed node can no longer send.
	b.Send(a.Addr(), &wire.Handshake{Channel: 1})
	if n := a.Domain().Network().NumHosts(); n != 1 {
		t.Errorf("hosts = %d after close, want 1", n)
	}
}

func TestTimersStopAfterClose(t *testing.T) {
	w := simnet.NewShardedWorldN(6, 1)
	a := spawn(t, w, isp.TELE)
	count := 0
	a.Every(time.Second, func() { count++ })
	a.Domain().At(3500*time.Millisecond, a.Close)
	if err := w.Run(time.Minute, 1); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Errorf("timer fired %d times, want 3 before close", count)
	}
	// The engine must drain completely (no immortal periodic timers).
	if at, ok := a.Domain().Engine().NextAt(); ok {
		t.Errorf("an event is still pending at %v after close", at)
	}
}

func TestUplinkBacklogVisible(t *testing.T) {
	w := simnet.NewShardedWorldN(7, 1)
	a := spawn(t, w, isp.TELE)
	b := spawn(t, w, isp.TELE)
	b.SetHandler(&recorder{})
	if a.UplinkBacklog() != 0 {
		t.Error("fresh node has backlog")
	}
	// 1 MiB at 1 MiB/s = 1s of backlog.
	a.Send(b.Addr(), &wire.DataReply{Channel: 1, Seq: 0, Count: 64, PieceLen: 16384})
	if a.UplinkBacklog() == 0 {
		t.Error("backlog not visible after large send")
	}
}

var _ node.Env = (*simnet.Env)(nil)
