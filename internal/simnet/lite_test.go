package simnet_test

import (
	"net/netip"
	"testing"
	"time"

	"pplivesim/internal/isp"
	"pplivesim/internal/simnet"
	"pplivesim/internal/wire"
)

type liteRecorder struct {
	rows   []int
	nonces []uint32
}

func (r *liteRecorder) HandleLite(i int, _ netip.Addr, msg wire.Message) {
	r.rows = append(r.rows, i)
	r.nonces = append(r.nonces, msg.(*wire.Ping).Nonce)
}

// TestLiteCellReuseDropsInFlight retires a lite member with datagrams in
// flight and respawns into the same cell: the old member's datagrams must
// count as dropped-no-host and never reach the cell's new occupant, and every
// datagram sent must still be accounted for exactly once.
func TestLiteCellReuseDropsInFlight(t *testing.T) {
	w := simnet.NewShardedWorldN(11, 1)
	dom := w.Domains()[0]
	sender := spawn(t, w, isp.TELE)
	owner := &liteRecorder{}
	spec := simnet.HostSpec{ISP: isp.TELE, UploadBps: 1 << 20}

	port := dom.NewLitePort(owner)

	old, err := port.Spawn(spec)
	if err != nil {
		t.Fatal(err)
	}
	old.Tag = 3
	oldAddr := old.Addr
	const perMember = 50
	for i := 0; i < perMember; i++ {
		sender.Send(oldAddr, &wire.Ping{Channel: 1, Nonce: 1})
	}
	port.Retire(oldAddr)

	fresh, err := port.Spawn(spec)
	if err != nil {
		t.Fatal(err)
	}
	if fresh != old {
		t.Fatal("respawn did not reuse the retired member's cell")
	}
	if fresh.Addr == oldAddr {
		t.Fatal("respawn reused the retired member's address")
	}
	fresh.Tag = 8
	for i := 0; i < perMember; i++ {
		sender.Send(fresh.Addr, &wire.Ping{Channel: 1, Nonce: 2})
	}
	if err := w.Run(time.Minute, 1); err != nil {
		t.Fatal(err)
	}

	for k, nonce := range owner.nonces {
		if nonce != 2 || owner.rows[k] != 8 {
			t.Fatalf("new occupant (row 8) got nonce %d for row %d", nonce, owner.rows[k])
		}
	}
	delivered, loss, queue, noHost := w.NetStats()
	if int(delivered) != len(owner.nonces) {
		t.Errorf("delivered %d, handler calls %d", delivered, len(owner.nonces))
	}
	if noHost == 0 || noHost > perMember {
		t.Errorf("droppedNoHost = %d, want 1..%d (the retired member's datagrams)", noHost, perMember)
	}
	if sum := delivered + loss + queue + noHost; sum != 2*perMember {
		t.Errorf("delivered %d + loss %d + queue %d + no-host %d = %d, want %d sent",
			delivered, loss, queue, noHost, sum, 2*perMember)
	}
	if _, ok := dom.Network().Lookup(oldAddr); ok {
		t.Error("retired address still attached")
	}
	if h, ok := dom.Network().Lookup(fresh.Addr); !ok || h != fresh {
		t.Error("new occupant not attached under its own address")
	}
}
