package node_test

import (
	"net/netip"
	"testing"
	"time"

	"pplivesim/internal/isp"
	"pplivesim/internal/node"
	"pplivesim/internal/simnet"
	"pplivesim/internal/wire"
)

func TestHandlerFuncForwards(t *testing.T) {
	var gotFrom netip.Addr
	var gotMsg wire.Message
	h := node.HandlerFunc(func(from netip.Addr, msg wire.Message) {
		gotFrom, gotMsg = from, msg
	})
	from := netip.MustParseAddr("10.1.2.3")
	msg := &wire.Handshake{Channel: 9}
	h.HandleMessage(from, msg)
	if gotFrom != from {
		t.Errorf("from = %v, want %v", gotFrom, from)
	}
	if hs, ok := gotMsg.(*wire.Handshake); !ok || hs.Channel != 9 {
		t.Errorf("msg = %#v, want the handshake passed in", gotMsg)
	}
}

// spawn creates a simulated environment — the canonical Env implementation —
// for contract tests below.
func spawn(t *testing.T, w *simnet.World) *simnet.Env {
	t.Helper()
	env, err := w.DomainsOf(isp.TELE)[0].Spawn(simnet.HostSpec{ISP: isp.TELE, UploadBps: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// TestEnvContractTimers pins the Env timer semantics protocol code relies
// on: After fires once at the scheduled instant, Every fires repeatedly one
// period apart, and Cancel reports whether the timer was still pending.
func TestEnvContractTimers(t *testing.T) {
	w := simnet.NewShardedWorldN(1, 1)
	env := spawn(t, w)

	var afterAt time.Duration
	env.After(50*time.Millisecond, func() { afterAt = env.Now() })

	var everyAt []time.Duration
	var stop node.Cancel
	stop = env.Every(20*time.Millisecond, func() {
		everyAt = append(everyAt, env.Now())
		if len(everyAt) == 3 {
			if !stop() {
				t.Error("cancelling a live periodic timer reported false")
			}
		}
	})

	cancelled := env.After(time.Second, func() { t.Error("cancelled timer fired") })
	if !cancelled() {
		t.Error("cancel of pending timer reported false")
	}
	if cancelled() {
		t.Error("second cancel reported true")
	}

	w.Run(2*time.Second, 1)

	if afterAt != 50*time.Millisecond {
		t.Errorf("After fired at %v, want 50ms", afterAt)
	}
	want := []time.Duration{20 * time.Millisecond, 40 * time.Millisecond, 60 * time.Millisecond}
	if len(everyAt) != len(want) {
		t.Fatalf("Every fired %d times (%v), want %d then cancel", len(everyAt), everyAt, len(want))
	}
	for i := range want {
		if everyAt[i] != want[i] {
			t.Errorf("Every firing %d at %v, want %v", i, everyAt[i], want[i])
		}
	}
}

// TestEnvContractSendAndRand exercises datagram exchange between two Envs
// through the node interfaces alone, and the determinism of Rand.
func TestEnvContractSendAndRand(t *testing.T) {
	w := simnet.NewShardedWorldN(7, 1)
	a, b := spawn(t, w), spawn(t, w)
	if a.Addr() == b.Addr() {
		t.Fatalf("spawned nodes share address %v", a.Addr())
	}

	var got []wire.Message
	var from netip.Addr
	b.SetHandler(node.HandlerFunc(func(f netip.Addr, msg wire.Message) {
		from = f
		got = append(got, msg)
		// Reply through the same interface.
		b.Send(f, &wire.HandshakeAck{Channel: 3, Accepted: true})
	}))
	var acked bool
	a.SetHandler(node.HandlerFunc(func(f netip.Addr, msg wire.Message) {
		if ack, ok := msg.(*wire.HandshakeAck); ok && ack.Accepted && f == b.Addr() {
			acked = true
		}
	}))

	a.Send(b.Addr(), &wire.Handshake{Channel: 3})
	w.Run(5*time.Second, 1)

	if len(got) != 1 || from != a.Addr() {
		t.Fatalf("b received %d messages from %v, want 1 from %v", len(got), from, a.Addr())
	}
	if !acked {
		t.Error("a never received b's reply")
	}

	// Rand streams are deterministic per world seed and node spawn order.
	w2 := simnet.NewShardedWorldN(7, 1)
	a2 := spawn(t, w2)
	r1, r2 := a.Rand(), a2.Rand()
	for i := 0; i < 8; i++ {
		if v1, v2 := r1.Uint64(), r2.Uint64(); v1 != v2 {
			t.Fatalf("draw %d differs across identically seeded worlds: %d vs %d", i, v1, v2)
		}
	}

	if a.UplinkBacklog() < 0 {
		t.Error("negative uplink backlog")
	}
}
