package underlay

import (
	"net/netip"
	"strings"
	"testing"
	"time"
	"unsafe"

	"pplivesim/internal/eventsim"
	"pplivesim/internal/isp"
)

// pairOWD is the stable one-way delay between two attached hosts.
func pairOWD(n *Network, a, b *Host) time.Duration {
	return n.pairOWD(a.Addr, a.ISP, b.Addr, b.ISP)
}

func newTestNet(t *testing.T) (*eventsim.Engine, *Network) {
	t.Helper()
	eng := eventsim.New(1)
	cfg := DefaultConfig()
	cfg.LossIntra, cfg.LossInterDomestic, cfg.LossTransoceanic = 0, 0, 0
	cfg.JitterFrac = 0
	return eng, New(eng, cfg)
}

func mkHost(addr string, category isp.ISP) *Host {
	return &Host{Addr: netip.MustParseAddr(addr), ISP: category, UploadBps: 64 << 10}
}

func TestAttachDuplicate(t *testing.T) {
	_, net := newTestNet(t)
	h := mkHost("58.32.0.1", isp.TELE)
	if err := net.Attach(h, nil); err != nil {
		t.Fatal(err)
	}
	if err := net.Attach(mkHost("58.32.0.1", isp.TELE), nil); err == nil {
		t.Error("duplicate attach did not error")
	}
}

func TestAttachRejectsZeroUpload(t *testing.T) {
	_, net := newTestNet(t)
	h := &Host{Addr: netip.MustParseAddr("58.32.0.9"), ISP: isp.TELE}
	if err := net.Attach(h, nil); err == nil {
		t.Error("attach with zero upload capacity did not error")
	}
}

// TestAttachRejectsKeyZero: key 0 marks a detached host, so nothing may
// attach there — not the addresses hostKey folds to 0, not 0.0.0.0 itself —
// and the error names the address instead of calling it a duplicate.
func TestAttachRejectsKeyZero(t *testing.T) {
	_, net := newTestNet(t)
	for _, addr := range []netip.Addr{
		netip.MustParseAddr("2001:db8::1"),
		netip.MustParseAddr("::ffff:58.32.0.1"),
		netip.MustParseAddr("0.0.0.0"),
		{},
	} {
		// Twice: the second attempt used to be the one that failed.
		for try := 0; try < 2; try++ {
			err := net.Attach(&Host{Addr: addr, ISP: isp.TELE, UploadBps: 64 << 10}, nil)
			if err == nil {
				t.Fatalf("attach %s accepted", addr)
			}
			if !strings.Contains(err.Error(), addr.String()) || strings.Contains(err.Error(), "already attached") {
				t.Errorf("attach %s: error %q does not name the address as the problem", addr, err)
			}
		}
	}
	if net.NumHosts() != 0 {
		t.Errorf("%d hosts attached after only rejected attaches", net.NumHosts())
	}
}

// TestHostSize pins the host record a million flow members are made of.
func TestHostSize(t *testing.T) {
	if size := unsafe.Sizeof(Host{}); size != 80 {
		t.Errorf("Host is %d bytes, want 80: Addr 24, ISP 8, UploadBps 8, ProcDelay 8, recv 16, "+
			"key 4, Tag 4, upBusyUntil 8", size)
	}
}

func TestDelivery(t *testing.T) {
	eng, net := newTestNet(t)
	a := mkHost("58.32.0.1", isp.TELE)
	b := mkHost("58.32.0.2", isp.TELE)
	var gotFrom netip.Addr
	var gotPayload any
	var at time.Duration
	if err := net.Attach(a, nil); err != nil {
		t.Fatal(err)
	}
	err := net.Attach(b, func(from netip.Addr, size int, payload any) {
		gotFrom, gotPayload, at = from, payload, eng.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	if !net.Send(a, b.Addr, 1000, "hello") {
		t.Fatal("Send dropped at queue")
	}
	if err := eng.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if gotFrom != a.Addr || gotPayload != "hello" {
		t.Errorf("delivered (%v,%v), want (%v,hello)", gotFrom, gotPayload, a.Addr)
	}
	owd := pairOWD(net, a, b)
	tx := time.Duration(float64(1000) / a.UploadBps * float64(time.Second))
	if want := owd + tx; at != want {
		t.Errorf("arrival at %v, want %v", at, want)
	}
	delivered, _, _, _ := net.Stats()
	if delivered != 1 {
		t.Errorf("delivered = %d, want 1", delivered)
	}
}

// TestInjectCountsLateArrivals: a cross-shard datagram injected with a
// delivery time behind the destination clock is still delivered (the engine
// clamps it to now) but counted, so a violated lookahead cannot pass
// unnoticed; one at or after the clock is not counted.
func TestInjectCountsLateArrivals(t *testing.T) {
	eng, net := newTestNet(t)
	b := mkHost("58.32.0.2", isp.TELE)
	b.ProcDelay = time.Millisecond
	var arrivals []time.Duration
	if err := net.Attach(b, func(netip.Addr, int, any) { arrivals = append(arrivals, eng.Now()) }); err != nil {
		t.Fatal(err)
	}
	from := netip.MustParseAddr("60.0.0.1")
	eng.At(100*time.Millisecond, func() {
		net.Inject(99*time.Millisecond, from, b.Addr, 40, nil)  // 99+1 = now: on time
		net.Inject(98*time.Millisecond, from, b.Addr, 40, nil)  // 98+1 < now: late
		net.Inject(150*time.Millisecond, from, b.Addr, 40, nil) // future
		net.Inject(10*time.Millisecond, from, from, 40, nil)    // no such host: not a delivery
	})
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if got := net.LateInjects(); got != 1 {
		t.Errorf("LateInjects = %d, want 1", got)
	}
	want := []time.Duration{100 * time.Millisecond, 100 * time.Millisecond, 151 * time.Millisecond}
	if len(arrivals) != len(want) {
		t.Fatalf("arrivals %v, want %v", arrivals, want)
	}
	for i := range want {
		if arrivals[i] != want[i] {
			t.Errorf("arrival %d at %v, want %v", i, arrivals[i], want[i])
		}
	}
}

func TestLatencyRegimeOrdering(t *testing.T) {
	_, net := newTestNet(t)
	tele1 := mkHost("58.32.0.1", isp.TELE)
	tele2 := mkHost("58.32.0.2", isp.TELE)
	cnc := mkHost("60.0.0.1", isp.CNC)
	foreign := mkHost("129.174.0.1", isp.Foreign)

	intra := pairOWD(net, tele1, tele2)
	inter := pairOWD(net, tele1, cnc)
	ocean := pairOWD(net, tele1, foreign)

	// With PairSpread 0.45 the regimes can overlap at the extremes for a
	// single pair, but base values are ordered; check against worst case by
	// comparing many pairs on average.
	var sumIntra, sumInter, sumOcean time.Duration
	for i := 0; i < 50; i++ {
		p := mkHost(netip.AddrFrom4([4]byte{58, 33, byte(i), 1}).String(), isp.TELE)
		q := mkHost(netip.AddrFrom4([4]byte{60, 1, byte(i), 1}).String(), isp.CNC)
		r := mkHost(netip.AddrFrom4([4]byte{129, 174, byte(i), 1}).String(), isp.Foreign)
		sumIntra += pairOWD(net, tele1, p)
		sumInter += pairOWD(net, tele1, q)
		sumOcean += pairOWD(net, tele1, r)
	}
	if !(sumIntra < sumInter && sumInter < sumOcean) {
		t.Errorf("mean OWD ordering violated: intra=%v inter=%v ocean=%v",
			sumIntra/50, sumInter/50, sumOcean/50)
	}
	_ = intra
	_ = inter
	_ = ocean
}

func TestPairOWDSymmetricAndStable(t *testing.T) {
	_, net := newTestNet(t)
	a := mkHost("58.32.0.1", isp.TELE)
	b := mkHost("58.32.99.2", isp.TELE)
	d1 := pairOWD(net, a, b)
	d2 := pairOWD(net, b, a)
	if d1 != d2 {
		t.Errorf("PairOWD asymmetric: %v vs %v", d1, d2)
	}
	if d3 := pairOWD(net, a, b); d3 != d1 {
		t.Errorf("PairOWD unstable: %v vs %v", d3, d1)
	}
}

func TestTeleCncPenalty(t *testing.T) {
	_, net := newTestNet(t)
	tele := mkHost("58.32.0.1", isp.TELE)
	var cncSum, cerSum time.Duration
	for i := 0; i < 50; i++ {
		cnc := mkHost(netip.AddrFrom4([4]byte{60, 0, byte(i), 2}).String(), isp.CNC)
		cer := mkHost(netip.AddrFrom4([4]byte{59, 64, byte(i), 2}).String(), isp.CER)
		cncSum += pairOWD(net, tele, cnc)
		cerSum += pairOWD(net, tele, cer)
	}
	if cncSum <= cerSum {
		t.Errorf("TELE↔CNC mean OWD %v not above TELE↔CER %v", cncSum/50, cerSum/50)
	}
}

func TestUplinkSerialization(t *testing.T) {
	eng, net := newTestNet(t)
	a := mkHost("58.32.0.1", isp.TELE)
	b := mkHost("58.32.0.2", isp.TELE)
	var arrivals []time.Duration
	if err := net.Attach(a, nil); err != nil {
		t.Fatal(err)
	}
	if err := net.Attach(b, func(netip.Addr, int, any) { arrivals = append(arrivals, eng.Now()) }); err != nil {
		t.Fatal(err)
	}
	// Two back-to-back datagrams: the second must serialize behind the first.
	net.Send(a, b.Addr, 64<<10, 1) // 1 second of tx at 64 KiB/s
	net.Send(a, b.Addr, 64<<10, 2)
	if err := eng.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != 2 {
		t.Fatalf("got %d arrivals, want 2", len(arrivals))
	}
	gap := arrivals[1] - arrivals[0]
	if gap < 900*time.Millisecond {
		t.Errorf("second datagram arrived %v after first, want ≈1s serialization", gap)
	}
	if a.QueueDelay(0) == 0 {
		t.Error("uplink backlog not reflected in QueueDelay")
	}
}

func TestQueueOverflowDrop(t *testing.T) {
	eng, net := newTestNet(t)
	a := mkHost("58.32.0.1", isp.TELE)
	b := mkHost("58.32.0.2", isp.TELE)
	if err := net.Attach(a, nil); err != nil {
		t.Fatal(err)
	}
	if err := net.Attach(b, nil); err != nil {
		t.Fatal(err)
	}
	sent, dropped := 0, 0
	for i := 0; i < 20; i++ {
		if net.Send(a, b.Addr, 64<<10, i) { // each datagram = 1s of uplink
			sent++
		} else {
			dropped++
		}
	}
	if dropped == 0 {
		t.Error("no tail drops despite 20s backlog against 8s bound")
	}
	if sent == 0 {
		t.Error("all datagrams dropped")
	}
	_, _, dq, _ := net.Stats()
	if dq != uint64(dropped) {
		t.Errorf("droppedQueue stat = %d, want %d", dq, dropped)
	}
	_ = eng
}

func TestDetachDropsInFlight(t *testing.T) {
	eng, net := newTestNet(t)
	a := mkHost("58.32.0.1", isp.TELE)
	b := mkHost("58.32.0.2", isp.TELE)
	delivered := false
	if err := net.Attach(a, nil); err != nil {
		t.Fatal(err)
	}
	if err := net.Attach(b, func(netip.Addr, int, any) { delivered = true }); err != nil {
		t.Fatal(err)
	}
	net.Send(a, b.Addr, 100, nil)
	net.Detach(b.Addr)
	if err := eng.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if delivered {
		t.Error("datagram delivered to detached host")
	}
	_, _, _, noHost := net.Stats()
	if noHost != 1 {
		t.Errorf("droppedNoHost = %d, want 1", noHost)
	}
}

func TestSendToUnknownAddr(t *testing.T) {
	eng, net := newTestNet(t)
	a := mkHost("58.32.0.1", isp.TELE)
	if err := net.Attach(a, nil); err != nil {
		t.Fatal(err)
	}
	if !net.Send(a, netip.MustParseAddr("10.9.9.9"), 100, nil) {
		t.Error("send to unknown addr reported queue drop")
	}
	if err := eng.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	_, _, _, noHost := net.Stats()
	if noHost != 1 {
		t.Errorf("droppedNoHost = %d, want 1", noHost)
	}
}

func TestLossStatistical(t *testing.T) {
	eng := eventsim.New(9)
	cfg := DefaultConfig()
	cfg.JitterFrac = 0
	cfg.LossIntra = 0.5
	net := New(eng, cfg)
	a := mkHost("58.32.0.1", isp.TELE)
	a.UploadBps = 1 << 30 // no queue effects
	b := mkHost("58.32.0.2", isp.TELE)
	got := 0
	if err := net.Attach(a, nil); err != nil {
		t.Fatal(err)
	}
	if err := net.Attach(b, func(netip.Addr, int, any) { got++ }); err != nil {
		t.Fatal(err)
	}
	const n = 2000
	for i := 0; i < n; i++ {
		net.Send(a, b.Addr, 10, nil)
	}
	if err := eng.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
	if got < n*35/100 || got > n*65/100 {
		t.Errorf("delivered %d of %d with 50%% loss, outside [35%%,65%%]", got, n)
	}
}

func TestJitterNonNegativeAndDeterministic(t *testing.T) {
	run := func() []time.Duration {
		eng := eventsim.New(77)
		cfg := DefaultConfig()
		cfg.LossIntra = 0
		net := New(eng, cfg)
		a := mkHost("58.32.0.1", isp.TELE)
		a.UploadBps = 1 << 30
		b := mkHost("58.32.0.2", isp.TELE)
		var arrivals []time.Duration
		if err := net.Attach(a, nil); err != nil {
			t.Fatal(err)
		}
		if err := net.Attach(b, func(netip.Addr, int, any) { arrivals = append(arrivals, eng.Now()) }); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			net.Send(a, b.Addr, 10, nil)
		}
		if err := eng.Run(time.Hour); err != nil {
			t.Fatal(err)
		}
		return arrivals
	}
	a1, a2 := run(), run()
	if len(a1) != len(a2) {
		t.Fatalf("runs delivered %d vs %d", len(a1), len(a2))
	}
	base := New(eventsim.New(77), DefaultConfig())
	owd := pairOWD(base, mkHost("58.32.0.1", isp.TELE), mkHost("58.32.0.2", isp.TELE))
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("non-deterministic arrival %d: %v vs %v", i, a1[i], a2[i])
		}
		if a1[i] < owd {
			t.Fatalf("arrival %d before pair OWD: %v < %v", i, a1[i], owd)
		}
	}
}
