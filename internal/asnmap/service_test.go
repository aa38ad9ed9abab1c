package asnmap_test

import (
	"net/netip"
	"testing"
	"time"

	"pplivesim/internal/asnmap"
	"pplivesim/internal/isp"
	"pplivesim/internal/simnet"
)

// servicePair is a service in a TELE domain and its caching client in the
// CNC domain of a fresh world, so every query crosses a window barrier.
type servicePair struct {
	w      *simnet.World
	svc    *asnmap.Service
	cli    *asnmap.Client
	cliEnv *simnet.Env
}

func newServicePair(t *testing.T) *servicePair {
	t.Helper()
	w := simnet.NewShardedWorldN(1, 1)
	w.CodecCheck = true
	srvEnv, err := w.DomainsOf(isp.TELE)[0].Spawn(simnet.HostSpec{ISP: isp.TELE, UploadBps: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	svc := asnmap.NewService(srvEnv, asnmap.SyntheticInternet())
	srvEnv.SetHandler(svc)

	cliEnv, err := w.DomainsOf(isp.CNC)[0].Spawn(simnet.HostSpec{ISP: isp.CNC, UploadBps: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	cli := asnmap.NewClient(cliEnv, srvEnv.Addr())
	cliEnv.SetHandler(cli)
	return &servicePair{w: w, svc: svc, cli: cli, cliEnv: cliEnv}
}

// resolve asks the client from an event on its own domain, as a node would:
// a query sent between runs would wait in its mailbox for the next barrier.
func (p *servicePair) resolve(addr netip.Addr, done func(asnmap.Record, bool)) {
	p.cliEnv.After(0, func() { p.cli.Resolve(addr, done) })
}

// run runs the world to the instant until; no datagram may reach its domain
// after its delivery time.
func (p *servicePair) run(t *testing.T, until time.Duration) {
	t.Helper()
	if err := p.w.Run(until, 1); err != nil {
		t.Fatal(err)
	}
	if n := p.w.LateInjects(); n != 0 {
		t.Fatalf("%d datagrams injected after their delivery time", n)
	}
}

func TestServiceResolvesOverWire(t *testing.T) {
	p := newServicePair(t)
	var gotRec asnmap.Record
	gotFound := false
	var at time.Duration
	p.resolve(netip.MustParseAddr("58.40.1.2"), func(rec asnmap.Record, found bool) {
		gotRec, gotFound, at = rec, found, p.cliEnv.Now()
	})
	p.run(t, 10*time.Second)
	if !gotFound {
		t.Fatal("resolution failed")
	}
	if gotRec.ISP != isp.TELE || gotRec.ASN != 4134 {
		t.Errorf("record = %+v, want CHINANET", gotRec)
	}
	if p.svc.Queries() != 1 || at >= time.Second {
		t.Errorf("service served %d queries, answer at %v; want one round trip, well under the 2s retry", p.svc.Queries(), at)
	}
}

func TestServiceMiss(t *testing.T) {
	p := newServicePair(t)
	found := true
	p.resolve(netip.MustParseAddr("192.0.2.1"), func(_ asnmap.Record, ok bool) { found = ok })
	p.run(t, 10*time.Second)
	if found {
		t.Error("unregistered address resolved")
	}
}

func TestClientCachesAnswers(t *testing.T) {
	p := newServicePair(t)
	addr := netip.MustParseAddr("60.1.2.3")
	answers := 0
	p.resolve(addr, func(asnmap.Record, bool) { answers++ })
	p.run(t, 10*time.Second)
	queriesAfterFirst := p.svc.Queries()
	p.resolve(addr, func(asnmap.Record, bool) { answers++ })
	p.resolve(addr, func(asnmap.Record, bool) { answers++ })
	p.run(t, 20*time.Second)
	if answers != 3 {
		t.Errorf("answers = %d, want 3", answers)
	}
	if p.svc.Queries() != queriesAfterFirst {
		t.Errorf("cache miss: queries went %d → %d", queriesAfterFirst, p.svc.Queries())
	}
	if p.cli.CacheSize() != 1 {
		t.Errorf("cache size = %d, want 1", p.cli.CacheSize())
	}
}

func TestConcurrentResolvesCoalesce(t *testing.T) {
	p := newServicePair(t)
	addr := netip.MustParseAddr("59.66.0.1")
	answers := 0
	for i := 0; i < 5; i++ {
		p.resolve(addr, func(_ asnmap.Record, ok bool) {
			if ok {
				answers++
			}
		})
	}
	p.run(t, 10*time.Second)
	if answers != 5 {
		t.Errorf("answers = %d, want all 5 waiters called", answers)
	}
}
