package underlay

import (
	"net/netip"
	"testing"
	"time"

	"pplivesim/internal/eventsim"
	"pplivesim/internal/isp"
)

// TestTransoceanicBandwidthPenalty verifies the thin-pipe model: large
// cross-border datagrams arrive disproportionately later than domestic ones
// of the same size, while small control datagrams are barely affected.
func TestTransoceanicBandwidthPenalty(t *testing.T) {
	eng := eventsim.New(1)
	cfg := DefaultConfig()
	cfg.LossIntra, cfg.LossInterDomestic, cfg.LossTransoceanic = 0, 0, 0
	cfg.JitterFrac = 0
	cfg.TransoceanicBps = 40 << 10
	net := New(eng, cfg)

	tele := &Host{Addr: netip.MustParseAddr("58.32.0.1"), ISP: isp.TELE, UploadBps: 1 << 30}
	tele2 := &Host{Addr: netip.MustParseAddr("58.32.0.2"), ISP: isp.TELE, UploadBps: 1 << 30}
	foreign := &Host{Addr: netip.MustParseAddr("129.174.0.1"), ISP: isp.Foreign, UploadBps: 1 << 30}

	var teleAt, foreignAt time.Duration
	if err := net.Attach(tele, nil); err != nil {
		t.Fatal(err)
	}
	if err := net.Attach(tele2, func(netip.Addr, int, any) { teleAt = eng.Now() }); err != nil {
		t.Fatal(err)
	}
	if err := net.Attach(foreign, func(netip.Addr, int, any) { foreignAt = eng.Now() }); err != nil {
		t.Fatal(err)
	}

	const payload = 11040 // an 8-piece batch
	net.Send(tele, tele2.Addr, payload, nil)
	net.Send(tele, foreign.Addr, payload, nil)
	if err := eng.Run(time.Minute); err != nil {
		t.Fatal(err)
	}

	domesticOWD := pairOWD(net, tele, tele2)
	oceanOWD := pairOWD(net, tele, foreign)
	wantPenalty := time.Duration(float64(payload) / float64(cfg.TransoceanicBps) * float64(time.Second))

	if got := teleAt - domesticOWD; got > time.Millisecond {
		t.Errorf("domestic datagram delayed %v beyond propagation", got)
	}
	gotPenalty := foreignAt - oceanOWD
	if gotPenalty < wantPenalty-time.Millisecond || gotPenalty > wantPenalty+time.Millisecond {
		t.Errorf("transoceanic penalty = %v, want ≈%v", gotPenalty, wantPenalty)
	}
}

// TestTransoceanicPenaltyDisabled verifies zero disables the model.
func TestTransoceanicPenaltyDisabled(t *testing.T) {
	eng := eventsim.New(1)
	cfg := DefaultConfig()
	cfg.LossTransoceanic = 0
	cfg.JitterFrac = 0
	cfg.TransoceanicBps = 0
	net := New(eng, cfg)
	tele := &Host{Addr: netip.MustParseAddr("58.32.0.1"), ISP: isp.TELE, UploadBps: 1 << 30}
	foreign := &Host{Addr: netip.MustParseAddr("129.174.0.1"), ISP: isp.Foreign, UploadBps: 1 << 30}
	var at time.Duration
	if err := net.Attach(tele, nil); err != nil {
		t.Fatal(err)
	}
	if err := net.Attach(foreign, func(netip.Addr, int, any) { at = eng.Now() }); err != nil {
		t.Fatal(err)
	}
	net.Send(tele, foreign.Addr, 11040, nil)
	if err := eng.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if got := at - pairOWD(net, tele, foreign); got > time.Millisecond {
		t.Errorf("penalty applied despite being disabled: %v", got)
	}
}
