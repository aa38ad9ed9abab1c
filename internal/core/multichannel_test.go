package core

import (
	"testing"
	"time"

	"pplivesim/internal/isp"
	"pplivesim/internal/workload"
)

// twoChannelScenario is the reference multi-channel run: a TELE-heavy popular
// channel and a small, CNC-tilted unpopular one share the bootstrap and
// tracker groups, with distinct sources, a TELE probe pinned to each, and a
// third of the audience browsing between them on short dwells (sized so a
// sub-ten-minute run still sees plenty of switches).
func twoChannelScenario(seed int64) Scenario {
	return Scenario{
		Name: "test-two-channel",
		Seed: seed,
		Channels: []ChannelSpec{
			{
				Spec: workload.PopularSpec(),
				Viewers: workload.Population{
					isp.TELE:    40,
					isp.CNC:     18,
					isp.CER:     4,
					isp.OtherCN: 6,
					isp.Foreign: 8,
				},
			},
			{
				Spec: workload.UnpopularSpec(),
				Viewers: workload.Population{
					isp.TELE:    10,
					isp.CNC:     14,
					isp.CER:     2,
					isp.OtherCN: 4,
					isp.Foreign: 2,
				},
			},
		},
		Switching: workload.Switching{
			Enabled:          true,
			SwitcherFraction: 0.35,
			MedianDwell:      2 * time.Minute,
			SigmaDwell:       0.7,
			MinDwell:         20 * time.Second,
		},
		Churn: workload.Churn{Enabled: false},
		// Full capture: these tests read the raw trace via Recorder.
		Probes: []ProbeSpec{
			{Name: "tele-popular", ISP: isp.TELE, Channel: workload.PopularSpec().Channel, FullCapture: true},
			{Name: "tele-unpopular", ISP: isp.TELE, Channel: workload.UnpopularSpec().Channel, FullCapture: true},
		},
		ArrivalWindow: 2 * time.Minute,
		WarmUp:        3 * time.Minute,
		Watch:         6 * time.Minute,
	}
}

// probeLocality computes a probe's traffic locality (same-ISP share of bytes
// downloaded from regular peers) and continuity from its captured trace,
// excluding the probe's own channel source — the per-channel analog of the
// paper's methodology.
func probeLocality(t *testing.T, res *Result, p ProbeResult) (locality, continuity float64) {
	t.Helper()
	m := match(p.Recorder.Records(), res.Trackers)
	var sameISP, total uint64
	for _, tx := range m.Transmissions {
		if tx.Peer == p.Source {
			continue
		}
		got, ok := res.Registry.ISPOf(tx.Peer)
		if !ok {
			t.Fatalf("probe %s: unresolvable peer %v", p.Name, tx.Peer)
		}
		total += uint64(tx.Bytes)
		if got == p.ISP {
			sameISP += uint64(tx.Bytes)
		}
	}
	if total == 0 {
		t.Fatalf("probe %s downloaded nothing from peers", p.Name)
	}
	return float64(sameISP) / float64(total), p.Client.BufferStats().Continuity()
}

// checkTwoChannelSwitching is the multi-channel behaviour check: a popular
// and an unpopular channel run concurrently with channel-browsing viewers, a
// healthy share of the audience actually switches, both probes stream
// acceptably, and the popular channel's traffic locality is at least the
// unpopular one's — the paper's Fig. 5 contrast (locality tracks the same-ISP
// peer supply, which the unpopular channel lacks).
func checkTwoChannelSwitching(t *testing.T, res *Result) {
	sc := res.Scenario
	if len(res.Channels) != 2 {
		t.Fatalf("channels = %d, want 2", len(res.Channels))
	}
	if res.Channels[0].Source == res.Channels[1].Source {
		t.Error("channels share a source address")
	}

	initial := 0
	for _, ch := range sc.Channels {
		initial += ch.Viewers.Total()
	}
	if res.Switches == 0 {
		t.Fatal("no channel switches happened")
	}
	if res.Switchers*10 < initial {
		t.Errorf("switchers = %d of %d initial viewers, want >= 10%%", res.Switchers, initial)
	}
	t.Logf("switchers %d/%d, switch events %d", res.Switchers, initial, res.Switches)

	var popLoc, unpopLoc float64
	for _, p := range res.Probes {
		// Probes are pinned to their channel: they must never switch, exactly
		// like the paper's measurement hosts, which watched one program per
		// trace.
		if p.Client.Stats().ChannelSwitches != 0 {
			t.Errorf("probe %s switched channels", p.Name)
		}
		loc, cont := probeLocality(t, res, p)
		t.Logf("probe %s (channel %d): locality %.3f, continuity %.3f", p.Name, p.Channel, loc, cont)
		if cont < 0.7 {
			t.Errorf("probe %s continuity %.3f, want >= 0.7", p.Name, cont)
		}
		switch p.Name {
		case "tele-popular":
			popLoc = loc
		case "tele-unpopular":
			unpopLoc = loc
		}
	}
	if popLoc < unpopLoc {
		t.Errorf("popular-channel locality %.3f below unpopular %.3f, want the Fig. 5 contrast", popLoc, unpopLoc)
	}
}
