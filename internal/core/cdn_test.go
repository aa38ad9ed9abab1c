package core

import (
	"testing"
	"time"

	"pplivesim/internal/cdn"
	"pplivesim/internal/fault"
	"pplivesim/internal/isp"
	"pplivesim/internal/peer"
	"pplivesim/internal/workload"
)

// cdnScenario is the pinned hybrid CDN+P2P workload: the small swarm with a
// 3× flash crowd at an event start, three edge caches (two TELE, one CNC),
// a source crash the edges must absorb, and one edge crash on top.
func cdnScenario(seed int64) Scenario {
	sc := smallScenario(seed)
	sc.Name = "test-cdn"
	sc.FlashCrowd = workload.FlashCrowd{
		Enabled:    true,
		Channel:    0,
		At:         4 * time.Minute,
		Multiplier: 3,
		Window:     90 * time.Second,
	}
	sc.CDN = &cdn.Config{Placements: []cdn.Placement{
		{ISP: isp.TELE, Count: 2},
		{ISP: isp.CNC, Count: 1},
	}}
	sc.Faults = &fault.Schedule{
		SourceCrashes: []fault.SourceCrash{{Channel: 0, At: 5 * time.Minute, Recover: 6 * time.Minute}},
		EdgeCrashes:   []fault.EdgeCrash{{Edge: 1, At: 6*time.Minute + 30*time.Second, Recover: 7 * time.Minute}},
	}
	return sc
}

// TestCDNScenarioValidation exercises the CDN and flash-crowd checks through
// the scenario path.
func TestCDNScenarioValidation(t *testing.T) {
	sc := smallScenario(1)
	sc.CDN = &cdn.Config{Placements: []cdn.Placement{
		{ISP: isp.TELE, Count: 1}, {ISP: isp.TELE, Count: 1},
	}}
	if _, err := Build(sc); err == nil {
		t.Error("duplicate-ISP CDN placement accepted")
	}

	sc = smallScenario(1)
	sc.FlashCrowd = workload.DefaultFlashCrowd(4 * time.Minute)
	sc.FlashCrowd.Channel = 1 // single-channel scenario
	if _, err := Build(sc); err == nil {
		t.Error("out-of-range flash-crowd channel accepted")
	}

	sc = smallScenario(1)
	sc.Fidelity = peer.FidelityFlow
	sc.FlashCrowd = workload.DefaultFlashCrowd(4 * time.Minute)
	if _, err := Build(sc); err == nil {
		t.Error("flash crowd under flow fidelity accepted")
	}

	sc = smallScenario(1)
	sc.Faults = &fault.Schedule{
		EdgeCrashes: []fault.EdgeCrash{{Edge: 0, At: time.Minute, Recover: 2 * time.Minute}},
	}
	if _, err := Build(sc); err == nil {
		t.Error("edge crash accepted with no edges deployed")
	}

	sc = cdnScenario(1)
	sc.Faults.EdgeCrashes[0].Edge = 3 // only three edges deployed
	if _, err := Build(sc); err == nil {
		t.Error("out-of-range edge-crash index accepted")
	}
}
