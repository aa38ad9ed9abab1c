package fault

import (
	"math"
	"strings"
	"testing"
	"time"

	"pplivesim/internal/isp"
)

func TestValidateRejectsMalformedSchedules(t *testing.T) {
	horizon := 10 * time.Minute
	cases := []struct {
		name string
		s    Schedule
	}{
		{"source channel out of range", Schedule{SourceCrashes: []SourceCrash{{Channel: 2, At: time.Minute, Recover: 2 * time.Minute}}}},
		{"empty window", Schedule{SourceCrashes: []SourceCrash{{Channel: 0, At: time.Minute, Recover: time.Minute}}}},
		{"beyond horizon", Schedule{SourceCrashes: []SourceCrash{{Channel: 0, At: 11 * time.Minute, Recover: 12 * time.Minute}}}},
		{"tracker group out of range", Schedule{TrackerOutages: []TrackerOutage{{Group: 5, At: time.Minute, Recover: 2 * time.Minute}}}},
		{"link fault same ISP", Schedule{LinkFaults: []LinkFault{{A: isp.TELE, B: isp.TELE, At: time.Minute, Recover: 2 * time.Minute}}}},
		{"loss out of range", Schedule{LinkFaults: []LinkFault{{A: isp.TELE, B: isp.CNC, AddLoss: 1.5, At: time.Minute, Recover: 2 * time.Minute}}}},
		{"burst loss out of range", Schedule{BurstLosses: []BurstLoss{{Loss: -0.1, At: time.Minute, Recover: 2 * time.Minute}}}},
		{"kill fraction out of range", Schedule{PeerKills: []PeerKill{{Fraction: 1.5, At: time.Minute}}}},
		{"link fault NaN loss", Schedule{LinkFaults: []LinkFault{{A: isp.TELE, B: isp.CNC, AddLoss: math.NaN(), At: time.Minute, Recover: 2 * time.Minute}}}},
		{"burst loss NaN", Schedule{BurstLosses: []BurstLoss{{Loss: math.NaN(), At: time.Minute, Recover: 2 * time.Minute}}}},
		{"kill fraction NaN", Schedule{PeerKills: []PeerKill{{Fraction: math.NaN(), At: time.Minute}}}},
		{"kill beyond horizon", Schedule{PeerKills: []PeerKill{{Fraction: 0.5, At: 11 * time.Minute}}}},
		{"edge crash out of range", Schedule{EdgeCrashes: []EdgeCrash{{Edge: 3, At: time.Minute, Recover: 2 * time.Minute}}}},
		{"edge crash with no edges", Schedule{EdgeCrashes: []EdgeCrash{{Edge: -1, At: time.Minute, Recover: 2 * time.Minute}}}},
		{"edge crash empty window", Schedule{EdgeCrashes: []EdgeCrash{{Edge: 0, At: time.Minute, Recover: time.Minute}}}},
	}
	for _, c := range cases {
		edges := 0
		if c.name == "edge crash out of range" || c.name == "edge crash empty window" {
			edges = 2
		}
		if err := c.s.Validate(2, 2, edges, horizon); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestValidateAcceptsAllTrackerGroups(t *testing.T) {
	s := Schedule{TrackerOutages: []TrackerOutage{{Group: -1, At: time.Minute, Recover: 2 * time.Minute}}}
	if err := s.Validate(1, 3, 0, 10*time.Minute); err != nil {
		t.Errorf("Group -1 (all) rejected: %v", err)
	}
}

func TestValidateAcceptsAllEdges(t *testing.T) {
	s := Schedule{EdgeCrashes: []EdgeCrash{{Edge: -1, At: time.Minute, Recover: 2 * time.Minute}}}
	if err := s.Validate(1, 1, 2, 10*time.Minute); err != nil {
		t.Errorf("Edge -1 (all) rejected: %v", err)
	}
	ws := s.Windows()
	if len(ws) != 1 || ws[0].Label != "edge-crash(all)" {
		t.Errorf("Windows() = %+v, want one edge-crash(all)", ws)
	}
}

func TestWindowsCoverEveryFault(t *testing.T) {
	s := Schedule{
		SourceCrashes:  []SourceCrash{{Channel: 0, At: 1 * time.Minute, Recover: 2 * time.Minute}},
		TrackerOutages: []TrackerOutage{{Group: -1, At: 2 * time.Minute, Recover: 3 * time.Minute}},
		LinkFaults: []LinkFault{
			{A: isp.TELE, B: isp.CNC, AddLoss: 0.2, At: 3 * time.Minute, Recover: 4 * time.Minute},
			{A: isp.TELE, B: isp.Foreign, Partition: true, At: 3 * time.Minute, Recover: 4 * time.Minute},
		},
		BurstLosses: []BurstLoss{{Loss: 0.1, At: 4 * time.Minute, Recover: 5 * time.Minute}},
		PeerKills:   []PeerKill{{ISP: isp.TELE, Fraction: 0.25, At: 6 * time.Minute}},
	}
	ws := s.Windows()
	if len(ws) != 6 {
		t.Fatalf("Windows() = %d entries, want 6", len(ws))
	}
	wants := []string{"source-crash", "tracker-outage(all)", "link-degrade", "partition", "burst-loss", "kill"}
	for i, want := range wants {
		if !strings.Contains(ws[i].Label, want) {
			t.Errorf("window %d label %q, want ~%q", i, ws[i].Label, want)
		}
	}
	// Instantaneous faults collapse to a point window.
	if last := ws[len(ws)-1]; last.Start != last.End || last.Start != 6*time.Minute {
		t.Errorf("kill window = [%s, %s], want point at 6m", last.Start, last.End)
	}
}

func TestPresetsValidateAndLandInWatch(t *testing.T) {
	warmUp, watch := 3*time.Minute, 6*time.Minute
	for _, name := range PresetNames() {
		s, err := Preset(name, warmUp, watch)
		if err != nil {
			t.Errorf("preset %q: %v", name, err)
			continue
		}
		if len(s.Windows()) == 0 {
			t.Errorf("preset %q is empty", name)
		}
		if err := s.Validate(1, 1, 0, warmUp+watch); err != nil {
			t.Errorf("preset %q fails validation: %v", name, err)
		}
		for _, w := range s.Windows() {
			if w.Start < warmUp || w.Start >= warmUp+watch {
				t.Errorf("preset %q window %q starts at %s, outside the watch", name, w.Label, w.Start)
			}
		}
	}
	if _, err := Preset("no-such-preset", warmUp, watch); err == nil {
		t.Error("unknown preset accepted")
	}
}

func TestSampleEveryDefault(t *testing.T) {
	var s Schedule
	if got := s.SampleEvery(); got != DefaultSampleInterval {
		t.Errorf("SampleEvery() = %s, want default %s", got, DefaultSampleInterval)
	}
	s.SampleInterval = 5 * time.Second
	if got := s.SampleEvery(); got != 5*time.Second {
		t.Errorf("SampleEvery() = %s, want 5s", got)
	}
}
