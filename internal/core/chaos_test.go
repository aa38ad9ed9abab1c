package core

import (
	"testing"
	"time"

	"pplivesim/internal/fault"
	"pplivesim/internal/isp"
	"pplivesim/internal/workload"
)

// chaosScenario is the pinned chaos workload: the small churn scenario with a
// fixed multi-fault schedule — source crash, one tracker group out, TELE-CNC
// transit degradation, and a 20% kill — staggered through the watch window.
func chaosScenario(seed int64) Scenario {
	sc := smallScenario(seed)
	sc.Name = "test-chaos"
	sc.Churn = workload.DefaultChurn()
	sc.Faults = &fault.Schedule{
		SourceCrashes:  []fault.SourceCrash{{Channel: 0, At: 4 * time.Minute, Recover: 5 * time.Minute}},
		TrackerOutages: []fault.TrackerOutage{{Group: 0, At: 5 * time.Minute, Recover: 6 * time.Minute}},
		LinkFaults: []fault.LinkFault{{
			A: isp.TELE, B: isp.CNC,
			At: 6 * time.Minute, Recover: 6*time.Minute + 30*time.Second,
			AddLoss: 0.2, AddDelay: 60 * time.Millisecond,
		}},
		PeerKills: []fault.PeerKill{{Fraction: 0.2, At: 7 * time.Minute}},
	}
	return sc
}

// TestChaosValidation exercises the schedule checks through the scenario path.
func TestChaosValidation(t *testing.T) {
	sc := smallScenario(1)
	sc.Faults = &fault.Schedule{
		SourceCrashes: []fault.SourceCrash{{Channel: 3, At: time.Minute, Recover: 2 * time.Minute}},
	}
	if _, err := Build(sc); err == nil {
		t.Error("out-of-range source-crash channel accepted")
	}
	sc = smallScenario(1)
	sc.Faults = &fault.Schedule{
		PeerKills: []fault.PeerKill{{Fraction: 1.5, At: time.Minute}},
	}
	if _, err := Build(sc); err == nil {
		t.Error("kill fraction above 1 accepted")
	}
}
