package core

// Tests for the scaled partition (Scenario.Shards > simnet.DefaultShards):
// full-fidelity runs must complete across TELE sub-shards with the
// infrastructure domain hosting bootstrap/trackers/sources, the trajectory
// must be worker-count invariant (Scenario.Workers decouples goroutines from
// the partition degree), and kill-churn faults must draw from the owning
// sub-shard's RNG so the same peers die at every worker count.

import (
	"testing"
	"time"

	"pplivesim/internal/fault"
	"pplivesim/internal/workload"
)

// scaledSummary captures everything a scaled-partition equivalence check
// compares across worker counts.
type scaledSummary struct {
	digest     uint64
	events     uint64
	spawned    int
	continuity float64
}

func runScaled(t *testing.T, sc Scenario, shards, workers int) scaledSummary {
	t.Helper()
	realWorkers(t, workers)
	sc.Shards = shards
	sc.Workers = workers
	res, err := RunScenario(sc)
	if err != nil {
		t.Fatalf("shards %d workers %d: %v", shards, workers, err)
	}
	return scaledSummary{
		digest:     goldenDigest(t, res),
		events:     res.EventsProcessed,
		spawned:    res.PeersSpawned,
		continuity: res.Probes[0].Client.BufferStats().Continuity(),
	}
}

// TestScaledPartitionEquivalence runs the small churning scenario on a
// 12-domain scaled partition (7 TELE sub-shards + infra) and demands the
// trajectory be identical at 1 and 4 workers, and at the Workers=0 default
// (Workers = Shards = 12, which eventsim.Group caps at GOMAXPROCS). The
// digest differs from the legacy-partition goldens — the scaled partition
// widens the synthetic lookahead, which is the point — but it must be a pure
// function of the partition, never of the worker count.
func TestScaledPartitionEquivalence(t *testing.T) {
	sc := smallScenario(7)
	sc.Name = "scaled-equivalence"
	sc.Churn = workload.DefaultChurn()

	s1 := runScaled(t, sc, 12, 1)
	s4 := runScaled(t, sc, 12, 4)
	if s1 != s4 {
		t.Errorf("scaled partition diverges across workers:\n  1 worker : %+v\n  4 workers: %+v", s1, s4)
	}
	if s0 := runScaled(t, sc, 12, 0); s0 != s1 {
		t.Errorf("scaled partition diverges at the default worker count:\n  1 worker : %+v\n  default  : %+v", s1, s0)
	}
	if s1.continuity < 0.9 {
		t.Errorf("scaled-partition continuity = %.3f, want >= 0.9 (probe must stream normally across sub-shards)", s1.continuity)
	}
}

// TestScaledKillChurnEquivalence injects an abrupt kill-churn fault into a
// scaled partition: each TELE sub-shard draws its kills from its own RNG
// stream, so the set of killed peers — and everything downstream — must be
// identical at any worker count.
func TestScaledKillChurnEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario-scale test")
	}
	sc := smallScenario(7)
	sc.Name = "scaled-kill-churn"
	sc.Churn = workload.DefaultChurn()
	sc.Faults = &fault.Schedule{
		PeerKills: []fault.PeerKill{{At: sc.WarmUp + 2*time.Minute, Fraction: 0.2}},
	}

	s1 := runScaled(t, sc, 12, 1)
	s4 := runScaled(t, sc, 12, 4)
	if s1 != s4 {
		t.Errorf("scaled kill-churn diverges across workers:\n  1 worker : %+v\n  4 workers: %+v", s1, s4)
	}
}
