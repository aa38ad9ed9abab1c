package core

import (
	"testing"

	"pplivesim/internal/capture"
	"pplivesim/internal/isp"
	"pplivesim/internal/workload"
)

// TestShardEquivalence is the sharding tentpole's guard: Scenario.Shards
// chooses how many worker goroutines execute the per-domain event loops, and
// must change nothing else. Each seed runs the same churning scenario
// single-threaded and with 4 workers and demands identical full-trace
// digests, event counts, and derived experiment metrics (continuity and
// per-ISP traffic split). Any cross-shard ordering leak — a message crossing
// a window boundary, a domain draining in worker order instead of domain
// order — shows up here as a digest mismatch.
//
// In -short mode (CI's race-detector lane) one seed still runs with 4
// workers, so the parallel barrier/flush machinery is exercised under the
// race detector on every CI push.
func TestShardEquivalence(t *testing.T) {
	realWorkers(t, 4)
	seeds := []int64{7, 11, 23}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		sc := smallScenario(seed)
		sc.Name = "shard-equivalence"
		sc.Churn = workload.DefaultChurn() // respawns cross domains via tracker re-query

		type summary struct {
			digest     uint64
			events     uint64
			spawned    int
			continuity float64
			teleBytes  uint64
			totalBytes uint64
		}
		run := func(workers int) summary {
			s := sc
			s.Shards = workers
			res, err := RunScenario(s)
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			p := res.Probes[0]
			m := capture.Match(p.Recorder.Records(), res.Trackers)
			var teleBytes, totalBytes uint64
			for _, tx := range m.Transmissions {
				if tx.Peer == res.SourceAddr {
					continue
				}
				got, ok := res.Registry.ISPOf(tx.Peer)
				if !ok {
					t.Fatalf("seed %d workers %d: unresolvable peer %v", seed, workers, tx.Peer)
				}
				totalBytes += uint64(tx.Bytes)
				if got == isp.TELE {
					teleBytes += uint64(tx.Bytes)
				}
			}
			return summary{
				digest:     goldenDigest(t, res),
				events:     res.EventsProcessed,
				spawned:    res.PeersSpawned,
				continuity: p.Client.BufferStats().Continuity(),
				teleBytes:  teleBytes,
				totalBytes: totalBytes,
			}
		}

		s1 := run(1)
		s4 := run(4)
		if s1 != s4 {
			t.Errorf("seed %d: 1-worker and 4-worker runs diverge:\n  1 worker : %+v\n  4 workers: %+v", seed, s1, s4)
		}
	}
}
