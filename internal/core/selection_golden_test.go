package core

import (
	"testing"
	"time"

	"pplivesim/internal/isp"
	"pplivesim/internal/selection"
	"pplivesim/internal/workload"
)

// TestBiasedGoldenDigest pins the exact trajectory of a quota-biased run —
// the fifth golden, guarding the engineered-locality code paths the four
// legacy goldens cannot see (policy-shaped tracker replies and referrals).
// Biased policies draw only from the owning domain's RNG stream, so the
// digest must hold at every worker count just like the others (the CI
// locality lane runs this at 1 and 4 workers via PPLIVE_SHARD_WORKERS).
func TestBiasedGoldenDigest(t *testing.T) {
	sc := smallScenario(7)
	sc.Name = "golden-biased"
	sc.Churn = workload.DefaultChurn()
	sc.Selection = selection.Spec{Kind: selection.KindQuota, MaxInterFrac: 0.25}
	sc.Shards = goldenWorkers(t)
	res, err := RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	const want uint64 = 0x391bc95a936e0565
	if got := goldenDigest(t, res); got != want {
		t.Errorf("biased digest = %#x, want %#x (quota-selection trajectory changed vs the pinned baseline)", got, want)
	}
}

// TestBiasedSelectionWorkerInvariance runs a two-ISP quota scenario at 1 and
// 4 workers in-process and requires bit-identical trajectories: the biased
// reply composition must be a pure function of (candidate set, requester,
// owning-domain RNG stream), never of which goroutine executed the window.
func TestBiasedSelectionWorkerInvariance(t *testing.T) {
	realWorkers(t, 4)
	build := func(workers int) Scenario {
		return Scenario{
			Name: "two-isp-quota",
			Seed: 11,
			Spec: workload.PopularSpec(),
			Viewers: workload.Population{
				isp.TELE: 30,
				isp.CNC:  20,
			},
			Selection:     selection.Spec{Kind: selection.KindQuota, MaxInterFrac: 0.2},
			Probes:        []ProbeSpec{{Name: "tele-probe", ISP: isp.TELE, FullCapture: true}},
			ArrivalWindow: 2 * time.Minute,
			WarmUp:        3 * time.Minute,
			Watch:         4 * time.Minute,
			Shards:        workers,
		}
	}
	digests := make(map[int]uint64)
	for _, workers := range []int{1, 4} {
		res, err := RunScenario(build(workers))
		if err != nil {
			t.Fatal(err)
		}
		digests[workers] = goldenDigest(t, res)
	}
	if digests[1] != digests[4] {
		t.Errorf("quota trajectory varies with workers: 1 worker %#x, 4 workers %#x", digests[1], digests[4])
	}
}
