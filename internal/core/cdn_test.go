package core

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"pplivesim/internal/analysis"
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

// TestCDNGoldenDigest pins the exact trajectory of the hybrid CDN+P2P run —
// the sixth golden, guarding edge discovery, urgent fallback, flash-crowd
// spawning, and edge fault handling. Flash-crowd arrivals draw from the
// owning domain's RNG stream and edge failure tracking uses only fixed
// constants plus hash-derived jitter, so the digest must hold at every
// worker count just like the other five (the CI cdn lane runs this at 1 and
// 4 workers via PPLIVE_SHARD_WORKERS).
func TestCDNGoldenDigest(t *testing.T) {
	sc := cdnScenario(7)
	sc.Shards = goldenWorkers(t)
	res, err := RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	// Verified identical at 1 and 4 workers before pinning.
	const want uint64 = 0x61632ce640b71d9f
	if got := goldenDigest(t, res); got != want {
		t.Errorf("cdn digest = %#x, want %#x (hybrid CDN+P2P trajectory changed vs the pinned baseline)", got, want)
	}

	if len(res.Edges) != 3 || len(res.EdgeStats) != 3 {
		t.Fatalf("edges = %d, stats = %d, want 3 each", len(res.Edges), len(res.EdgeStats))
	}
	var served uint64
	for _, es := range res.EdgeStats {
		served += es.Served
	}
	if served == 0 {
		t.Error("no edge served a single request through a flash crowd and a source crash")
	}

	// The probe must have pulled urgent bytes from the edges, and those bytes
	// must surface in the dedicated edge tallies — with the streaming and
	// post-hoc telemetry paths in byte-for-byte agreement about it.
	p := res.Probes[0]
	streaming, err := res.ProbeReport(0)
	if err != nil {
		t.Fatal(err)
	}
	if streaming.EdgeBytes == 0 || streaming.EdgeTransmissions == 0 {
		t.Errorf("probe edge tallies = (%d, %d), want edge traffic during the crash window",
			streaming.EdgeTransmissions, streaming.EdgeBytes)
	}
	postHoc := analysis.Analyze(analysis.Input{
		Records:  p.Recorder.Records(),
		Resolver: res.Registry,
		Trackers: res.Trackers,
		Source:   p.Source,
		Edges:    res.Edges,
		ProbeISP: p.ISP,
	})
	got, _ := json.Marshal(streaming)
	wantJSON, _ := json.Marshal(postHoc)
	if !bytes.Equal(got, wantJSON) {
		t.Errorf("streaming report differs from post-hoc on the CDN run\nstreaming: %s\npost-hoc:  %s", got, wantJSON)
	}
}

// TestFlashCrowdWorkerInvariance runs a two-ISP flash-crowd scenario with
// edges at 1 and 4 workers in-process and requires bit-identical
// trajectories: the spike split is deterministic per (category, domain) and
// each arrival offset draws from the owning domain's RNG stream, never from
// a shared one, so the trajectory cannot depend on which goroutine executes
// a domain's window.
func TestFlashCrowdWorkerInvariance(t *testing.T) {
	realWorkers(t, 4)
	build := func(workers int) Scenario {
		return Scenario{
			Name: "two-isp-flash",
			Seed: 11,
			Spec: workload.PopularSpec(),
			Viewers: workload.Population{
				isp.TELE: 30,
				isp.CNC:  20,
			},
			FlashCrowd: workload.FlashCrowd{
				Enabled:    true,
				Channel:    0,
				At:         3*time.Minute + 30*time.Second,
				Multiplier: 3,
				Window:     time.Minute,
			},
			CDN: &cdn.Config{Placements: []cdn.Placement{
				{ISP: isp.TELE, Count: 1},
				{ISP: isp.CNC, Count: 1},
			}},
			Faults: &fault.Schedule{
				SourceCrashes: []fault.SourceCrash{{Channel: 0, At: 4 * time.Minute, Recover: 4*time.Minute + 40*time.Second}},
			},
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
		t.Errorf("flash-crowd trajectory varies with workers: 1 worker %#x, 4 workers %#x", digests[1], digests[4])
	}
}

// TestCDNTakeoverRecovery is the takeover counterpart of
// TestSourceCrashRecovery: the same source crash, but with edge caches
// deployed. Their out-of-band ingest clocks keep running while the origin is
// silent, so urgent misses fall back to the edges and the probe's playback
// must stay far healthier than the edge-less baseline (which dips below
// 0.9 by TestSourceCrashRecovery's assertion).
func TestCDNTakeoverRecovery(t *testing.T) {
	sc := smallScenario(11)
	sc.Name = "test-cdn-takeover"
	crashAt, crashFor := 5*time.Minute, time.Minute
	sc.CDN = &cdn.Config{Placements: []cdn.Placement{
		{ISP: isp.TELE, Count: 2},
		{ISP: isp.CNC, Count: 1},
	}}
	sc.Faults = &fault.Schedule{
		SourceCrashes: []fault.SourceCrash{{Channel: 0, At: crashAt, Recover: crashAt + crashFor}},
	}
	res, err := RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := res.ProbeResilience(0, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	w := rep.Windows[0]
	t.Logf("with edges: min continuity %.3f, dip depth %.3f, recovered %v", w.MinContinuity, w.DipDepth, w.Recovered)
	if w.MinContinuity < 0.9 {
		t.Errorf("min continuity %.3f through a source crash with edges deployed, want >= 0.9 (takeover failed)", w.MinContinuity)
	}
	if w.DipDepth > 0 && !w.Recovered {
		t.Errorf("continuity dipped and never recovered despite edge takeover")
	}

	// The takeover must show up in the edge counters: the swarm pulled from
	// the caches while the origin was down.
	var served uint64
	for _, es := range res.EdgeStats {
		served += es.Served
	}
	if served == 0 {
		t.Error("edges served nothing through the source crash")
	}
}
