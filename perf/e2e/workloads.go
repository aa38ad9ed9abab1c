package main

import (
	"math"
	"time"

	"pplivesim/internal/cdn"
	"pplivesim/internal/core"
	"pplivesim/internal/fault"
	"pplivesim/internal/isp"
	"pplivesim/internal/peer"
	"pplivesim/internal/selection"
	"pplivesim/internal/workload"
)

// workloadDef is one pinned scenario of the ledger. The scenario is a pure
// function of (seed, size): the simulator receives only the generated
// Scenario, never the workload name. size 1 is the measured workload;
// smaller sizes shrink audience and watch span for the smoke test.
type workloadDef struct {
	name string
	// why is the one-line reason recorded in BENCHMARK.json.
	why      string
	scenario func(seed int64, size float64) core.Scenario
	// flowMembers is the live flow-member floor at size 1 (flow_million).
	flowMembers int
	// cdn marks the workload whose edges must serve and whose source-crash
	// window must be reported.
	cdn bool
}

var probesThree = []core.ProbeSpec{
	{Name: "tele", ISP: isp.TELE},
	{Name: "cnc", ISP: isp.CNC},
	{Name: "mason", ISP: isp.Foreign},
}

// scaled scales a duration by size, keeping whole seconds so slice sampling
// and fault windows stay aligned.
func scaled(d time.Duration, size float64) time.Duration {
	s := math.Round(d.Seconds() * size)
	if s < 1 {
		s = 1
	}
	return time.Duration(s) * time.Second
}

func base(name string, seed int64) core.Scenario {
	return core.Scenario{
		Name:  name,
		Seed:  seed,
		Spec:  workload.PopularSpec(),
		Churn: workload.DefaultChurn(),
	}
}

// flowPopulation is the million-member audience of flow_million at size 1.
func flowPopulation(size float64) workload.Population {
	return workload.Population{
		isp.TELE:    700_000,
		isp.CNC:     200_000,
		isp.CER:     30_000,
		isp.OtherCN: 70_000,
		isp.Foreign: 50_000,
	}.Scale(size)
}

var workloads = []workloadDef{
	{
		name: "popular_mixed",
		why:  "Path of every figure and golden: batched background sessions on the legacy 6-ISP partition, one goroutine; session handlers, scheduler, underlay and event queue dominate.",
		scenario: func(seed int64, size float64) core.Scenario {
			sc := base("popular_mixed", seed)
			sc.Viewers = workload.PopularPopulation().Scale(0.12 * size)
			sc.Fidelity = peer.FidelityMixed
			sc.Shards = 1
			sc.Probes = probesThree
			sc.ArrivalWindow = 90 * time.Second
			sc.WarmUp = 2 * time.Minute
			sc.Watch = scaled(mixedWatch, size)
			return sc
		},
	},
	{
		name: "popular_full_sharded",
		why:  "Per-sub-piece fidelity for every viewer on the scaled 12-shard partition with 2 workers: the only workload with the Group barrier and shard imbalance on the blocking path.",
		scenario: func(seed int64, size float64) core.Scenario {
			sc := base("popular_full_sharded", seed)
			sc.Viewers = workload.PopularPopulation().Scale(0.12 * size)
			sc.Fidelity = peer.FidelityFull
			sc.Shards = 12
			sc.Workers = 2
			sc.Probes = probesThree
			sc.ArrivalWindow = time.Minute
			sc.WarmUp = 90 * time.Second
			sc.Watch = scaled(fullWatch, size)
			return sc
		},
	},
	{
		name:        "flow_million",
		why:         "A million flow-fidelity members: few events, many near-empty windows, work in FlowSwarm.Tick and the per-barrier fold; memory-bound. Session-handler changes must not move it.",
		flowMembers: 1_000_000,
		scenario: func(seed int64, size float64) core.Scenario {
			sc := base("flow_million", seed)
			sc.Viewers = flowPopulation(size)
			sc.Fidelity = peer.FidelityFlow
			sc.Shards = 12
			sc.Workers = 1
			sc.Probes = probesThree[:1]
			sc.ArrivalWindow = 2 * time.Minute
			sc.WarmUp = 3 * time.Minute
			sc.Watch = scaled(flowWatch, size)
			return sc
		},
	},
	{
		name: "cdn_flashcrowd",
		why:  "Join burst (bootstrap, tracker quota replies, handshakes) beside steady streaming, with the resilience fork armed, CDN edges serving and shedding, and a source crash.",
		cdn:  true,
		scenario: func(seed int64, size float64) core.Scenario {
			sc := base("cdn_flashcrowd", seed)
			sc.Viewers = workload.PopularPopulation().Scale(0.05 * size)
			sc.Fidelity = peer.FidelityMixed
			sc.Shards = 1
			sc.Probes = probesThree
			sc.Selection = selection.Spec{Kind: selection.KindQuota, MaxInterFrac: 0.25}
			sc.ArrivalWindow = 2 * time.Minute
			sc.WarmUp = 3 * time.Minute
			sc.Watch = scaled(cdnWatch, size)
			// The burst starts a third into the watch and the source dies
			// once the burst has landed, as in the cdn-offload experiment.
			burst := scaled(cdnWatch/4, size)
			sc.FlashCrowd = workload.FlashCrowd{
				Enabled:    true,
				At:         sc.WarmUp + sc.Watch/3,
				Multiplier: 3,
				Window:     burst,
			}
			crashAt := sc.FlashCrowd.At + burst
			sc.Faults = &fault.Schedule{
				SourceCrashes: []fault.SourceCrash{{Channel: 0, At: crashAt, Recover: crashAt + burst/2}},
			}
			// Thin edge uplinks, so the burst saturates them and the Busy-shed
			// path carries real traffic at this audience size.
			sc.CDN = &cdn.Config{Placements: []cdn.Placement{
				{ISP: isp.TELE, Count: 2, UplinkBps: edgeUplinkBps},
				{ISP: isp.CNC, Count: 1, UplinkBps: edgeUplinkBps},
			}}
			return sc
		},
	},
}

// Watch spans at size 1, sized so one repetition takes a few seconds on two
// shared cores and three repetitions fit the contract's run length.
const (
	mixedWatch = 150 * time.Second
	fullWatch  = 60 * time.Second
	flowWatch  = 15 * time.Minute
	cdnWatch   = 150 * time.Second
)

// edgeUplinkBps is each cdn_flashcrowd edge's uplink in bytes per second.
const edgeUplinkBps = 256 << 10

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
