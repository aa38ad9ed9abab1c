// Package pplive is a from-scratch reproduction of the system studied in
// "A Case Study of Traffic Locality in Internet P2P Live Streaming Systems"
// (ICDCS 2009): a PPLive-style P2P live-streaming network — bootstrap and
// tracker servers, stream sources, and clients with decentralized,
// latency-based, neighbor-referral peer selection — running over a
// discrete-event underlay simulator with ISP-level latency regimes, plus
// the measurement and analysis apparatus the paper used (probe-side packet
// capture, trace matching, IP→ASN resolution, locality and rank-distribution
// statistics).
//
// The top-level API runs scenarios and analyzes probe traces:
//
//	sc := pplive.PopularScenario(42, 0.03) // seed, population scale
//	sc.Probes = []pplive.ProbeSpec{{Name: "tele", ISP: pplive.TELE}}
//	res, err := pplive.RunScenario(sc)
//	rep, err := pplive.AnalyzeProbe(res, 0)
//	fmt.Println(rep.TrafficLocality > rep.PotentialLocality)
//
// ExampleRunScenario is this snippet in full, and `go test` runs it.
//
// Experiment presets mirroring every figure and table of the paper are the
// rows of internal/experiments.Sections; `cmd/experiments` regenerates them
// all.
package pplive

import (
	"time"

	"pplivesim/internal/analysis"
	"pplivesim/internal/core"
	"pplivesim/internal/fault"
	"pplivesim/internal/isp"
	"pplivesim/internal/peer"
	"pplivesim/internal/selection"
	"pplivesim/internal/workload"
)

// Re-exported orchestration types. These alias the implementation types so
// the whole public surface lives in this package.
type (
	// Scenario fully describes one simulation run.
	Scenario = core.Scenario
	// ProbeSpec places one instrumented measurement client.
	ProbeSpec = core.ProbeSpec
	// Behaviour toggles mechanism ablations.
	Behaviour = core.Behaviour
	// Result is a completed run: probe traces plus resolution context.
	Result = core.Result
	// ProbeResult is one probe's captured trace.
	ProbeResult = core.ProbeResult
	// ChannelSpec is one channel of a multi-channel scenario: its stream
	// spec plus its initial audience.
	ChannelSpec = core.ChannelSpec
	// ChannelResult summarises one channel of a completed run.
	ChannelResult = core.ChannelResult
	// Population is the per-ISP concurrent viewer count.
	Population = workload.Population
	// Churn configures the background-viewer session process.
	Churn = workload.Churn
	// Switching configures the channel-browsing process of multi-channel
	// scenarios.
	Switching = workload.Switching
	// Report is a full per-probe analysis covering every figure panel.
	Report = analysis.Report
	// ISP identifies one of the paper's ISP categories.
	ISP = isp.ISP
	// FaultSchedule declares deterministic fault injections for a scenario
	// (Scenario.Faults); nil leaves the run bit-identical to a benign one.
	FaultSchedule = fault.Schedule
	// SourceCrash silences one channel's origin for a window.
	SourceCrash = fault.SourceCrash
	// TrackerOutage downs a tracker group (or all) for a window.
	TrackerOutage = fault.TrackerOutage
	// LinkFault degrades or partitions one ISP-pair transit path.
	LinkFault = fault.LinkFault
	// BurstLoss adds network-wide loss for a window.
	BurstLoss = fault.BurstLoss
	// PeerKill abruptly crashes a fraction of viewers at an instant.
	PeerKill = fault.PeerKill
	// ResilienceReport holds per-fault-window dip/recovery/traffic-shift
	// metrics (Result.ProbeResilience).
	ResilienceReport = analysis.ResilienceReport
	// Fidelity selects how the background population is simulated
	// (Scenario.Fidelity): mixed (default), full, or flow — the
	// struct-of-arrays million-peer mode.
	Fidelity = peer.Fidelity
	// FlowTraffic is one (channel, category) flow-level traffic account
	// (Result.FlowTraffic).
	FlowTraffic = core.FlowTraffic
	// SelectionSpec selects and parameterizes the peer-selection policy
	// (Scenario.Selection): the zero value is the legacy uniform random
	// sample; quota and AS-hop policies bias replies toward the
	// requester's ISP.
	SelectionSpec = selection.Spec
)

// The background-population fidelity levels (Scenario.Fidelity).
const (
	FidelityMixed = peer.FidelityMixed
	FidelityFull  = peer.FidelityFull
	FidelityFlow  = peer.FidelityFlow
)

// FidelityNames lists the fidelity flag spellings accepted by ParseFidelity.
func FidelityNames() []string { return peer.FidelityNames() }

// ParseFidelity resolves a flag value ("mixed", "full", "flow") to a
// fidelity level.
func ParseFidelity(s string) (Fidelity, error) { return peer.ParseFidelity(s) }

// SelectionNames lists the selection-policy flag spellings accepted by
// ParseSelection.
func SelectionNames() []string { return selection.Names() }

// ParseSelection resolves a flag value ("random", "quota:0.2", "ashop:2")
// to a selection spec for Scenario.Selection.
func ParseSelection(s string) (SelectionSpec, error) { return selection.ParseSpec(s) }

// The ISP categories used throughout the paper.
const (
	TELE    = isp.TELE
	CNC     = isp.CNC
	CER     = isp.CER
	OtherCN = isp.OtherCN
	Foreign = isp.Foreign
)

// RunScenario builds and runs a scenario.
func RunScenario(sc Scenario) (*Result, error) { return core.RunScenario(sc) }

// FaultPresetNames lists the canned chaos schedules accepted by FaultPreset.
func FaultPresetNames() []string { return fault.PresetNames() }

// FaultPreset builds a canned chaos schedule scaled to a scenario's warm-up
// and watch window, for Scenario.Faults.
func FaultPreset(name string, warmUp, watch time.Duration) (*FaultSchedule, error) {
	return fault.Preset(name, warmUp, watch)
}

// PopularScenario returns the paper's popular-channel setting at the given
// population scale (1.0 ≈ 1300 concurrent viewers), with default two-hour
// probe timing. Callers add probes.
func PopularScenario(seed int64, scale float64) Scenario {
	return Scenario{
		Name:    "popular",
		Seed:    seed,
		Spec:    workload.PopularSpec(),
		Viewers: workload.PopularPopulation().Scale(scale),
		Churn:   workload.DefaultChurn(),
	}
}

// UnpopularScenario returns the paper's unpopular-channel setting at the
// given population scale (1.0 ≈ 200 concurrent viewers).
func UnpopularScenario(seed int64, scale float64) Scenario {
	return Scenario{
		Name:    "unpopular",
		Seed:    seed,
		Spec:    workload.UnpopularSpec(),
		Viewers: workload.UnpopularPopulation().Scale(scale),
		Churn:   workload.DefaultChurn(),
	}
}

// MultiChannelScenario returns the paper's two channels running concurrently
// — the popular and unpopular settings at the given population scales — with
// channel-browsing viewers (DefaultSwitching). Callers add probes, pinning
// each to a channel via ProbeSpec.Channel.
func MultiChannelScenario(seed int64, popularScale, unpopularScale float64) Scenario {
	return Scenario{
		Name: "multichannel",
		Seed: seed,
		Channels: []ChannelSpec{
			{Spec: workload.PopularSpec(), Viewers: workload.PopularPopulation().Scale(popularScale)},
			{Spec: workload.UnpopularSpec(), Viewers: workload.UnpopularPopulation().Scale(unpopularScale)},
		},
		Switching: workload.DefaultSwitching(),
		Churn:     workload.DefaultChurn(),
	}
}

// AnalyzeProbe returns the paper's full analysis for one probe of a
// completed run: trace matching (request/reply pairing), IP→ASN resolution,
// and every figure statistic. The source excluded from peer statistics is the
// probe's own channel's source. The underlying pipeline is streaming — the
// matching rules were applied online during the run — so this finalizes
// bounded aggregates rather than replaying a trace; the result is identical
// to post-hoc analysis of a full capture.
func AnalyzeProbe(res *Result, probe int) (*Report, error) {
	return res.ProbeReport(probe)
}
