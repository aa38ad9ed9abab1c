// Package core orchestrates full simulations: it assembles the underlay,
// control servers (bootstrap + five tracker groups), the channel sources, a
// churning background viewer population, and instrumented probe clients, then
// runs the scenario and returns the probes' telemetry for analysis.
//
// This mirrors the paper's methodology: probe hosts deployed in chosen ISPs
// join a live channel alongside the organic audience and observe every
// datagram; everything the study reports is computed from that probe-side
// view (never from global simulator state). Each probe's datagrams are
// matched and aggregated online in bounded memory; the paper's literal
// capture-then-analyze mode — retaining the full trace — is the per-probe
// opt-in ProbeSpec.FullCapture.
package core

import (
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"pplivesim/internal/analysis"
	"pplivesim/internal/asnmap"
	"pplivesim/internal/capture"
	"pplivesim/internal/cdn"
	"pplivesim/internal/fault"
	"pplivesim/internal/isp"
	"pplivesim/internal/peer"
	"pplivesim/internal/selection"
	"pplivesim/internal/simnet"
	"pplivesim/internal/stream"
	"pplivesim/internal/tracker"
	"pplivesim/internal/wire"
	"pplivesim/internal/workload"
)

// ProbeSpec places one instrumented measurement client.
type ProbeSpec struct {
	Name string
	ISP  isp.ISP
	// UploadBps overrides the probe's uplink; zero draws from the ISP's
	// capacity distribution.
	UploadBps float64
	// Channel pins the probe to one of the scenario's channels; zero means
	// the first (or only) channel. Probes never switch — the paper's probes
	// watched their channel for the whole capture.
	Channel wire.ChannelID
	// FullCapture retains this probe's complete datagram trace in a
	// capture.Recorder (the opt-in Wireshark mode, needed by tracefile
	// export and for checking the streaming path against post-hoc analysis)
	// in addition to the always-on streaming telemetry.
	FullCapture bool
}

// ChannelSpec is one channel in a multi-channel scenario: its stream plus
// the audience that arrives on it.
type ChannelSpec struct {
	Spec    stream.Spec
	Viewers workload.Population
}

// Behaviour toggles the mechanism ablations DESIGN.md calls out. The zero
// value is the faithful PPLive behaviour.
type Behaviour struct {
	// DisableReferral makes every peer answer gossip with empty lists,
	// leaving trackers as the only discovery channel (tracker-centric
	// baseline behaviour inside the PPLive protocol shell).
	DisableReferral bool
	// DisableLatencyBias randomizes handshake timing so neighbor-slot
	// acquisition no longer correlates with proximity.
	DisableLatencyBias bool
	// DisablePreference schedules data requests uniformly across covering
	// neighbors instead of preferring fast ones.
	DisablePreference bool
}

// Scenario fully describes one simulation run.
type Scenario struct {
	Name string
	Seed int64

	// Spec/Viewers describe a single-channel scenario (the common case).
	// Channels, when non-empty, supersedes them with a channel set served by
	// distinct sources behind the shared bootstrap and tracker groups.
	Spec     stream.Spec
	Viewers  workload.Population
	Channels []ChannelSpec

	// Switching drives channel-browsing viewers across the channel set (§5
	// of the paper). Zero value: nobody switches, and no switching-related
	// RNG draws occur, keeping legacy scenarios bit-identical.
	Switching workload.Switching

	// FlashCrowd, when enabled, injects an arrival spike on one channel at a
	// fixed instant: SpikeCount extra viewers per category join within
	// FlashCrowd.Window of FlashCrowd.At (an event start at a popular
	// channel). The zero value spawns nobody and draws nothing, keeping
	// legacy trajectories bit-identical.
	FlashCrowd workload.FlashCrowd

	// CDN, when non-nil with provisioned placements, deploys per-ISP edge
	// caches that absorb urgent-window misses before the origin (see
	// internal/cdn). Nil (or an empty config) deploys nothing and leaves the
	// pure-P2P trajectory bit-identical — the pinned golden digests enforce
	// this.
	CDN *cdn.Config

	Churn     workload.Churn
	Probes    []ProbeSpec
	Behaviour Behaviour

	// Selection chooses the peer-selection policy applied uniformly to
	// tracker replies, peer referrals, and the flow-fidelity byte mix. The
	// zero value is the paper-faithful locality-unaware uniform sample,
	// bit-identical to pre-policy builds (the pinned golden digests depend
	// on it); quota/ashop specs engineer locality instead (see
	// internal/selection).
	Selection selection.Spec

	// Fidelity selects how the background population is simulated. The zero
	// value, peer.FidelityMixed, is the pinned-golden behaviour (batched
	// protocol Clients); peer.FidelityFull promotes background viewers to
	// probe fidelity; peer.FidelityFlow replaces them with struct-of-arrays
	// flow swarms — the million-peer mode. Probes are full-fidelity Clients
	// at every level. Flow fidelity is incompatible with channel switching.
	Fidelity peer.Fidelity

	// Faults, when non-nil, is the declarative fault-injection schedule
	// executed during the run (see internal/fault). A non-nil schedule also
	// enables every peer's resilience behaviours (peer.Config.Resilient) and
	// periodic probe-side resilience sampling. Nil injects nothing, enables
	// nothing, and leaves the trajectory bit-identical to a fault-free build —
	// the pinned golden digests enforce this.
	Faults *fault.Schedule

	// Shards is the degree of parallelism of the sharded event engine. Values
	// up to simnet.DefaultShards (6) keep the legacy ISP-domain partition —
	// the trajectory is identical for every such value, Shards only chooses
	// how many goroutines execute the synchronization windows, and the pinned
	// golden digests depend on this. Values above 6 engage the scaled
	// partition: TELE splits into Shards-5 address-range sub-shards plus a
	// dedicated infrastructure domain (see simnet.NewShardedWorldN), which
	// changes the trajectory (wider synthetic lookahead) but remains
	// worker-count invariant. Values below 2 run single-threaded; negative
	// values and values above simnet.MaxShards are rejected.
	Shards int

	// Workers, when non-zero, decouples the number of worker goroutines from
	// the partition degree: a Shards=12 world can be driven by Workers=1 to
	// check that a scaled partition's trajectory is worker-count invariant.
	// Zero means Workers = Shards. Either way eventsim.Group caps the
	// goroutines it starts at GOMAXPROCS, so a default Shards=12 run on a
	// 2-core machine uses two, not twelve. Negative values are rejected.
	Workers int

	// ArrivalWindow spreads the initial population's joins.
	ArrivalWindow time.Duration
	// WarmUp is when probes join (after the swarm has formed).
	WarmUp time.Duration
	// Watch is how long probes stay; total simulated time is
	// WarmUp + Watch.
	Watch time.Duration
}

// channelSet returns the scenario's channels: the explicit set, or the
// legacy single Spec/Viewers pair wrapped as one entry.
func (s *Scenario) channelSet() []ChannelSpec {
	if len(s.Channels) > 0 {
		return s.Channels
	}
	return []ChannelSpec{{Spec: s.Spec, Viewers: s.Viewers}}
}

// channelIndex resolves a channel ID to its index in the channel set
// (-1 if absent; 0 for the zero ID).
func channelIndex(set []ChannelSpec, id wire.ChannelID) int {
	if id == 0 {
		return 0
	}
	for i, ch := range set {
		if ch.Spec.Channel == id {
			return i
		}
	}
	return -1
}

// Validate checks scenario consistency.
func (s *Scenario) Validate() error {
	set := s.channelSet()
	seen := make(map[wire.ChannelID]bool, len(set))
	for _, ch := range set {
		if err := ch.Spec.Validate(); err != nil {
			return err
		}
		if seen[ch.Spec.Channel] {
			return fmt.Errorf("core: scenario %q repeats channel %d", s.Name, ch.Spec.Channel)
		}
		seen[ch.Spec.Channel] = true
		if ch.Viewers.Total() <= 0 {
			return fmt.Errorf("core: scenario %q channel %d has no viewers", s.Name, ch.Spec.Channel)
		}
	}
	if err := s.Switching.Validate(); err != nil {
		return err
	}
	if s.Switching.Enabled && len(set) < 2 {
		return fmt.Errorf("core: scenario %q enables switching with %d channel(s)", s.Name, len(set))
	}
	if len(s.Probes) == 0 {
		return fmt.Errorf("core: scenario %q has no probes", s.Name)
	}
	names := make(map[string]bool, len(s.Probes))
	for _, ps := range s.Probes {
		if channelIndex(set, ps.Channel) < 0 {
			return fmt.Errorf("core: scenario %q probe %q watches unknown channel %d", s.Name, ps.Name, ps.Channel)
		}
		// A probe's name is its handle: reports, resilience tables and
		// trace files are looked up and named by it.
		if names[ps.Name] {
			return fmt.Errorf("core: scenario %q repeats probe name %q", s.Name, ps.Name)
		}
		names[ps.Name] = true
	}
	if s.ArrivalWindow <= 0 || s.WarmUp <= 0 || s.Watch <= 0 {
		return fmt.Errorf("core: scenario %q has non-positive timing", s.Name)
	}
	if !s.Fidelity.Valid() {
		return fmt.Errorf("core: scenario %q has invalid fidelity %d", s.Name, int(s.Fidelity))
	}
	if err := s.Selection.Validate(); err != nil {
		return fmt.Errorf("core: scenario %q: %w", s.Name, err)
	}
	if s.Fidelity == peer.FidelityFlow && s.Switching.Enabled {
		return fmt.Errorf("core: scenario %q: flow fidelity does not support channel switching", s.Name)
	}
	if s.Shards < 0 || s.Shards > simnet.MaxShards {
		return fmt.Errorf("core: scenario %q: Shards = %d, want 0..%d (simnet.MaxShards)", s.Name, s.Shards, simnet.MaxShards)
	}
	if s.Workers < 0 {
		return fmt.Errorf("core: scenario %q: Workers = %d, want 0 (= Shards) or more", s.Name, s.Workers)
	}
	if err := s.FlashCrowd.Validate(); err != nil {
		return fmt.Errorf("core: scenario %q: %w", s.Name, err)
	}
	if s.FlashCrowd.Enabled {
		if s.FlashCrowd.Channel >= len(set) {
			return fmt.Errorf("core: scenario %q flash crowd targets channel index %d of %d", s.Name, s.FlashCrowd.Channel, len(set))
		}
		if s.Fidelity == peer.FidelityFlow {
			return fmt.Errorf("core: scenario %q: flow fidelity does not support flash crowds", s.Name)
		}
	}
	if err := s.CDN.Validate(); err != nil {
		return fmt.Errorf("core: scenario %q: %w", s.Name, err)
	}
	if s.Faults != nil {
		if err := s.Faults.Validate(len(set), tracker.Groups, s.edgeCount(), s.WarmUp+s.Watch); err != nil {
			return fmt.Errorf("core: scenario %q: %w", s.Name, err)
		}
	}
	return nil
}

// edgeCount is the total number of CDN edge caches the scenario deploys.
func (s *Scenario) edgeCount() int {
	if s.CDN == nil {
		return 0
	}
	n := 0
	for _, p := range s.CDN.Placements {
		n += p.Count
	}
	return n
}

// DefaultTiming fills the standard timing used by the paper-scale
// experiments (probes watch for two hours).
func (s *Scenario) DefaultTiming() {
	if s.ArrivalWindow == 0 {
		s.ArrivalWindow = 8 * time.Minute
	}
	if s.WarmUp == 0 {
		s.WarmUp = 10 * time.Minute
	}
	if s.Watch == 0 {
		s.Watch = 2 * time.Hour
	}
}

// ProbeResult is one probe's telemetry plus identity.
type ProbeResult struct {
	Name string
	ISP  isp.ISP
	Addr netip.Addr
	// Recorder holds the probe's full datagram trace when ProbeSpec.FullCapture
	// was set; nil in the default streaming mode.
	Recorder *capture.Recorder
	// Aggregate is the probe's streaming telemetry, always present; finalize
	// it via Result.ProbeReport.
	Aggregate *analysis.Aggregate
	Client    *peer.Client
	// Channel is the channel the probe watched; Source is that channel's
	// source address (the right exclusion set for this probe's analysis).
	Channel wire.ChannelID
	Source  netip.Addr

	// Samples is the periodic resilience series (continuity counters and
	// per-ISP byte tallies), collected only when the scenario has a fault
	// schedule; feed it to Result.ProbeResilience.
	Samples []analysis.ResilienceSample

	// matcher is the online matcher feeding Aggregate; Run closes it to
	// flush still-pending requests into the unanswered tallies.
	matcher *capture.Aggregator
}

// ChannelResult is one channel's identity in a completed run.
type ChannelResult struct {
	Spec    stream.Spec
	Source  netip.Addr
	Viewers workload.Population
}

// Result is a completed run.
type Result struct {
	Scenario Scenario
	Probes   []ProbeResult
	// Channels lists the run's channels with their source addresses, in
	// scenario order.
	Channels []ChannelResult
	// Trackers is the set of tracker-server addresses, needed by the
	// trace-matching split between tracker and regular-peer lists.
	Trackers map[netip.Addr]bool
	// Registry resolves observed addresses to ISPs (the Team Cymru step).
	Registry *asnmap.Registry
	// SourceAddr is the first channel's source (excluded from "regular peer"
	// statistics where the paper's methodology implies client peers). For
	// per-channel analysis use Probes[i].Source / Channels[i].Source.
	SourceAddr netip.Addr
	// FaultWindows lists the injected faults' active intervals (empty without
	// a fault schedule), in schedule order, for resilience analysis.
	FaultWindows []analysis.FaultWindow
	// Elapsed is the simulated duration.
	Elapsed time.Duration
	// EventsProcessed is the engine's event count (for benchmarks).
	EventsProcessed uint64
	// LateInjects counts cross-shard datagrams that reached their destination
	// engine after their delivery time (simnet.World.LateInjects): 0 unless
	// the partition's lookahead was violated.
	LateInjects uint64
	// PeersSpawned counts background viewers ever created.
	PeersSpawned int
	// Switches counts channel-switch events across all viewers; Switchers
	// counts viewers that switched at least once.
	Switches  uint64
	Switchers int
	// FlowTraffic is the flow-level background traffic account, one entry
	// per (channel, viewer category) with live swarm members, in channel
	// then category order. Empty below peer.FidelityFlow.
	FlowTraffic []*FlowTraffic
	// Edges lists the CDN edge-cache addresses in deployment order (empty
	// without a CDN config); EdgeStats carries each edge's serve/shed
	// counters for offload accounting.
	Edges     []netip.Addr
	EdgeStats []EdgeStat
}

// EdgeStat is one CDN edge cache's identity and serve counters in a
// completed run.
type EdgeStat struct {
	Addr        netip.Addr
	ISP         isp.ISP
	Served      uint64
	ServedBytes uint64
	Shed        uint64
}

// ProbeReport finalizes probe i's streaming telemetry into the paper's full
// per-probe analysis report. It can be called repeatedly; each call builds a
// fresh Report from the aggregates.
func (r *Result) ProbeReport(probe int) (*analysis.Report, error) {
	if probe < 0 || probe >= len(r.Probes) {
		return nil, fmt.Errorf("core: probe index %d out of range (have %d)", probe, len(r.Probes))
	}
	p := &r.Probes[probe]
	if p.Aggregate == nil {
		return nil, fmt.Errorf("core: probe %q has no telemetry aggregate", p.Name)
	}
	return p.Aggregate.Report(), nil
}

// ProbeResilience evaluates probe i's resilience sample series against the
// run's fault windows: continuity dip depth/duration, time-to-recover, and
// per-ISP traffic shift per window. target is the continuity level counted as
// healthy (e.g. 0.95). Only available on runs with a fault schedule.
func (r *Result) ProbeResilience(probe int, target float64) (*analysis.ResilienceReport, error) {
	if probe < 0 || probe >= len(r.Probes) {
		return nil, fmt.Errorf("core: probe index %d out of range (have %d)", probe, len(r.Probes))
	}
	p := &r.Probes[probe]
	if len(p.Samples) == 0 {
		return nil, fmt.Errorf("core: probe %q has no resilience samples (scenario had no fault schedule)", p.Name)
	}
	return analysis.ComputeResilience(p.Samples, r.FaultWindows, target), nil
}

// Sim is an assembled, not-yet-run simulation.
type Sim struct {
	scenario Scenario
	world    *simnet.World

	// policy is the instantiated Scenario.Selection, shared by every tracker
	// server, peer config, and flow swarm (policies are stateless).
	policy selection.Policy

	bootstrapAddr netip.Addr
	trackerAddrs  map[netip.Addr]bool
	// trackerList is the same set in spawn order: flow swarms rotate their
	// sampled announces over it (map iteration order would not be
	// deterministic).
	trackerList []netip.Addr

	// channels mirrors the scenario's channel set with runtime identities;
	// weights holds each channel's audience size for popularity-biased
	// switching.
	channels []ChannelResult
	weights  []float64

	probes []ProbeResult

	// Fault-injection targets, retained only so installFaults can schedule
	// SetDown flips on the owning domains: the channel sources (scenario
	// order, all in srcDom) and every tracker server with its domain/group.
	srcDom      *simnet.Domain
	sources     []*peer.Source
	trackerSrvs []trackerRef

	// CDN edge caches with their owning domains (fault targets and result
	// reporting); edgeAddrs is the same set in deployment order for probe
	// aggregates. Both empty without a CDN config.
	edges     []edgeRef
	edgeAddrs []netip.Addr

	// doms holds per-domain mutable state. During a synchronization window
	// each domain's worker touches only its own entry; the barriers order
	// those accesses, so no locks are needed and the totals are deterministic
	// for any worker count.
	doms []domainState

	// flows holds the per-(domain, channel) flow swarms at FidelityFlow
	// (nil otherwise); flowTotals accumulates their telemetry per
	// (channel, category), folded single-threaded at window barriers.
	flows      []*flowDomain
	flowTotals []*FlowTraffic
}

// domainState is the per-shard slice of the simulation's mutable state.
type domainState struct {
	dom *simnet.Domain
	// rng drives viewer capacity/processing/churn/switching draws for spawns
	// in this domain. Seeded per domain, so one shard's churn never perturbs
	// another's stream.
	rng *rand.Rand
	// spawned counts background viewers ever created in this domain.
	spawned int
	// switches counts channel-switch events performed in this domain.
	switches uint64
	// background holds every viewer ever spawned here (including departed).
	background []*peer.Client
}

// BackgroundClients returns every background viewer ever spawned (including
// departed ones), for swarm-health inspection in tests and tools. Clients
// are grouped by shard domain in id order.
func (s *Sim) BackgroundClients() []*peer.Client {
	var out []*peer.Client
	for i := range s.doms {
		out = append(out, s.doms[i].background...)
	}
	return out
}

// trackerRef is one tracker server with the domain whose worker owns it.
type trackerRef struct {
	srv   *tracker.Server
	dom   *simnet.Domain
	group int
}

// edgeRef is one CDN edge cache with the domain whose worker owns it.
type edgeRef struct {
	edge *cdn.Edge
	dom  *simnet.Domain
	addr netip.Addr
	cat  isp.ISP
}

// trackerGroupISPs places the five tracker groups; the paper locates all
// tracker deployments inside China.
var trackerGroupISPs = [tracker.Groups]isp.ISP{
	isp.TELE, isp.CNC, isp.CER, isp.TELE, isp.CNC,
}

// infraUploadBps is the uplink of control servers (bootstrap, trackers).
const infraUploadBps = 8 << 20

// sourceUploadBps returns a channel source's uplink for its audience:
// enough to seed the swarm and absorb flash-crowd ramps (PPLive provisioned
// server clusters per channel), but a small fraction of aggregate demand so
// the mesh must carry the stream.
func sourceUploadBps(ch ChannelSpec) float64 {
	demand := float64(ch.Viewers.Total()) * float64(ch.Spec.BitrateBps)
	capacity := 0.2 * demand
	if capacity < 4<<20 {
		capacity = 4 << 20
	}
	return capacity
}

// Build assembles a simulation from a scenario. The world is always
// partitioned into ISP shard domains; Scenario.Shards only decides how many
// workers execute it later.
func Build(sc Scenario) (*Sim, error) {
	sc.DefaultTiming()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	set := sc.channelSet()
	world := simnet.NewShardedWorldN(sc.Seed, sc.Shards)
	sim := &Sim{
		scenario:     sc,
		world:        world,
		trackerAddrs: make(map[netip.Addr]bool),
	}
	// One policy instance serves the whole world: trackers sample with it,
	// sessions shape referrals with it, flow swarms weight their byte mix
	// with it. Uniform (the zero spec) preserves every legacy trajectory.
	pol, err := sc.Selection.Policy(world.Registry)
	if err != nil {
		return nil, fmt.Errorf("core: scenario %q: %w", sc.Name, err)
	}
	sim.policy = pol
	for _, d := range world.Domains() {
		sim.doms = append(sim.doms, domainState{dom: d, rng: d.Engine().NewRand()})
	}
	// Infrastructure lands in the first domain of its ISP category (legacy
	// partition) or the dedicated infrastructure domain (scaled partition).
	infraDomain := func(cat isp.ISP) *simnet.Domain { return world.InfraDomain(cat) }

	// Bootstrap/channel server.
	bsEnv, err := infraDomain(isp.TELE).Spawn(simnet.HostSpec{ISP: isp.TELE, UploadBps: infraUploadBps, ProcDelay: 2 * time.Millisecond})
	if err != nil {
		return nil, fmt.Errorf("spawn bootstrap: %w", err)
	}
	bs := tracker.NewBootstrap(bsEnv)
	bsEnv.SetHandler(bs)
	sim.bootstrapAddr = bsEnv.Addr()

	// Five tracker groups, two servers each; the groups are shared by every
	// channel (trackers keep per-channel registries).
	var groups [tracker.Groups][]netip.Addr
	for g := 0; g < tracker.Groups; g++ {
		for i := 0; i < 2; i++ {
			env, err := infraDomain(trackerGroupISPs[g]).Spawn(simnet.HostSpec{ISP: trackerGroupISPs[g], UploadBps: infraUploadBps, ProcDelay: 2 * time.Millisecond})
			if err != nil {
				return nil, fmt.Errorf("spawn tracker: %w", err)
			}
			srv := tracker.NewServer(env)
			srv.SetPolicy(sim.policy)
			env.SetHandler(srv)
			groups[g] = append(groups[g], env.Addr())
			sim.trackerAddrs[env.Addr()] = true
			sim.trackerList = append(sim.trackerList, env.Addr())
			sim.trackerSrvs = append(sim.trackerSrvs, trackerRef{srv: srv, dom: env.Domain(), group: g})
		}
	}

	// Channel sources and directory entries, in scenario order (so a
	// single-channel scenario spawns exactly the addresses it always did).
	for _, ch := range set {
		srcEnv, err := infraDomain(isp.TELE).Spawn(simnet.HostSpec{ISP: isp.TELE, UploadBps: sourceUploadBps(ch), ProcDelay: 2 * time.Millisecond})
		if err != nil {
			return nil, fmt.Errorf("spawn source: %w", err)
		}
		src, err := peer.NewSource(srcEnv, ch.Spec)
		if err != nil {
			return nil, err
		}
		srcEnv.SetHandler(src)
		sim.srcDom = srcEnv.Domain()
		sim.sources = append(sim.sources, src)
		err = bs.AddChannel(tracker.ChannelDirectory{
			Info:          ch.Spec.Info(),
			Source:        srcEnv.Addr(),
			TrackerGroups: groups,
		})
		if err != nil {
			return nil, err
		}
		sim.channels = append(sim.channels, ChannelResult{
			Spec:    ch.Spec,
			Source:  srcEnv.Addr(),
			Viewers: ch.Viewers,
		})
		sim.weights = append(sim.weights, float64(ch.Viewers.Total()))
	}

	// Per-ISP CDN edge caches, in placement order. Edges are infrastructure —
	// they land in their ISP's infra domain like trackers — and register
	// every channel with an independent ingest clock (the CDN's private
	// distribution tree), which is what lets them keep serving through a
	// source crash. The bootstrap learns each edge with its ISP so playlink
	// replies can order edges same-ISP-first for the requester.
	if sc.CDN.Enabled() {
		bs.SetEdgeResolver(world.Registry)
		for _, p := range sc.CDN.Placements {
			for i := 0; i < p.Count; i++ {
				env, err := infraDomain(p.ISP).Spawn(simnet.HostSpec{ISP: p.ISP, UploadBps: p.Uplink(), ProcDelay: 2 * time.Millisecond})
				if err != nil {
					return nil, fmt.Errorf("spawn edge: %w", err)
				}
				e := cdn.NewEdge(env)
				for _, ch := range set {
					if err := e.AddChannel(ch.Spec); err != nil {
						return nil, err
					}
				}
				env.SetHandler(e)
				if err := bs.AddEdge(env.Addr(), p.ISP); err != nil {
					return nil, err
				}
				sim.edges = append(sim.edges, edgeRef{edge: e, dom: env.Domain(), addr: env.Addr(), cat: p.ISP})
				sim.edgeAddrs = append(sim.edgeAddrs, env.Addr())
			}
		}
	}

	// Background population: per channel, initial arrivals spread over
	// ArrivalWindow, round-robined across the category's shard domains.
	// Channels and categories iterate in fixed order and arrival instants
	// come from the build RNG — map order or domain-stream draws here would
	// break run determinism. Flow fidelity takes a different path entirely:
	// swarms spawn fully formed at t=0 on their owning domains.
	if sc.Fidelity == peer.FidelityFlow {
		if err := sim.buildFlowPopulation(set); err != nil {
			return nil, err
		}
	} else {
		sim.buildClientPopulation(set)
		sim.buildFlashCrowd(set)
	}

	// Probes join at WarmUp, each in its ISP's first domain; slots are
	// preallocated so concurrent domain workers never append to a shared
	// slice.
	sim.probes = make([]ProbeResult, len(sc.Probes))
	for i, ps := range sc.Probes {
		i, ps := i, ps
		// Probes are viewers, not infrastructure: they live in the first
		// domain of their category even when a scaled partition has a
		// dedicated infra domain (infra latency floors would distort their
		// response-time measurements).
		ds := &sim.doms[world.DomainsOf(ps.ISP)[0].ID()]
		ds.dom.At(sc.WarmUp, func() {
			if err := sim.spawnProbe(ds, i, ps); err != nil {
				panic(fmt.Sprintf("core: spawn probe %s: %v", ps.Name, err))
			}
		})
	}

	if sc.Faults != nil {
		sim.installFaults(sc.Faults)
	}

	return sim, nil
}

// buildClientPopulation schedules the mixed/full-fidelity background viewer
// arrivals (the legacy path every pinned golden digest was recorded under).
func (sim *Sim) buildClientPopulation(set []ChannelSpec) {
	sc := sim.scenario
	world := sim.world
	rng := world.BuildRand()
	for chIdx, ch := range set {
		for _, category := range isp.All() {
			doms := world.DomainsOf(category)
			count := ch.Viewers[category]
			for i := 0; i < count; i++ {
				at := time.Duration(rng.Int63n(int64(sc.ArrivalWindow)))
				ds := &sim.doms[doms[i%len(doms)].ID()]
				category, chIdx := category, chIdx
				ds.dom.At(at, func() { sim.spawnViewer(ds, category, chIdx) })
			}
		}
	}
}

// buildFlashCrowd schedules the arrival spike: at FlashCrowd.At, each shard
// domain of each category spawns its share of the extra audience, with
// per-arrival offsets drawn from the owning domain's RNG stream at fire time
// (like workload.Switching's dwell draws) — never from the build RNG — so
// the spike trajectory is worker-count invariant.
func (sim *Sim) buildFlashCrowd(set []ChannelSpec) {
	fc := sim.scenario.FlashCrowd
	if !fc.Enabled {
		return
	}
	chIdx := fc.Channel
	ch := set[chIdx]
	for _, category := range isp.All() {
		doms := sim.world.DomainsOf(category)
		total := fc.SpikeCount(ch.Viewers[category])
		for j := range doms {
			// The same round-robin split buildClientPopulation uses: domain j
			// takes every len(doms)-th arrival.
			n := total / len(doms)
			if j < total%len(doms) {
				n++
			}
			if n == 0 {
				continue
			}
			ds := &sim.doms[doms[j].ID()]
			n, category := n, category
			ds.dom.At(fc.At, func() {
				for i := 0; i < n; i++ {
					off := fc.ArrivalOffset(ds.rng)
					ds.dom.After(off, func() { sim.spawnViewer(ds, category, chIdx) })
				}
			})
		}
	}
}

// backgroundConfig derives a background viewer's config from the scenario.
func (s *Sim) backgroundConfig(spec stream.Spec) peer.Config {
	cfg := peer.BackgroundConfig(spec, s.bootstrapAddr)
	if s.scenario.Fidelity == peer.FidelityFull {
		cfg = peer.DefaultConfig(spec, s.bootstrapAddr)
	}
	s.applyBehaviour(&cfg)
	return cfg
}

func (s *Sim) applyBehaviour(cfg *peer.Config) {
	b := s.scenario.Behaviour
	cfg.ReferralEnabled = !b.DisableReferral
	cfg.LatencyBias = !b.DisableLatencyBias
	cfg.PreferFastNeighbors = !b.DisablePreference
	// Referral replies follow the scenario's selection policy.
	cfg.Selection = s.policy
	// Chaos runs harden every peer; fault-free runs leave it off so their
	// trajectories stay bit-identical to pre-resilience builds.
	cfg.Resilient = s.scenario.Faults != nil
}

// spawnViewer creates one background viewer in ds's shard domain, arriving
// on channel chIdx, and, with churn enabled, schedules its departure and
// replacement (same domain and arrival channel, preserving shard balance
// and per-channel population). It runs on ds's worker and touches only ds
// state.
func (s *Sim) spawnViewer(ds *domainState, category isp.ISP, chIdx int) {
	rng := ds.rng
	env, err := ds.dom.Spawn(simnet.HostSpec{
		ISP:       category,
		UploadBps: workload.UploadCapacity(rng, category),
		ProcDelay: workload.ProcDelay(rng),
	})
	if err != nil {
		// Address exhaustion would be a scenario sizing bug; surface loudly.
		panic(fmt.Sprintf("core: spawn viewer: %v", err))
	}
	cfg := s.backgroundConfig(s.channels[chIdx].Spec)
	client, err := peer.New(env, cfg)
	if err != nil {
		panic(fmt.Sprintf("core: viewer config: %v", err))
	}
	env.SetHandler(client)
	client.SetOnStopped(env.Close)
	client.Start()
	ds.spawned++
	ds.background = append(ds.background, client)

	if s.scenario.Churn.Enabled {
		session := s.scenario.Churn.SessionLength(rng)
		ds.dom.After(session, func() {
			client.Stop()
			gap := time.Duration(rng.ExpFloat64() * float64(s.scenario.Churn.ReplacementDelay))
			ds.dom.After(gap, func() { s.spawnViewer(ds, category, chIdx) })
		})
	}

	// Channel browsing: decided per arrival, after the churn draws, so a
	// switching-disabled scenario performs exactly the legacy draw sequence.
	if s.scenario.Switching.Enabled && s.scenario.Switching.IsSwitcher(rng) {
		s.scheduleSwitch(ds, client, chIdx)
	}
}

// scheduleSwitch arms the next channel hop for a browsing viewer: dwell on
// the current channel, then move to a popularity-weighted other channel.
// All draws come from ds's domain RNG inside the owning shard, so switching
// stays deterministic for any worker count.
func (s *Sim) scheduleSwitch(ds *domainState, client *peer.Client, cur int) {
	dwell := s.scenario.Switching.Dwell(ds.rng)
	ds.dom.After(dwell, func() {
		if client.Phase() == peer.PhaseStopped {
			return
		}
		next := s.scenario.Switching.Next(ds.rng, s.weights, cur)
		if next != cur {
			client.Switch(s.channels[next].Spec)
			ds.switches++
		}
		s.scheduleSwitch(ds, client, next)
	})
}

// spawnProbe creates one instrumented full-fidelity client in ds's shard
// domain and attaches a packet recorder to both directions of its traffic.
// The probe writes its preallocated result slot and schedules its own stop
// at the horizon.
func (s *Sim) spawnProbe(ds *domainState, slot int, ps ProbeSpec) error {
	rng := ds.rng
	up := ps.UploadBps
	if up == 0 {
		up = workload.UploadCapacity(rng, ps.ISP)
	}
	env, err := ds.dom.Spawn(simnet.HostSpec{
		ISP:       ps.ISP,
		UploadBps: up,
		ProcDelay: workload.ProcDelay(rng),
	})
	if err != nil {
		return err
	}
	ch := s.channels[channelIndex(s.scenario.channelSet(), ps.Channel)]
	cfg := peer.DefaultConfig(ch.Spec, s.bootstrapAddr)
	s.applyBehaviour(&cfg)
	client, err := peer.New(env, cfg)
	if err != nil {
		return err
	}
	env.SetHandler(client)

	// Streaming telemetry is always on: an online matcher folds every
	// datagram straight into the probe's bounded aggregate. The full
	// recorder — the O(datagrams) Wireshark mode — only when opted in.
	var rec *capture.Recorder
	if ps.FullCapture {
		rec = new(capture.Recorder)
	}
	agg, matcher := analysis.Instrument(env, s.world.Registry, ch.Source, s.trackerAddrs, s.edgeAddrs, rec)
	client.Start()

	// Stop at the horizon so the probe's final state is well-defined.
	ds.dom.At(s.scenario.WarmUp+s.scenario.Watch, client.Stop)

	s.probes[slot] = ProbeResult{
		Name:      ps.Name,
		ISP:       ps.ISP,
		Addr:      env.Addr(),
		Recorder:  rec,
		Aggregate: agg,
		Client:    client,
		Channel:   ch.Spec.Channel,
		Source:    ch.Source,
		matcher:   matcher,
	}

	// Chaos runs sample the probe's playback and traffic counters on a fixed
	// period; the sampler runs on the probe's own domain worker and appends to
	// its preallocated result slot, so no synchronization is needed.
	if fs := s.scenario.Faults; fs != nil {
		sample := func() {
			st := client.BufferStats()
			s.probes[slot].Samples = append(s.probes[slot].Samples, analysis.ResilienceSample{
				At:         env.Now(),
				PlayedOK:   st.PlayedOK,
				PlayedMiss: st.PlayedMiss,
				BytesByISP: agg.BytesSnapshot(),
			})
		}
		sample()
		env.Every(fs.SampleEvery(), sample)
	}
	return nil
}

// World exposes the underlying simulation world (tests and tools).
func (s *Sim) World() *simnet.World { return s.world }

// Run executes the scenario to completion and returns the result.
func (s *Sim) Run() (*Result, error) {
	sc := s.scenario
	horizon := sc.WarmUp + sc.Watch
	workers := sc.Workers
	if workers == 0 {
		workers = sc.Shards
	}
	if err := s.world.Run(horizon, workers); err != nil {
		return nil, fmt.Errorf("run scenario %q: %w", sc.Name, err)
	}
	// Flush the streaming matchers: requests still pending at the horizon
	// become unanswered, exactly as a post-hoc Replay tallies leftovers.
	for i := range s.probes {
		if m := s.probes[i].matcher; m != nil {
			m.Close()
		}
	}
	var spawned, switchers int
	var switches uint64
	for i := range s.doms {
		spawned += s.doms[i].spawned
		switches += s.doms[i].switches
		for _, c := range s.doms[i].background {
			if c.Stats().ChannelSwitches > 0 {
				switchers++
			}
		}
	}
	// Fold whatever the last window left in the per-domain flow aggregates.
	s.foldFlowWindows()
	var faultWindows []analysis.FaultWindow
	if sc.Faults != nil {
		for _, w := range sc.Faults.Windows() {
			faultWindows = append(faultWindows, analysis.FaultWindow{Label: w.Label, Start: w.Start, End: w.End})
		}
	}
	var edgeStats []EdgeStat
	for _, er := range s.edges {
		served, bytes, shed := er.edge.Stats()
		edgeStats = append(edgeStats, EdgeStat{Addr: er.addr, ISP: er.cat, Served: served, ServedBytes: bytes, Shed: shed})
	}
	return &Result{
		Scenario:        sc,
		Probes:          s.probes,
		Channels:        s.channels,
		Trackers:        s.trackerAddrs,
		Registry:        s.world.Registry,
		SourceAddr:      s.channels[0].Source,
		FaultWindows:    faultWindows,
		Elapsed:         s.world.Now(),
		EventsProcessed: s.world.EventsProcessed(),
		LateInjects:     s.world.LateInjects(),
		PeersSpawned:    spawned,
		Switches:        switches,
		Switchers:       switchers,
		FlowTraffic:     s.flowTotals,
		Edges:           s.edgeAddrs,
		EdgeStats:       edgeStats,
	}, nil
}

// RunScenario builds and runs a scenario in one step.
func RunScenario(sc Scenario) (*Result, error) {
	sim, err := Build(sc)
	if err != nil {
		return nil, err
	}
	return sim.Run()
}
