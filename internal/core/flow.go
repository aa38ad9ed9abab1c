package core

import (
	"fmt"
	"net/netip"
	"time"

	"pplivesim/internal/analysis"
	"pplivesim/internal/isp"
	"pplivesim/internal/peer"
	"pplivesim/internal/selection"
	"pplivesim/internal/simnet"
	"pplivesim/internal/underlay"
	"pplivesim/internal/wire"
	"pplivesim/internal/workload"
)

// Flow fidelity (peer.FidelityFlow) replaces the background Client
// population with per-(domain, channel) FlowSwarms: flat struct-of-arrays
// member state driven by a flow-level update loop. Probes stay full-fidelity
// Clients and the swarms answer their protocol traffic exactly, so the
// probe-side methodology — the thing the paper measures — is unchanged; what
// the flow level replaces is the O(peers) per-tick protocol machinery of the
// organic swarm, whose aggregate per-ISP traffic mix is accounted
// synthetically instead.

const (
	// flowTickInterval is the flow-level update cadence: churn accrual and
	// byte accounting per swarm, O(1) in population size.
	flowTickInterval = time.Second
	// flowAnnounceInterval mirrors Config.AnnounceInterval for the sampled
	// tracker registrations.
	flowAnnounceInterval = time.Minute
	// flowBufferMapInterval mirrors Config.BufferMapInterval for the
	// probe-facing link announces.
	flowBufferMapInterval = 5 * time.Second
)

// FlowTraffic is the flow-level traffic account of every swarm of one
// channel and viewer category. Aggregate holds mergeable analysis telemetry
// fed with synthetic per-ISP transmissions (one representative peer per
// source ISP, flow-level byte totals), so per-ISP byte mix and response-time
// groups are meaningful while per-peer activity is per-ISP representative.
type FlowTraffic struct {
	Channel   wire.ChannelID
	ISP       isp.ISP
	Aggregate *analysis.Aggregate
}

// flowDomain is one shard domain's slice of one channel's flow swarm: the
// swarm itself, the port its members' hosts hang off, and the window-local
// traffic tallies its owning worker adds to between barriers. A row's address
// is its handle: the port finds the host by it. It implements peer.FlowPort
// and simnet.LiteHandler.
type flowDomain struct {
	sim      *Sim
	ds       *domainState
	category isp.ISP
	initial  int

	swarm *peer.FlowSwarm
	port  *simnet.LitePort
	// spawn is spawnMember bound once: Respawn schedules it for every
	// replacement, and a fresh method value each time is a heap object.
	spawn func()

	// Synthetic traffic mix: parallel rows over source ISPs (isp.All()
	// order) — byte share, representative address, and request RTT.
	cats  []isp.ISP
	share []float64
	rep   []netip.Addr
	rtt   []time.Duration

	// winTx and winBytes, parallel to cats, tally the window's synthetic
	// transmissions and bytes per source ISP. Only the owning domain's worker
	// adds to them during a synchronization window; foldFlowWindows books
	// them into total single-threaded at the barrier and zeroes them, which
	// is what keeps cross-sub-shard totals lock-free and worker-count
	// invariant.
	winTx    []uint64
	winBytes []uint64
	dirty    bool
	total    *FlowTraffic
}

var (
	_ peer.FlowPort      = (*flowDomain)(nil)
	_ simnet.LiteHandler = (*flowDomain)(nil)
)

// buildFlowPopulation creates the flow swarms: per channel and viewer
// category, the population splits round-robin across the category's shard
// domains (same placement rule as Client viewers) and each slice spawns
// fully formed at t=0 — flow fidelity has no arrival ramp, which is
// documented behaviour: the paper's probes always joined an established
// swarm.
func (s *Sim) buildFlowPopulation(set []ChannelSpec) error {
	sc := s.scenario
	world := s.world
	netCfg := underlay.DefaultConfig()
	for chIdx, ch := range set {
		for _, category := range isp.All() {
			count := ch.Viewers[category]
			if count <= 0 {
				continue
			}
			total := &FlowTraffic{
				Channel:   ch.Spec.Channel,
				ISP:       category,
				Aggregate: analysis.NewAggregate(world.Registry, s.channels[chIdx].Source, category),
			}
			s.flowTotals = append(s.flowTotals, total)
			cats, share, rep, rtt := flowMix(world, ch.Viewers, category, netCfg, s.policy)

			doms := world.DomainsOf(category)
			for k, dom := range doms {
				n := count / len(doms)
				if k < count%len(doms) {
					n++
				}
				if n == 0 {
					continue
				}
				ds := &s.doms[dom.ID()]
				fcfg := peer.DefaultFlowConfig(ch.Spec)
				fcfg.Selection = s.policy
				if sc.Churn.Enabled {
					fcfg.MeanSession = sc.Churn.MeanSession
					fcfg.ReplacementDelay = sc.Churn.ReplacementDelay
				}
				fd := &flowDomain{
					sim:      s,
					ds:       ds,
					category: category,
					initial:  n,
					cats:     cats,
					share:    share,
					rep:      rep,
					rtt:      rtt,
					winTx:    make([]uint64, len(cats)),
					winBytes: make([]uint64, len(cats)),
					total:    total,
				}
				swarm, err := peer.NewFlowSwarm(fcfg, fd, ds.rng, s.trackerList, n)
				if err != nil {
					return fmt.Errorf("core: flow swarm %s/%d: %w", dom.Name(), ch.Spec.Channel, err)
				}
				fd.swarm = swarm
				fd.port = dom.NewLitePort(fd)
				fd.spawn = fd.spawnMember
				s.flows = append(s.flows, fd)
				fd.ds.dom.At(0, fd.populate)
			}
		}
	}
	world.OnBarrier(s.foldFlowWindows)
	return nil
}

// flowMix derives the synthetic traffic mix for swarms of one category: the
// probability a streamed byte came from each source ISP, a representative
// address inside that ISP, and the typical request round-trip used for
// response-time accounting. Raw population weights are shaped by the
// scenario's selection policy — every policy applies the emergent same-ISP
// boost (the flow-level stand-in for the mesh's locality preferences), and
// biased policies layer their engineered preference on top — then
// normalized here.
func flowMix(world *simnet.World, pop workload.Population, category isp.ISP, cfg underlay.Config, pol selection.Policy) (cats []isp.ISP, share []float64, rep []netip.Addr, rtt []time.Duration) {
	for _, src := range isp.All() {
		w := float64(pop[src])
		if w <= 0 {
			continue
		}
		cats = append(cats, src)
		share = append(share, w)
		rep = append(rep, world.Registry.PrefixesFor(src)[0].Addr().Next())
		rtt = append(rtt, flowRTT(cfg, category, src))
	}
	pol.Shape(category, cats, share)
	var sum float64
	for _, w := range share {
		sum += w
	}
	for i := range share {
		share[i] /= sum
	}
	return cats, share, rep, rtt
}

// flowRTT is the typical request round-trip between hosts of two categories
// under the underlay's base one-way delays.
func flowRTT(cfg underlay.Config, a, b isp.ISP) time.Duration {
	switch {
	case a == b:
		return 2 * cfg.IntraOWD[a]
	case a == isp.Foreign || b == isp.Foreign:
		return 2 * cfg.TransoceanicOWD
	default:
		owd := cfg.InterDomesticOWD
		if (a == isp.TELE && b == isp.CNC) || (a == isp.CNC && b == isp.TELE) {
			owd += cfg.TeleCncPenalty
		}
		return 2 * owd
	}
}

// populate spawns the domain's initial members, registers the sampled
// tracker announces, and starts the flow-level cadences. Runs at t=0 on the
// owning domain's worker.
func (fd *flowDomain) populate() {
	for i := 0; i < fd.initial; i++ {
		fd.spawnMember()
	}
	fd.swarm.AnnounceTrackers()
	eng := fd.ds.dom.Engine()
	eng.Every(flowTickInterval, fd.tick)
	eng.Every(flowAnnounceInterval, fd.swarm.AnnounceTrackers)
	eng.Every(flowBufferMapInterval, fd.swarm.AnnounceLinks)
}

// spawnMember joins one member: a lightweight host with capacity and
// processing draws from the owning domain's RNG stream (same distributions
// as Client viewers), then a swarm row.
func (fd *flowDomain) spawnMember() {
	rng := fd.ds.rng
	h, err := fd.port.Spawn(simnet.HostSpec{
		ISP:       fd.category,
		UploadBps: workload.UploadCapacity(rng, fd.category),
		ProcDelay: workload.ProcDelay(rng),
	})
	if err != nil {
		// Address exhaustion would be a scenario sizing bug; surface loudly.
		panic(fmt.Sprintf("core: spawn flow member: %v", err))
	}
	h.Tag = int32(fd.swarm.Add(h.Addr))
	fd.ds.spawned++
}

// tick advances the swarm one flow interval and tallies its streamed bytes
// in the window, split across source ISPs by the mix: one synthetic
// transmission per source ISP that gets a whole byte.
func (fd *flowDomain) tick() {
	fd.swarm.Tick(fd.Now())
	bytes := fd.swarm.TakeBytes()
	if bytes == 0 {
		return
	}
	for k := range fd.cats {
		b := uint64(float64(bytes) * fd.share[k])
		if b == 0 {
			continue
		}
		fd.winTx[k]++
		fd.winBytes[k] += b
	}
	fd.dirty = true
}

// Now implements peer.FlowPort.
func (fd *flowDomain) Now() time.Duration { return fd.ds.dom.Engine().Now() }

// Send implements peer.FlowPort.
func (fd *flowDomain) Send(i int, to netip.Addr, msg wire.Message) {
	fd.port.Send(fd.swarm.Addr(i), to, msg)
}

// UplinkBacklog implements peer.FlowPort.
func (fd *flowDomain) UplinkBacklog(i int) time.Duration {
	return fd.port.UplinkBacklog(fd.swarm.Addr(i))
}

// Retire implements peer.FlowPort.
func (fd *flowDomain) Retire(i int) { fd.port.Retire(fd.swarm.Addr(i)) }

// Respawn implements peer.FlowPort.
func (fd *flowDomain) Respawn(delay time.Duration) { fd.ds.dom.After(delay, fd.spawn) }

// HandleLite implements simnet.LiteHandler.
func (fd *flowDomain) HandleLite(i int, from netip.Addr, msg wire.Message) {
	fd.swarm.Handle(i, from, msg)
}

// foldFlowWindows books every dirty flow domain's window tallies into its
// (channel, category) total — each source ISP's transmissions at that ISP's
// representative peer and request RTT — and zeroes them. Registered as a
// barrier hook, so it runs single-threaded between synchronization windows:
// multiple TELE sub-shard workers feed the same total without locks, and the
// fold order (flows in build order) is fixed, keeping the totals worker-count
// invariant. Run calls it once more for the final window's leftovers.
func (s *Sim) foldFlowWindows() {
	for _, fd := range s.flows {
		if !fd.dirty {
			continue
		}
		fd.dirty = false
		for k, n := range fd.winTx {
			fd.total.Aggregate.AddTransfers(fd.rep[k], fd.rtt[k], n, fd.winBytes[k])
			fd.winTx[k], fd.winBytes[k] = 0, 0
		}
	}
}

// FlowAlive returns the live flow-member count across all swarms (0 below
// peer.FidelityFlow).
func (s *Sim) FlowAlive() int {
	total := 0
	for _, fd := range s.flows {
		total += fd.swarm.Alive()
	}
	return total
}
