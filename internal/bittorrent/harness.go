package bittorrent

import (
	"net/netip"
	"time"

	"pplivesim/internal/analysis"
	"pplivesim/internal/isp"
	"pplivesim/internal/simnet"
	"pplivesim/internal/tracker"
	"pplivesim/internal/workload"
)

// procDelay is every BT host's per-datagram processing delay.
const procDelay = 3 * time.Millisecond

// Result is what RunLocality measured.
type Result struct {
	// Report is the probe's analysis, booked by the same instrument as a
	// streaming probe's: TrafficLocality is the same-ISP share of the bytes
	// it downloaded from peers, and SourceBytes what came from the seed.
	Report *analysis.Report
	// Progress is the probe's completion fraction at the horizon.
	Progress float64
	// Events is the number of events the world processed.
	Events uint64
}

// RunLocality runs a BT swarm with the given per-ISP leecher population, one
// seed (in TELE, like the streaming source) and one probe leecher in probeISP
// that joins two minutes in, for the given duration, and reports what the
// probe measured. This is the tracker-only baseline the paper contrasts with
// PPLive's referral-based selection.
//
// The swarm runs on the legacy six-domain world, with the seed and the
// tracker in TELE's infrastructure domain and the leechers spread
// round-robin over their category's domains; workers is the number of
// goroutines running it (simnet.World.Run), and the result is the same for
// any value.
func RunLocality(seed int64, viewers workload.Population, probeISP isp.ISP, duration time.Duration, workers int) (*Result, error) {
	world := simnet.NewShardedWorldN(seed, 0)
	infra := world.InfraDomain(isp.TELE)
	trackerEnv, err := infra.Spawn(simnet.HostSpec{ISP: isp.TELE, UploadBps: 8 << 20, ProcDelay: procDelay})
	if err != nil {
		return nil, err
	}
	trackerEnv.SetHandler(tracker.NewServer(trackerEnv))

	join := func(dom *simnet.Domain, category isp.ISP, upload float64, seed bool, at time.Duration) (*simnet.Env, *Peer, error) {
		env, err := dom.Spawn(simnet.HostSpec{ISP: category, UploadBps: upload, ProcDelay: procDelay})
		if err != nil {
			return nil, nil, err
		}
		p := NewPeer(env, trackerEnv.Addr(), seed)
		env.SetHandler(p)
		dom.At(at, p.Start)
		return env, p, nil
	}
	seedEnv, _, err := join(infra, isp.TELE, 4<<20, true, 0)
	if err != nil {
		return nil, err
	}

	// Background leechers: joins spread over the first two minutes.
	rng := world.BuildRand()
	for _, category := range isp.All() {
		doms := world.DomainsOf(category)
		for i := 0; i < viewers[category]; i++ {
			at := time.Duration(rng.Int63n(int64(2 * time.Minute)))
			if _, _, err := join(doms[i%len(doms)], category, workload.UploadCapacity(rng, category), false, at); err != nil {
				return nil, err
			}
		}
	}

	probeEnv, probe, err := join(world.DomainsOf(probeISP)[0], probeISP, workload.UploadCapacity(rng, probeISP), false, 2*time.Minute)
	if err != nil {
		return nil, err
	}
	agg, matcher := analysis.Instrument(probeEnv, world.Registry, seedEnv.Addr(),
		map[netip.Addr]bool{trackerEnv.Addr(): true}, nil, nil)

	if err := world.Run(duration, workers); err != nil {
		return nil, err
	}
	matcher.Close()
	return &Result{Report: agg.Report(), Progress: probe.Progress(), Events: world.EventsProcessed()}, nil
}
