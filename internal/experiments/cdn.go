package experiments

import (
	"fmt"
	"strings"
	"time"

	"pplivesim/internal/cdn"
	"pplivesim/internal/core"
	"pplivesim/internal/fault"
	"pplivesim/internal/isp"
	"pplivesim/internal/selection"
	"pplivesim/internal/workload"
)

// cdnSpecs are the selection policies the hybrid CDN+P2P sweep is measured
// under: the legacy uniform sample and the quota bias the locality frontier
// identifies as the practical operating point.
var cdnSpecs = []selection.Spec{
	{}, // random
	{Kind: selection.KindQuota, MaxInterFrac: 0.25},
}

// CDNPoint is one (policy, edges on/off) cell of the offload-vs-locality
// sweep: a flash-crowd run with a post-spike source crash, measured at the
// TELE probe and at the deployed edge caches.
type CDNPoint struct {
	Spec  string
	Edges bool
	// Probe-side tallies: peer-traffic locality (edges and the source are
	// excluded from the per-ISP peer counters by construction), bytes pulled
	// from edges and from the origin, and inter-ISP peer bytes.
	Locality     float64
	EdgeBytes    uint64
	SourceBytes  uint64
	TransitBytes uint64
	// TransitSaved is the fraction of the same policy's edge-less transit
	// this deployment avoided (0 for the edge-less baseline itself).
	TransitSaved float64
	// Continuity is the probe's playback continuity over the whole watch;
	// MinContinuity is the resilience-sampled floor through the crash window.
	Continuity    float64
	MinContinuity float64
	// Swarm-side offload: bytes served (and requests shed) by the edge
	// caches of each ISP, from the run's EdgeStats.
	OffloadByISP map[isp.ISP]uint64
	ShedByISP    map[isp.ISP]uint64
}

// cdnScenario sizes one sweep cell: a popular-channel flash crowd (the
// paper's event-start spike, 10× arrivals in two minutes) followed by a
// source crash the edges — when deployed — must absorb. Both edge variants
// of a policy share a seed so the workload is identical and only the
// deployment differs.
func (r *Runner) cdnScenario(spec selection.Spec, edges bool, seedOffset int64) core.Scenario {
	variant := "p2p"
	if edges {
		variant = "edges"
	}
	name := "cdn-" + strings.ReplaceAll(spec.String(), ":", "-") + "-" + variant
	sc := r.buildScenario(name, true, 9500+seedOffset, r.Scale.Fig6Population, r.Scale.Fig6Watch)
	sc.Probes = []core.ProbeSpec{{Name: ProbeTELE, ISP: isp.TELE}}
	sc.Selection = spec
	sc.FlashCrowd = workload.DefaultFlashCrowd(sc.WarmUp + sc.Watch/3)
	crashAt := sc.FlashCrowd.At + sc.FlashCrowd.Window + 30*time.Second
	sc.Faults = &fault.Schedule{
		SourceCrashes: []fault.SourceCrash{{Channel: 0, At: crashAt, Recover: crashAt + time.Minute}},
	}
	if edges {
		sc.CDN = &cdn.Config{Placements: []cdn.Placement{
			{ISP: isp.TELE, Count: 2},
			{ISP: isp.CNC, Count: 1},
		}}
	}
	return sc
}

// CDNOffload sweeps the hybrid deployment (once, then cached): each policy
// runs the same flash-crowd + source-crash workload with and without edge
// caches, measuring what the edges absorb (offload, transit saved) against
// what locality and playback do. The 2×len(specs) runs fan out over the
// worker pool.
func (r *Runner) CDNOffload(progress func(scenario string)) ([]CDNPoint, error) {
	return r.cdn.get(func() ([]CDNPoint, error) { return r.runCDN(progress) })
}

func (r *Runner) runCDN(progress func(scenario string)) ([]CDNPoint, error) {
	var scenarios []core.Scenario
	for i, spec := range cdnSpecs {
		for _, edges := range []bool{false, true} {
			scenarios = append(scenarios, r.cdnScenario(spec, edges, int64(i)))
		}
	}
	cells, err := r.sweep(scenarios, progress)
	if err != nil {
		return nil, err
	}

	points := make([]CDNPoint, len(cells))
	// Each policy's edge-less cell comes first in sweep order, so its
	// baseline is in place before the deployment measured against it.
	baseline := map[string]uint64{}
	for i, c := range cells {
		pt := CDNPoint{
			Spec:          scenarios[i].Selection.String(),
			Edges:         scenarios[i].CDN != nil,
			Locality:      c.rep.TrafficLocality,
			EdgeBytes:     c.rep.EdgeBytes,
			SourceBytes:   c.rep.SourceBytes,
			TransitBytes:  c.transit,
			Continuity:    c.continuity,
			MinContinuity: 1,
			OffloadByISP:  map[isp.ISP]uint64{},
			ShedByISP:     map[isp.ISP]uint64{},
		}
		for _, es := range c.Result.EdgeStats {
			pt.OffloadByISP[es.ISP] += es.ServedBytes
			pt.ShedByISP[es.ISP] += es.Shed
		}
		rrep, err := c.Result.ProbeResilience(c.probe, ChaosTarget)
		if err != nil {
			return nil, err
		}
		for _, w := range rrep.Windows {
			if w.MinContinuity < pt.MinContinuity {
				pt.MinContinuity = w.MinContinuity
			}
		}
		if !pt.Edges {
			baseline[pt.Spec] = pt.TransitBytes
		}
		pt.TransitSaved = transitSaved(pt.TransitBytes, baseline[pt.Spec])
		points[i] = pt
	}
	return points, nil
}

// RenderCDN formats the sweep as one table per policy: the edge-less
// baseline against the hybrid deployment, plus the swarm-wide per-ISP
// offload the edge counters report.
func RenderCDN(points []CDNPoint) string {
	var b strings.Builder
	for _, s := range cdnSpecs {
		fmt.Fprintf(&b, "policy %s:\n", s)
		fmt.Fprintf(&b, "  %-10s %9s %14s %13s %12s %13s %11s %9s\n",
			"deployment", "locality", "transit bytes", "transit saved", "edge bytes", "source bytes", "continuity", "min-cont")
		for _, pt := range points {
			if pt.Spec != s.String() {
				continue
			}
			dep := "p2p-only"
			if pt.Edges {
				dep = "+edges"
			}
			fmt.Fprintf(&b, "  %-10s %8.1f%% %14d %12.1f%% %12d %13d %11.3f %9.3f\n",
				dep, 100*pt.Locality, pt.TransitBytes, 100*pt.TransitSaved,
				pt.EdgeBytes, pt.SourceBytes, pt.Continuity, pt.MinContinuity)
			if pt.Edges {
				fmt.Fprintf(&b, "  edge offload (swarm-wide served bytes / shed requests):")
				for _, cat := range isp.All() {
					if pt.OffloadByISP[cat] == 0 && pt.ShedByISP[cat] == 0 {
						continue
					}
					fmt.Fprintf(&b, "  %s=%d/%d", cat, pt.OffloadByISP[cat], pt.ShedByISP[cat])
				}
				fmt.Fprintf(&b, "\n")
			}
		}
	}
	b.WriteString("  expectation: edges absorb the urgent misses the flash crowd and the source crash\n")
	b.WriteString("  create (min-cont holds near 1 with edges, dips without), and same-ISP edges convert\n")
	b.WriteString("  origin/transit bytes into intra-ISP edge bytes without disturbing peer locality\n")
	return b.String()
}
