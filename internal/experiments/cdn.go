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

// CDNSpecNames are the selection policies the hybrid CDN+P2P sweep is
// measured under: the legacy uniform sample and the quota bias the locality
// frontier identifies as the practical operating point.
func CDNSpecNames() []string {
	return []string{"random", "quota:0.25"}
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
func (r *Runner) CDNOffload(progress func(name string)) ([]CDNPoint, error) {
	r.cdnOnce.Do(func() {
		r.cdn, r.cdnErr = r.runCDN(progress)
	})
	return r.cdn, r.cdnErr
}

func (r *Runner) runCDN(progress func(name string)) ([]CDNPoint, error) {
	type job struct {
		spec  selection.Spec
		edges bool
	}
	var jobs []job
	var scenarios []core.Scenario
	for i, name := range CDNSpecNames() {
		spec, err := selection.ParseSpec(name)
		if err != nil {
			return nil, fmt.Errorf("experiments: cdn spec %q: %w", name, err)
		}
		for _, edges := range []bool{false, true} {
			jobs = append(jobs, job{spec: spec, edges: edges})
			scenarios = append(scenarios, r.cdnScenario(spec, edges, int64(i)))
		}
	}

	outs, err := r.runAll(scenarios, func(i int) {
		if progress != nil {
			progress(scenarios[i].Name)
		}
	})
	if err != nil {
		return nil, err
	}

	points := make([]CDNPoint, 0, len(jobs))
	baseline := map[string]uint64{}
	for i, j := range jobs {
		rep, err := report(outs[i], ProbeTELE)
		if err != nil {
			return nil, err
		}
		pt := CDNPoint{
			Spec:         j.spec.String(),
			Edges:        j.edges,
			Locality:     rep.TrafficLocality,
			EdgeBytes:    rep.EdgeBytes,
			SourceBytes:  rep.SourceBytes,
			OffloadByISP: map[isp.ISP]uint64{},
			ShedByISP:    map[isp.ISP]uint64{},
		}
		for cat, n := range rep.BytesByISP {
			if cat != isp.TELE {
				pt.TransitBytes += n
			}
		}
		res := outs[i].Result
		for _, es := range res.EdgeStats {
			pt.OffloadByISP[es.ISP] += es.ServedBytes
			pt.ShedByISP[es.ISP] += es.Shed
		}
		for pi, p := range res.Probes {
			if p.Name != ProbeTELE {
				continue
			}
			pt.Continuity = p.Client.BufferStats().Continuity()
			rrep, err := res.ProbeResilience(pi, ChaosTarget)
			if err != nil {
				return nil, err
			}
			pt.MinContinuity = 1
			for _, w := range rrep.Windows {
				if w.MinContinuity < pt.MinContinuity {
					pt.MinContinuity = w.MinContinuity
				}
			}
		}
		if !j.edges {
			baseline[pt.Spec] = pt.TransitBytes
		}
		points = append(points, pt)
	}
	for i := range points {
		base := baseline[points[i].Spec]
		if points[i].Edges && base > 0 && points[i].TransitBytes <= base {
			points[i].TransitSaved = 1 - float64(points[i].TransitBytes)/float64(base)
		}
	}
	return points, nil
}

// RenderCDN formats the sweep as one table per policy: the edge-less
// baseline against the hybrid deployment, plus the swarm-wide per-ISP
// offload the edge counters report.
func RenderCDN(points []CDNPoint) string {
	var b strings.Builder
	for _, spec := range CDNSpecNames() {
		// CDNSpecNames entries parse to the canonical String() form used in
		// the points; normalize through the same path.
		s, err := selection.ParseSpec(spec)
		if err != nil {
			continue
		}
		fmt.Fprintf(&b, "policy %s:\n", s.String())
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
