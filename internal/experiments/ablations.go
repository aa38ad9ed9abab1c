package experiments

import (
	"fmt"
	"time"

	"pplivesim/internal/bittorrent"
	"pplivesim/internal/core"
	"pplivesim/internal/isp"
	"pplivesim/internal/peer"
	"pplivesim/internal/workload"
)

// AblationOutcome compares traffic locality with a mechanism on vs off.
type AblationOutcome struct {
	Name        string
	Baseline    float64 // locality with the full mechanism
	Ablated     float64 // locality with the mechanism disabled
	ExtraDetail string
}

// Render formats the outcome.
func (a AblationOutcome) Render() string {
	return fmt.Sprintf("ablation %s\n"+
		"  full mechanism:    traffic locality %.1f%%\n"+
		"  mechanism ablated: traffic locality %.1f%%\n%s",
		a.Name, 100*a.Baseline, 100*a.Ablated, a.ExtraDetail)
}

// ablationScenario is a mid-size popular scenario with a TELE probe used by
// every ablation (identical except for the toggled behaviour).
func (r *Runner) ablationScenario(name string, seedOffset int64, behaviour core.Behaviour) core.Scenario {
	sc := r.buildScenario(name, true, 500+seedOffset, r.Scale.Fig6Population*2, r.Scale.Fig6Watch)
	sc.Probes = []core.ProbeSpec{{Name: ProbeTELE, ISP: isp.TELE}}
	sc.Behaviour = behaviour
	return sc
}

// localityOf runs a scenario and returns the TELE probe's traffic locality.
func localityOf(sc core.Scenario, procs int) (float64, error) {
	out, err := runScenario(sc, procs)
	if err != nil {
		return 0, err
	}
	rep, err := report(out, ProbeTELE)
	if err != nil {
		return 0, err
	}
	return rep.TrafficLocality, nil
}

// ablation is one mechanism toggle (the table is in sections.go): the base
// run and the run with the mechanism off differ in nothing else.
type ablation struct {
	id, title string
	name      string // AblationOutcome.Name
	scenario  string // the ablated run's scenario name; the base run's adds "-base"
	seed      int64  // the base run's seed offset; the ablated run takes the next
	off       core.Behaviour
	// bitTorrent also runs the genuine BitTorrent baseline (tracker-only
	// discovery, tit-for-tat) for reference.
	bitTorrent bool
}

// runAblation runs the base and ablated scenarios (and the BitTorrent
// baseline, if asked for) concurrently: they are independent simulations.
func (r *Runner) runAblation(a ablation) (AblationOutcome, error) {
	out := AblationOutcome{Name: a.name}
	tasks := []func(procs int) error{
		func(procs int) (err error) {
			out.Baseline, err = localityOf(r.ablationScenario(a.scenario+"-base", a.seed, core.Behaviour{}), procs)
			return
		},
		func(procs int) (err error) {
			out.Ablated, err = localityOf(r.ablationScenario(a.scenario, a.seed+1, a.off), procs)
			return
		},
	}
	if a.bitTorrent {
		tasks = append(tasks, func(procs int) error {
			viewers := workload.PopularPopulation().Scale(r.Scale.Fig6Population)
			bt, err := bittorrent.RunLocality(r.Seed+777, viewers, isp.TELE, r.Scale.Fig6Watch+10*time.Minute, procs)
			if err != nil {
				return err
			}
			out.ExtraDetail = fmt.Sprintf("  BitTorrent baseline (tracker-only + tit-for-tat): traffic locality %.1f%%, potential locality %.1f%% (probe progress %.0f%%)\n",
				100*bt.Report.TrafficLocality, 100*bt.Report.PotentialLocality, 100*bt.Progress)
			return nil
		})
	}
	if err := parallelDo(r.Workers, tasks...); err != nil {
		return AblationOutcome{}, err
	}
	return out, nil
}

// FidelityOutcome compares probe-side results between coarse and full
// background fidelity.
type FidelityOutcome struct {
	CoarseLocality float64
	FullLocality   float64
	CoarseEvents   uint64
	FullEvents     uint64
}

// Render formats the outcome.
func (f FidelityOutcome) Render() string {
	return fmt.Sprintf(
		"ablation background fidelity (batched vs per-sub-piece background peers)\n"+
			"  coarse background: probe locality %.1f%% (%d engine events)\n"+
			"  full background:   probe locality %.1f%% (%d engine events)\n"+
			"  expectation: similar locality, coarse run far cheaper\n",
		100*f.CoarseLocality, f.CoarseEvents, 100*f.FullLocality, f.FullEvents)
}

// AblationFidelity validates the coarse-background substitution on a small
// scenario: probe-side locality must be comparable while event counts drop.
func (r *Runner) AblationFidelity() (FidelityOutcome, error) {
	scenarios := make([]core.Scenario, 2)
	for i := range scenarios {
		scenarios[i] = r.ablationScenario("fidelity", 30+int64(i), core.Behaviour{})
		scenarios[i].Viewers = workload.PopularPopulation().Scale(r.Scale.Fig6Population)
	}
	scenarios[1].Fidelity = peer.FidelityFull
	cells, err := r.sweep(scenarios, nil)
	if err != nil {
		return FidelityOutcome{}, err
	}
	return FidelityOutcome{
		CoarseLocality: cells[0].rep.TrafficLocality,
		CoarseEvents:   cells[0].Result.EventsProcessed,
		FullLocality:   cells[1].rep.TrafficLocality,
		FullEvents:     cells[1].Result.EventsProcessed,
	}, nil
}
