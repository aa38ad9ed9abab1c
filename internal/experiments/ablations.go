package experiments

import (
	"fmt"
	"strings"
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
	var b strings.Builder
	fmt.Fprintf(&b, "ablation %s\n", a.Name)
	fmt.Fprintf(&b, "  full mechanism:    traffic locality %.1f%%\n", 100*a.Baseline)
	fmt.Fprintf(&b, "  mechanism ablated: traffic locality %.1f%%\n", 100*a.Ablated)
	if a.ExtraDetail != "" {
		b.WriteString(a.ExtraDetail)
	}
	return b.String()
}

// ablationScenario is a mid-size popular scenario with a TELE probe used by
// every ablation (identical except for the toggled behaviour).
func (r *Runner) ablationScenario(name string, seedOffset int64, behaviour core.Behaviour) core.Scenario {
	pop := r.Scale.Fig6Population * 2
	watch := r.Scale.Fig6Watch
	sc := r.buildScenario(name, true, 500+seedOffset, pop, watch)
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

// localityPair runs the base and ablated scenarios of one ablation
// concurrently (they are independent simulations).
func (r *Runner) localityPair(base, ablated core.Scenario) (baseLoc, ablatedLoc float64, err error) {
	err = parallelDo(r.Workers,
		func(procs int) (err error) { baseLoc, err = localityOf(base, procs); return },
		func(procs int) (err error) { ablatedLoc, err = localityOf(ablated, procs); return },
	)
	return baseLoc, ablatedLoc, err
}

// AblationReferral disables neighbor referral (tracker-only discovery) and
// also runs the genuine BitTorrent baseline for reference. All three runs
// execute concurrently.
func (r *Runner) AblationReferral() (AblationOutcome, error) {
	var base, ablated float64
	var bt *bittorrent.LocalityResult
	err := parallelDo(r.Workers,
		func(procs int) (err error) {
			base, err = localityOf(r.ablationScenario("ablate-referral-base", 0, core.Behaviour{}), procs)
			return
		},
		func(procs int) (err error) {
			ablated, err = localityOf(r.ablationScenario("ablate-referral", 1, core.Behaviour{DisableReferral: true}), procs)
			return
		},
		func(int) (err error) {
			btViewers := workload.PopularPopulation().Scale(r.Scale.Fig6Population)
			bt, err = bittorrent.RunLocality(r.Seed+777, btViewers, isp.TELE, r.Scale.Fig6Watch+10*time.Minute)
			return
		},
	)
	if err != nil {
		return AblationOutcome{}, err
	}
	detail := fmt.Sprintf("  BitTorrent baseline (tracker-only + tit-for-tat): locality %.1f%% (probe progress %.0f%%)\n",
		100*bt.Locality, 100*bt.Progress)
	return AblationOutcome{
		Name:        "neighbor referral (vs tracker-only discovery)",
		Baseline:    base,
		Ablated:     ablated,
		ExtraDetail: detail,
	}, nil
}

// AblationLatencyBias disables connect-on-list-arrival latency bias.
func (r *Runner) AblationLatencyBias() (AblationOutcome, error) {
	base, ablated, err := r.localityPair(
		r.ablationScenario("ablate-latency-base", 10, core.Behaviour{}),
		r.ablationScenario("ablate-latency", 11, core.Behaviour{DisableLatencyBias: true}),
	)
	if err != nil {
		return AblationOutcome{}, err
	}
	return AblationOutcome{
		Name:     "latency-based neighbor selection",
		Baseline: base,
		Ablated:  ablated,
	}, nil
}

// AblationPreference disables performance-weighted data scheduling.
func (r *Runner) AblationPreference() (AblationOutcome, error) {
	base, ablated, err := r.localityPair(
		r.ablationScenario("ablate-pref-base", 20, core.Behaviour{}),
		r.ablationScenario("ablate-pref", 21, core.Behaviour{DisablePreference: true}),
	)
	if err != nil {
		return AblationOutcome{}, err
	}
	return AblationOutcome{
		Name:     "performance-weighted request scheduling",
		Baseline: base,
		Ablated:  ablated,
	}, nil
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
	mk := func(full bool, seedOffset int64, procs int) (float64, uint64, error) {
		sc := r.ablationScenario("fidelity", 30+seedOffset, core.Behaviour{})
		if full {
			sc.Fidelity = peer.FidelityFull
		}
		sc.Viewers = workload.PopularPopulation().Scale(r.Scale.Fig6Population)
		out, err := runScenario(sc, procs)
		if err != nil {
			return 0, 0, err
		}
		rep, err := report(out, ProbeTELE)
		if err != nil {
			return 0, 0, err
		}
		return rep.TrafficLocality, out.Result.EventsProcessed, nil
	}
	var out FidelityOutcome
	err := parallelDo(r.Workers,
		func(procs int) (err error) {
			out.CoarseLocality, out.CoarseEvents, err = mk(false, 0, procs)
			return
		},
		func(procs int) (err error) {
			out.FullLocality, out.FullEvents, err = mk(true, 1, procs)
			return
		},
	)
	if err != nil {
		return FidelityOutcome{}, err
	}
	return out, nil
}
