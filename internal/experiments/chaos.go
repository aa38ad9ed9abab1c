package experiments

import (
	"fmt"
	"strings"
	"time"

	"pplivesim/internal/core"
	"pplivesim/internal/fault"
	"pplivesim/internal/isp"
)

// ChaosTarget is the playback-continuity level counted as healthy when
// scoring recovery from injected faults.
const ChaosTarget = 0.95

// Chaos runs (once, then cached) the popular-channel scenario under the
// "combo" fault preset: source crash, tracker outage, TELE-CNC transit
// degradation, and kill-churn staggered through the watch window. The same
// locality mechanisms the paper measures under benign churn are scored here
// for how they degrade and recover.
func (r *Runner) Chaos() (*RunOutputs, error) {
	return r.chaos.get(func() (*RunOutputs, error) {
		sc := r.buildScenario("chaos", true, 9000, r.Scale.Population, r.Scale.Watch)
		fs, err := fault.Preset("combo", sc.WarmUp, sc.Watch)
		if err != nil {
			return nil, err
		}
		sc.Faults = fs
		return runScenario(sc, allProcs)
	})
}

// ResilienceSummary renders one probe's per-fault-window resilience metrics:
// continuity dip depth and duration, time to sustained recovery, and how far
// the probe's per-ISP traffic mix shifted while the fault was active.
func ResilienceSummary(res *core.Result, probe string) (string, error) {
	idx, err := probeIndex(res, probe)
	if err != nil {
		return "", err
	}
	rep, err := res.ProbeResilience(idx, ChaosTarget)
	if err != nil {
		return "", err
	}

	var b strings.Builder
	fmt.Fprintf(&b, "probe %s — continuity target %.2f\n", probe, rep.Target)
	fmt.Fprintf(&b, "  %-28s %8s %6s %8s %9s %6s\n",
		"fault window", "min-cont", "dip", "below", "recover", "shift")
	for _, w := range rep.Windows {
		rec := "never"
		if w.Recovered {
			rec = fmtDur(w.TimeToRecover)
		}
		fmt.Fprintf(&b, "  %-28s %8.3f %6.3f %8s %9s %6.2f\n",
			fmt.Sprintf("%s @%s", w.Label, fmtDur(w.Start)),
			w.MinContinuity, w.DipDepth, fmtDur(w.DipDuration), rec, w.ShareShift)
		if len(w.ShareBefore) > 0 && len(w.ShareDuring) > 0 {
			fmt.Fprintf(&b, "    traffic mix before→during:")
			for _, cat := range isp.All() {
				before, during := w.ShareBefore[cat], w.ShareDuring[cat]
				if before == 0 && during == 0 {
					continue
				}
				fmt.Fprintf(&b, "  %s %.0f%%→%.0f%%", cat, 100*before, 100*during)
			}
			fmt.Fprintln(&b)
		}
	}
	return b.String(), nil
}

// fmtDur trims sub-second noise from durations for table display.
func fmtDur(d time.Duration) string {
	return d.Round(time.Second).String()
}
