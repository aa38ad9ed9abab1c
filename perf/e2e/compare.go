package main

import (
	"fmt"
	"io"
)

// Verdicts of one (workload, end-to-end metric) comparison.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// relSpread is the distance between the quartiles of vals (nearest rank) as
// a share of their median; with fewer than four values it is the full range.
func relSpread(vals []float64) float64 {
	med := median(vals)
	if len(vals) < 2 || med == 0 {
		return 0
	}
	return (percentile(vals, 0.75) - percentile(vals, 0.25)) / med
}

// verdict judges change b against parent a for one metric: regressed when b
// is worse than a by more than the claim bound; unresolved when it is not
// but either side's rep-to-rep spread is wider than that bound, so "no
// worse" cannot be told from noise; ok otherwise.
func verdict(d metricDef, a, b metricValue) (worse float64, v string) {
	if a.Value != 0 {
		worse = (b.Value - a.Value) / a.Value
		if d.Better == "higher" {
			worse = -worse
		}
	}
	switch {
	case worse > d.claim:
		return worse, verdictRegressed
	case relSpread(a.Reps) > d.claim || relSpread(b.Reps) > d.claim:
		return worse, verdictUnresolved
	default:
		return worse, verdictOK
	}
}

// compareFiles prints one row per (workload, end-to-end metric) of two -out
// files and the exact-count layer metrics that changed. It reports whether
// any metric regressed or the failed-operation share rose.
func compareFiles(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := readSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSet(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A: %s  commit %s  %s\nB: %s  commit %s  %s\n", pathA, a.Commit, a.Machine, pathB, b.Commit, b.Machine)
	if a.Machine != b.Machine {
		fmt.Fprintln(w, "warning: the two sets come from different machines; host-time rows are not comparable")
	}
	byName := map[string]workloadResult{}
	for _, wl := range b.Workloads {
		byName[wl.Workload] = wl
	}
	fmt.Fprintf(w, "%-22s %-22s %14s %14s %9s %7s  %s\n", "workload", "metric", "A", "B", "worse", "bound", "verdict")
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Workload]
		if !ok {
			fmt.Fprintf(w, "%-22s missing from B\n", wa.Workload)
			regressed = true
			continue
		}
		for _, d := range endToEnd {
			worse, v := verdict(d, wa.EndToEnd[d.Name], wb.EndToEnd[d.Name])
			fmt.Fprintf(w, "%-22s %-22s %14.6g %14.6g %+8.2f%% %6.1f%%  %s\n",
				wa.Workload, d.Name, wa.EndToEnd[d.Name].Value, wb.EndToEnd[d.Name].Value, 100*worse, 100*d.claim, v)
			regressed = regressed || v == verdictRegressed
		}
		// ops_failed/ops_attempted must not rise (cross-multiplied).
		if wb.OpsFailed*wa.OpsAttempted > wa.OpsFailed*wb.OpsAttempted {
			fmt.Fprintf(w, "%-22s ops_failed/ops_attempted rose: %d/%d -> %d/%d\n", wa.Workload, wa.OpsFailed, wa.OpsAttempted, wb.OpsFailed, wb.OpsAttempted)
			regressed = true
		}
		same := wa.TrajectoryFP == wb.TrajectoryFP
		fmt.Fprintf(w, "%-22s %-22s %14s %14s  identical=%v\n", wa.Workload, "trajectory_fp", wa.TrajectoryFP, wb.TrajectoryFP, same)
		for _, d := range perLayer() {
			va, oka := wa.PerLayer[d.Name]
			vb, okb := wb.PerLayer[d.Name]
			if d.exact && oka && okb && va.Value != vb.Value {
				fmt.Fprintf(w, "%-22s %-34s %14.6g -> %-14.6g exact count changed\n", wa.Workload, d.Name, va.Value, vb.Value)
			}
		}
	}
	return regressed, nil
}
