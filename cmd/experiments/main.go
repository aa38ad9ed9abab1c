// Command experiments regenerates every table and figure of the paper's
// evaluation section from fresh simulation runs, printing each section as it
// completes and optionally writing the whole report to a file (the
// repository's EXPERIMENTS.md is produced this way).
//
// Usage:
//
//	experiments [-scale quick|default|paper] [-seed N] [-only substr] [-out file]
//	            [-shards N] [-fidelity mixed|full|flow] [-selection policy]
//	            [-cpuprofile file] [-memprofile file]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"pplivesim/internal/experiments"
	"pplivesim/internal/peer"
	"pplivesim/internal/selection"
	"pplivesim/internal/simnet"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

type section struct {
	id    string
	title string
	gen   func(r *experiments.Runner) (string, error)
}

func sections() []section {
	return []section{
		{"fig2", "Figure 2 — China-TELE probe, popular program", func(r *experiments.Runner) (string, error) {
			out, err := r.Popular()
			if err != nil {
				return "", err
			}
			return experiments.FigureABC("", out.Reports[experiments.ProbeTELE]), nil
		}},
		{"fig3", "Figure 3 — China-TELE probe, unpopular program", func(r *experiments.Runner) (string, error) {
			out, err := r.Unpopular()
			if err != nil {
				return "", err
			}
			return experiments.FigureABC("", out.Reports[experiments.ProbeTELE]), nil
		}},
		{"fig4", "Figure 4 — USA-Mason probe, popular program", func(r *experiments.Runner) (string, error) {
			out, err := r.Popular()
			if err != nil {
				return "", err
			}
			return experiments.FigureABC("", out.Reports[experiments.ProbeMason]), nil
		}},
		{"fig5", "Figure 5 — USA-Mason probe, unpopular program", func(r *experiments.Runner) (string, error) {
			out, err := r.Unpopular()
			if err != nil {
				return "", err
			}
			return experiments.FigureABC("", out.Reports[experiments.ProbeMason]), nil
		}},
		{"fig6", "Figure 6 — traffic locality across the four-week schedule", func(r *experiments.Runner) (string, error) {
			pop, unpop, err := r.Fig6(func(day int) {
				fmt.Fprintf(os.Stderr, "  fig6 day %d/%d\n", day+1, r.Scale.Fig6Days)
			})
			if err != nil {
				return "", err
			}
			return experiments.RenderFig6(pop, unpop), nil
		}},
		{"fig7", "Figure 7 — peer-list response times, TELE probe / popular", func(r *experiments.Runner) (string, error) {
			out, err := r.Popular()
			if err != nil {
				return "", err
			}
			return experiments.ResponseTimes("", out.Reports[experiments.ProbeTELE]), nil
		}},
		{"fig8", "Figure 8 — peer-list response times, TELE probe / unpopular", func(r *experiments.Runner) (string, error) {
			out, err := r.Unpopular()
			if err != nil {
				return "", err
			}
			return experiments.ResponseTimes("", out.Reports[experiments.ProbeTELE]), nil
		}},
		{"fig9", "Figure 9 — peer-list response times, Mason probe / popular", func(r *experiments.Runner) (string, error) {
			out, err := r.Popular()
			if err != nil {
				return "", err
			}
			return experiments.ResponseTimes("", out.Reports[experiments.ProbeMason]), nil
		}},
		{"fig10", "Figure 10 — peer-list response times, Mason probe / unpopular", func(r *experiments.Runner) (string, error) {
			out, err := r.Unpopular()
			if err != nil {
				return "", err
			}
			return experiments.ResponseTimes("", out.Reports[experiments.ProbeMason]), nil
		}},
		{"tab1", "Table 1 — average response time (s) to data requests", func(r *experiments.Runner) (string, error) {
			pop, err := r.Popular()
			if err != nil {
				return "", err
			}
			unpop, err := r.Unpopular()
			if err != nil {
				return "", err
			}
			rows := []string{
				experiments.DataRTRow("TELE-Popular", pop.Reports[experiments.ProbeTELE]),
				experiments.DataRTRow("TELE-Unpopular", unpop.Reports[experiments.ProbeTELE]),
				experiments.DataRTRow("Mason-Popular", pop.Reports[experiments.ProbeMason]),
				experiments.DataRTRow("Mason-Unpopular", unpop.Reports[experiments.ProbeMason]),
			}
			return strings.Join(rows, "\n") + "\n", nil
		}},
		{"fig11", "Figure 11 — connections and contributions, TELE probe / popular", func(r *experiments.Runner) (string, error) {
			out, err := r.Popular()
			if err != nil {
				return "", err
			}
			return experiments.Contributions("", out.Reports[experiments.ProbeTELE]), nil
		}},
		{"fig12", "Figure 12 — connections and contributions, TELE probe / unpopular", func(r *experiments.Runner) (string, error) {
			out, err := r.Unpopular()
			if err != nil {
				return "", err
			}
			return experiments.Contributions("", out.Reports[experiments.ProbeTELE]), nil
		}},
		{"fig13", "Figure 13 — connections and contributions, Mason probe / popular", func(r *experiments.Runner) (string, error) {
			out, err := r.Popular()
			if err != nil {
				return "", err
			}
			return experiments.Contributions("", out.Reports[experiments.ProbeMason]), nil
		}},
		{"fig14", "Figure 14 — connections and contributions, Mason probe / unpopular", func(r *experiments.Runner) (string, error) {
			out, err := r.Unpopular()
			if err != nil {
				return "", err
			}
			return experiments.Contributions("", out.Reports[experiments.ProbeMason]), nil
		}},
		{"fig15", "Figure 15 — rank vs RTT, TELE probe / popular", func(r *experiments.Runner) (string, error) {
			out, err := r.Popular()
			if err != nil {
				return "", err
			}
			return experiments.RTTCorrelation("", out.Reports[experiments.ProbeTELE]), nil
		}},
		{"fig16", "Figure 16 — rank vs RTT, TELE probe / unpopular", func(r *experiments.Runner) (string, error) {
			out, err := r.Unpopular()
			if err != nil {
				return "", err
			}
			return experiments.RTTCorrelation("", out.Reports[experiments.ProbeTELE]), nil
		}},
		{"fig17", "Figure 17 — rank vs RTT, Mason probe / popular", func(r *experiments.Runner) (string, error) {
			out, err := r.Popular()
			if err != nil {
				return "", err
			}
			return experiments.RTTCorrelation("", out.Reports[experiments.ProbeMason]), nil
		}},
		{"fig18", "Figure 18 — rank vs RTT, Mason probe / unpopular", func(r *experiments.Runner) (string, error) {
			out, err := r.Unpopular()
			if err != nil {
				return "", err
			}
			return experiments.RTTCorrelation("", out.Reports[experiments.ProbeMason]), nil
		}},
		{"multichannel", "Multi-channel — popular + unpopular running concurrently with channel-switching viewers", func(r *experiments.Runner) (string, error) {
			out, err := r.MultiChannel()
			if err != nil {
				return "", err
			}
			var b strings.Builder
			b.WriteString(experiments.MultiChannelSummary(out))
			b.WriteString(experiments.FigureABC("TELE probe pinned to the popular channel:", out.Reports[experiments.ProbeTELEPopular]))
			b.WriteString(experiments.FigureABC("TELE probe pinned to the unpopular channel:", out.Reports[experiments.ProbeTELEUnpopular]))
			return b.String(), nil
		}},
		{"ablation-referral", "Ablation — neighbor referral vs tracker-only (+ BitTorrent baseline)", func(r *experiments.Runner) (string, error) {
			out, err := r.AblationReferral()
			if err != nil {
				return "", err
			}
			return out.Render(), nil
		}},
		{"ablation-latency", "Ablation — latency-based neighbor selection", func(r *experiments.Runner) (string, error) {
			out, err := r.AblationLatencyBias()
			if err != nil {
				return "", err
			}
			return out.Render(), nil
		}},
		{"ablation-preference", "Ablation — performance-weighted scheduling", func(r *experiments.Runner) (string, error) {
			out, err := r.AblationPreference()
			if err != nil {
				return "", err
			}
			return out.Render(), nil
		}},
		{"ablation-fidelity", "Ablation — background fidelity substitution", func(r *experiments.Runner) (string, error) {
			out, err := r.AblationFidelity()
			if err != nil {
				return "", err
			}
			return out.Render(), nil
		}},
		{"frontier", "Locality frontier — biased peer selection: transit savings vs continuity/startup", func(r *experiments.Runner) (string, error) {
			pts, err := r.LocalityFrontier(func(name string) {
				fmt.Fprintf(os.Stderr, "  frontier %s\n", name)
			})
			if err != nil {
				return "", err
			}
			return experiments.RenderFrontier(pts), nil
		}},
		{"cdn", "Hybrid CDN+P2P — per-ISP edge offload vs locality under a flash crowd", func(r *experiments.Runner) (string, error) {
			pts, err := r.CDNOffload(func(name string) {
				fmt.Fprintf(os.Stderr, "  cdn %s\n", name)
			})
			if err != nil {
				return "", err
			}
			return experiments.RenderCDN(pts), nil
		}},
		{"chaos", "Chaos — dip/recovery and traffic shift under the combo fault preset", func(r *experiments.Runner) (string, error) {
			out, err := r.Chaos()
			if err != nil {
				return "", err
			}
			var b strings.Builder
			for _, name := range []string{experiments.ProbeTELE, experiments.ProbeMason} {
				s, err := experiments.ResilienceSummary("", out.Result, name)
				if err != nil {
					return "", err
				}
				b.WriteString(s)
				b.WriteString("\n")
			}
			return b.String(), nil
		}},
	}
}

func run() error {
	scaleName := flag.String("scale", "default", "quick, default, or paper")
	seed := flag.Int64("seed", 20081011, "base random seed (default: the measurement start date)")
	only := flag.String("only", "", "run only sections whose id contains this substring")
	out := flag.String("out", "", "also append sections to this file")
	plots := flag.String("plots", "", "also render SVG figures into this directory")
	workers := flag.Int("workers", 0, "max concurrent scenario runs (0 = GOMAXPROCS); results are identical at any setting")
	shards := flag.Int("shards", simnet.DefaultShards, "event-loop workers per run, at most (one per ISP domain by default; runs executing side by side split the cores between them first). Up to 6, results are identical at any setting; above 6 (at most 256) it also selects the scaled partition of that many domains, a different trajectory that is again identical at any worker count")
	fidelityName := flag.String("fidelity", "mixed", "background population fidelity: "+strings.Join(peer.FidelityNames(), ", "))
	selectionName := flag.String("selection", "random", "peer selection policy: "+strings.Join(selection.Names(), ", "))
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (taken at exit) to this file")
	flag.Parse()

	if *workers < 0 {
		return fmt.Errorf("-workers %d: must be >= 0", *workers)
	}
	if *shards < 1 {
		return fmt.Errorf("-shards %d: must be >= 1", *shards)
	}
	fidelity, err := peer.ParseFidelity(*fidelityName)
	if err != nil {
		return err
	}
	selSpec, err := selection.ParseSpec(*selectionName)
	if err != nil {
		return err
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: cpuprofile:", err)
			}
		}()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		defer func() {
			runtime.GC() // settle allocations so the heap profile is meaningful
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: memprofile:", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: memprofile:", err)
			}
		}()
	}

	var scale experiments.Scale
	switch *scaleName {
	case "quick":
		scale = experiments.QuickScale()
	case "default":
		scale = experiments.DefaultScale()
	case "paper":
		scale = experiments.PaperScale()
	default:
		return fmt.Errorf("unknown scale %q", *scaleName)
	}

	var sink *os.File
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		// Closed explicitly on the success path below so a write error (full
		// disk, flushed on close) fails the run; this defer only covers the
		// error returns in between.
		defer f.Close()
		sink = f
	}
	emit := func(s string) {
		fmt.Print(s)
		if sink != nil {
			fmt.Fprint(sink, s)
		}
	}

	runner := experiments.NewRunner(scale, *seed)
	runner.Workers = *workers
	runner.Shards = *shards
	runner.Fidelity = fidelity
	runner.Selection = selSpec
	emit(fmt.Sprintf("experiment run: scale=%s seed=%d population×%.2f watch=%s fig6days=%d\n\n",
		*scaleName, *seed, scale.Population, scale.Watch, scale.Fig6Days))

	start := time.Now()
	if *only == "" {
		// The full report derives most sections from the two shared traces;
		// run them concurrently before the sequential section sweep.
		fmt.Fprintln(os.Stderr, "== warming shared runs (popular + unpopular in parallel) ==")
		if err := runner.Warm(); err != nil {
			return err
		}
	}
	for _, s := range sections() {
		if *only != "" && !strings.Contains(s.id, *only) {
			continue
		}
		fmt.Fprintf(os.Stderr, "== running %s ==\n", s.id)
		secStart := time.Now()
		body, err := s.gen(runner)
		if err != nil {
			return fmt.Errorf("section %s: %w", s.id, err)
		}
		emit(fmt.Sprintf("## %s: %s\n%s(wall %s)\n\n", s.id, s.title, body, time.Since(secStart).Round(time.Second)))
	}
	if *plots != "" {
		// The frontier figures reuse the cached sweep, so they only render
		// when the frontier section ran (or on a full run).
		if strings.Contains("frontier", *only) {
			if err := renderFrontierPlots(runner, *plots); err != nil {
				return fmt.Errorf("plots: %w", err)
			}
		}
		if strings.Contains("cdn", *only) {
			if err := renderCDNPlots(runner, *plots); err != nil {
				return fmt.Errorf("plots: %w", err)
			}
		}
		if *only == "" {
			if err := renderPlots(runner, *plots); err != nil {
				return fmt.Errorf("plots: %w", err)
			}
		}
		fmt.Fprintf(os.Stderr, "figures written to %s\n", *plots)
	}
	emit(fmt.Sprintf("total wall time: %s\n", time.Since(start).Round(time.Second)))
	if sink != nil {
		if err := sink.Close(); err != nil {
			return fmt.Errorf("out %s: %w", *out, err)
		}
	}
	return nil
}

// renderFrontierPlots draws the locality-frontier figures from the cached
// sweep (running it if the -only filter skipped the section).
func renderFrontierPlots(runner *experiments.Runner, dir string) error {
	fw := experiments.NewFigureWriter(dir)
	pts, err := runner.LocalityFrontier(nil)
	if err != nil {
		return err
	}
	return fw.WriteFrontier("frontier", "Locality frontier, TELE probe", pts)
}

// renderCDNPlots draws the hybrid CDN+P2P figures from the cached sweep
// (running it if the -only filter skipped the section).
func renderCDNPlots(runner *experiments.Runner, dir string) error {
	fw := experiments.NewFigureWriter(dir)
	pts, err := runner.CDNOffload(nil)
	if err != nil {
		return err
	}
	return fw.WriteCDN("cdn", "Hybrid CDN+P2P, TELE probe", pts)
}

// renderPlots draws every figure from the cached runs (running them if the
// -only filter skipped them).
func renderPlots(runner *experiments.Runner, dir string) error {
	fw := experiments.NewFigureWriter(dir)
	pop, err := runner.Popular()
	if err != nil {
		return err
	}
	unpop, err := runner.Unpopular()
	if err != nil {
		return err
	}
	views := []struct {
		probe                           string
		out                             *experiments.RunOutputs
		prefix, title, rt, contrib, rtt string
	}{
		{experiments.ProbeTELE, pop, "fig2", "TELE probe / popular", "fig7-list-rt", "fig11", "fig15-rtt"},
		{experiments.ProbeTELE, unpop, "fig3", "TELE probe / unpopular", "fig8-list-rt", "fig12", "fig16-rtt"},
		{experiments.ProbeMason, pop, "fig4", "Mason probe / popular", "fig9-list-rt", "fig13", "fig17-rtt"},
		{experiments.ProbeMason, unpop, "fig5", "Mason probe / unpopular", "fig10-list-rt", "fig14", "fig18-rtt"},
	}
	for _, v := range views {
		rep := v.out.Reports[v.probe]
		if rep == nil {
			continue
		}
		if err := fw.WriteAll(v.prefix, v.title, rep, v.rt, v.contrib, v.rtt); err != nil {
			return err
		}
	}
	return nil
}
