// Command experiments regenerates every table and figure of the paper's
// evaluation section from fresh simulation runs, printing each section as it
// completes and optionally writing the whole report to a file (the
// repository's EXPERIMENTS.md is produced this way). The sections are the
// rows of internal/experiments.Sections; -only picks rows by id substring
// (a filter that matches nothing lists the ids) and -plots draws the picked
// rows' figures.
//
// Usage:
//
//	experiments [-scale quick|default|paper] [-seed N] [-only substr] [-out file]
//	            [-plots dir] [-workers N] [-shards N] [-fidelity mixed|full|flow]
//	            [-selection policy] [-cpuprofile file] [-memprofile file]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
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
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// run is the whole command. Every flag is checked before the first
// simulation starts.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	runner := &experiments.Runner{}
	scaleName := fs.String("scale", "default", "quick, default, or paper")
	fs.Int64Var(&runner.Seed, "seed", 20081011, "base random seed (default: the measurement start date)")
	only := fs.String("only", "", "run only sections whose id contains this substring")
	out := fs.String("out", "", "also append sections to this file")
	plots := fs.String("plots", "", "also render the sections' SVG figures into this directory")
	fs.IntVar(&runner.Workers, "workers", 0, "max concurrent scenario runs (0 = GOMAXPROCS); results are identical at any setting")
	fs.IntVar(&runner.Shards, "shards", simnet.DefaultShards, "event-loop workers per run, at most (one per ISP domain by default; runs executing side by side split the cores between them first). Up to 6, results are identical at any setting; above 6 (at most 256) it also selects the scaled partition of that many domains, a different trajectory that is again identical at any worker count")
	fs.Func("fidelity", "background population fidelity: "+strings.Join(peer.FidelityNames(), ", ")+" (default mixed)", func(v string) (err error) {
		runner.Fidelity, err = peer.ParseFidelity(v)
		return err
	})
	fs.Func("selection", "peer selection policy: "+strings.Join(selection.Names(), ", ")+" (default random)", func(v string) (err error) {
		runner.Selection, err = selection.ParseSpec(v)
		return err
	})
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile (taken at exit) to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	switch *scaleName {
	case "quick":
		runner.Scale = experiments.QuickScale()
	case "default":
		runner.Scale = experiments.DefaultScale()
	case "paper":
		runner.Scale = experiments.PaperScale()
	default:
		return fmt.Errorf("-scale %q: want quick, default or paper", *scaleName)
	}
	if runner.Workers < 0 {
		return fmt.Errorf("-workers %d: must be >= 0", runner.Workers)
	}
	if runner.Shards < 1 {
		return fmt.Errorf("-shards %d: must be >= 1", runner.Shards)
	}
	rows, err := experiments.Select(*only)
	if err != nil {
		return fmt.Errorf("-only: %w", err)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(stderr, "experiments: cpuprofile:", err)
			}
		}()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return fmt.Errorf("-memprofile: %w", err)
		}
		defer func() {
			runtime.GC() // settle allocations so the heap profile is meaningful
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "experiments: memprofile:", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(stderr, "experiments: memprofile:", err)
			}
		}()
	}

	report := stdout
	var sink *os.File
	if *out != "" {
		var err error
		if sink, err = os.Create(*out); err != nil {
			return fmt.Errorf("-out: %w", err)
		}
		// Closed explicitly on the success path below so a write error (full
		// disk, flushed on close) fails the run; this defer only covers the
		// error returns in between.
		defer sink.Close()
		report = io.MultiWriter(stdout, sink)
	}

	fmt.Fprintf(report, "experiment run: scale=%s seed=%d population×%.2f watch=%s fig6days=%d\n\n",
		*scaleName, runner.Seed, runner.Scale.Population, runner.Scale.Watch, runner.Scale.Fig6Days)

	start := time.Now()
	if *only == "" {
		// The full report derives most sections from the two shared traces;
		// run them concurrently before the sequential section sweep.
		fmt.Fprintln(stderr, "== warming shared runs (popular + unpopular in parallel) ==")
		if err := runner.Warm(); err != nil {
			return err
		}
	}
	progress := func(scenario string) { fmt.Fprintf(stderr, "  %s\n", scenario) }
	fw := &experiments.FigureWriter{Dir: *plots}
	drawn := false
	for _, s := range rows {
		fmt.Fprintf(stderr, "== running %s ==\n", s.ID)
		secStart := time.Now()
		body, err := s.Run(runner, progress)
		if err != nil {
			return fmt.Errorf("section %s: %w", s.ID, err)
		}
		fmt.Fprintf(report, "## %s: %s\n%s(wall %s)\n\n", s.ID, s.Title, body, time.Since(secStart).Round(time.Second))
		if *plots != "" && s.Plots != nil {
			if err := s.Plots(runner, fw); err != nil {
				return fmt.Errorf("plots %s: %w", s.ID, err)
			}
			drawn = true
		}
	}
	if drawn {
		fmt.Fprintf(stderr, "figures written to %s\n", *plots)
	}
	fmt.Fprintf(report, "total wall time: %s\n", time.Since(start).Round(time.Second))
	if sink != nil {
		if err := sink.Close(); err != nil {
			return fmt.Errorf("-out %s: %w", *out, err)
		}
	}
	return nil
}
