// Command tracegen runs a scenario and saves a probe's raw packet trace in
// the repository's trace format (JSON lines with a context header) — the
// simulation's counterpart of exporting a Wireshark capture for offline
// analysis. cmd/analyze consumes the output.
//
// Usage:
//
//	tracegen [-channel popular] [-scale 0.15] [-watch 10m] [-probe tele]
//	         [-seed 7] [-out trace.jsonl]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"pplivesim"
	"pplivesim/internal/isp"
	"pplivesim/internal/tracefile"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func probeISP(name string) (pplive.ISP, error) {
	switch name {
	case "tele":
		return isp.TELE, nil
	case "cnc":
		return isp.CNC, nil
	case "cer":
		return isp.CER, nil
	case "other":
		return isp.OtherCN, nil
	case "mason", "foreign":
		return isp.Foreign, nil
	default:
		return 0, fmt.Errorf("unknown probe %q", name)
	}
}

// run is the whole command; "-out -" writes the trace to stdout. The flags
// are checked before the simulation is built, and -out is created once it
// has run.
func run(args []string, stdout, stderr io.Writer) error {
	flags := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	flags.SetOutput(stderr)
	channel := flags.String("channel", "popular", "popular or unpopular")
	scale := flags.Float64("scale", 0.15, "population scale")
	watch := flags.Duration("watch", 10*time.Minute, "probe watch duration")
	probe := flags.String("probe", "tele", "probe ISP: tele, cnc, cer, other, mason")
	seed := flags.Int64("seed", 7, "random seed")
	out := flags.String("out", "-", "output file (default stdout)")
	if err := flags.Parse(args); err != nil {
		return err
	}
	if flags.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", flags.Arg(0))
	}

	category, err := probeISP(*probe)
	if err != nil {
		return fmt.Errorf("-probe: %w", err)
	}
	if !(*scale > 0) {
		return fmt.Errorf("-scale %g: must be positive", *scale)
	}
	if *watch <= 0 {
		return fmt.Errorf("-watch %s: must be positive", *watch)
	}

	var sc pplive.Scenario
	switch *channel {
	case "popular":
		sc = pplive.PopularScenario(*seed, *scale)
	case "unpopular":
		sc = pplive.UnpopularScenario(*seed, *scale)
	default:
		return fmt.Errorf("-channel: unknown channel %q", *channel)
	}
	sc.Watch = *watch
	sc.WarmUp = 5 * time.Minute
	sc.ArrivalWindow = 3 * time.Minute
	// Tracefile export needs the raw datagram trace, so opt this probe into
	// full capture (the default telemetry is streaming-only).
	sc.Probes = []pplive.ProbeSpec{{Name: *probe, ISP: category, FullCapture: true}}

	res, err := pplive.RunScenario(sc)
	if err != nil {
		return err
	}

	hdr := tracefile.Header{
		Probe:    *probe,
		ProbeISP: category.String(),
		Source:   res.SourceAddr.String(),
		Channel:  uint32(sc.Spec.Channel),
	}
	// res.Trackers is a map; sort so the header (and thus the whole output
	// file) is byte-identical across runs of the same seed.
	for t := range res.Trackers {
		hdr.Trackers = append(hdr.Trackers, t.String())
	}
	sort.Strings(hdr.Trackers)

	records := res.Probes[0].Recorder.Records()
	if *out == "-" {
		if err := tracefile.Write(stdout, hdr, records); err != nil {
			return err
		}
	} else {
		f, err := os.Create(*out)
		if err != nil {
			return fmt.Errorf("-out: %w", err)
		}
		if err := tracefile.Write(f, hdr, records); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("-out %s: %w", *out, err)
		}
	}
	fmt.Fprintf(stderr, "tracegen: wrote %d records\n", len(records))
	return nil
}
