// Command analyze runs the paper's full offline analysis pipeline over a
// saved probe trace (what `psim -trace DIR` writes, one DIR/<probe>.jsonl per
// probe): request/reply matching, IP→ASN resolution against the synthetic
// registry, and every figure statistic — the same workflow the authors
// applied to their Wireshark captures.
//
// Usage:
//
//	analyze [-json] DIR/tele.jsonl
//	analyze [-json] - < DIR/tele.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"pplivesim/internal/analysis"
	"pplivesim/internal/asnmap"
	"pplivesim/internal/experiments"
	"pplivesim/internal/isp"
	"pplivesim/internal/tracefile"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "analyze:", err)
		os.Exit(1)
	}
}

// run is the whole command; the trace argument "-" reads standard input.
func run(args []string, stdout, stderr io.Writer) error {
	flags := flag.NewFlagSet("analyze", flag.ContinueOnError)
	flags.SetOutput(stderr)
	jsonOut := flags.Bool("json", false, "emit the full report as JSON instead of text")
	if err := flags.Parse(args); err != nil {
		return err
	}
	if flags.NArg() != 1 {
		return fmt.Errorf("usage: analyze [-json] <trace.jsonl|->")
	}

	var in io.Reader = os.Stdin
	if name := flags.Arg(0); name != "-" {
		f, err := os.Open(name)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}

	hdr, records, err := tracefile.Read(in)
	if err != nil {
		return err
	}
	source, trackers, err := hdr.ParseAddrs()
	if err != nil {
		return err
	}

	var probeCategory isp.ISP
	for _, c := range isp.All() {
		if c.String() == hdr.ProbeISP {
			probeCategory = c
		}
	}
	if !probeCategory.Valid() {
		return fmt.Errorf("header has unknown probe ISP %q", hdr.ProbeISP)
	}

	rep := analysis.Analyze(analysis.Input{
		Records:  records,
		Resolver: asnmap.SyntheticInternet(),
		Trackers: trackers,
		Source:   source,
		ProbeISP: probeCategory,
	})

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}

	title := fmt.Sprintf("offline analysis: probe %s (%s), %d captured datagrams",
		hdr.Probe, hdr.ProbeISP, len(records))
	fmt.Fprintln(stdout, experiments.ProbeSummary(title, rep))
	return nil
}
