package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"pplivesim/internal/tracefile"
)

// TestRunRejectsBadFlags: a bad flag value, or a scenario the flags make
// invalid, is an error that names the flag, returned before any simulation is
// built (so nothing is printed and no trace is written).
func TestRunRejectsBadFlags(t *testing.T) {
	cases := []struct {
		args []string
		want string // substring of the error
	}{
		{[]string{"-fidelity", "x"}, "-fidelity"},
		{[]string{"-selection", "x"}, "-selection"},
		{[]string{"-fault", "x"}, "-fault"},
		{[]string{"-probes", "tele,x"}, "-probes"},
		{[]string{"-probes", "tele,tele"}, "-probes"},
		{[]string{"-probes", "tele,tele", "-channel", "multi"}, "-probes"},
		{[]string{"-channel", "x"}, "-channel"},
		{[]string{"-channel", "multi", "-switch-fraction", "2"}, "-switch-fraction"},
		{[]string{"-channel", "multi", "-switch-fraction", "NaN"}, "-switch-fraction"},
		// Left to Scenario.Validate, which runs before the header is printed.
		{[]string{"-channel", "multi", "-median-dwell", "0s"}, "median dwell"},
		{[]string{"-shards", "300"}, "-shards"},
		{[]string{"-scale", "0"}, "-scale"},
		{[]string{"-scale", "-1"}, "-scale"},
		{[]string{"-scale", "NaN"}, "-scale"},
		{[]string{"-watch", "0s"}, "-watch"},
		{[]string{"-watch", "-1m"}, "-watch"},
		{[]string{"-trace", filepath.Join(t.TempDir(), "missing")}, "-trace"},
		{[]string{"extra"}, "extra"},
		{[]string{"-nosuchflag"}, "nosuchflag"},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		err := run(c.args, &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("run(%v) = %v, want an error containing %q", c.args, err, c.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("run(%v) started a run before failing:\n%s", c.args, stdout.String())
		}
	}
}

// TestRunPrintsProbeReport: a small run prints the scenario header, the
// completion line and the probe's block, with its locality and continuity.
func TestRunPrintsProbeReport(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario run")
	}
	var stdout, stderr bytes.Buffer
	args := []string{"-scale", "0.05", "-watch", "3m", "-warmup", "2m", "-probes", "tele"}
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run(%v) = %v\n%s", args, err, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"scenario popular:",
		"\ncompleted:",
		"\n=== probe tele (TELE) ===\n",
		"traffic locality (same-ISP share of downloaded bytes):",
		"\nplayback continuity: ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout lacks %q:\n%s", want, out)
		}
	}
}

// TestRunWritesTraces: with -trace, a tiny two-channel run saves one trace per
// probe that reads back with as many records as psim reports, under a header
// naming that probe's own channel and source.
func TestRunWritesTraces(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	args := []string{"-channel", "multi", "-probes", "cnc", "-scale", "0.005", "-watch", "20s", "-warmup", "1m", "-trace", dir}
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run(%v) = %v\n%s", args, err, stderr.String())
	}
	out := stdout.String()
	for _, c := range []struct {
		probe, source string
		channel       uint32
	}{
		{"cnc-popular-live", "58.32.0.6", 1},
		{"cnc-unpopular-live", "58.32.0.7", 2},
	} {
		path := filepath.Join(dir, c.probe+".jsonl")
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		hdr, records, err := tracefile.Read(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if hdr.Probe != c.probe || hdr.ProbeISP != "CNC" || hdr.Source != c.source || hdr.Channel != c.channel || len(hdr.Trackers) == 0 {
			t.Errorf("%s header = %+v, want probe %s of CNC on channel %d, source %s and the trackers", path, hdr, c.probe, c.channel, c.source)
		}
		if len(records) == 0 {
			t.Errorf("%s holds no records", path)
		}
		if want := "trace: " + strconv.Itoa(len(records)) + " records in " + path + "\n"; !strings.Contains(out, want) {
			t.Errorf("stdout lacks %q:\n%s", want, out)
		}
	}
}
