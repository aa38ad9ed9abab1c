package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunRejectsBadFlags: a bad flag value is an error that names the flag,
// returned before any simulation is built (so nothing is printed).
func TestRunRejectsBadFlags(t *testing.T) {
	cases := []struct {
		args []string
		want string // substring of the error
	}{
		{[]string{"-fidelity", "x"}, "-fidelity"},
		{[]string{"-selection", "x"}, "-selection"},
		{[]string{"-fault", "x"}, "-fault"},
		{[]string{"-probes", "tele,x"}, "-probes"},
		{[]string{"-shards", "300"}, "-shards"},
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
