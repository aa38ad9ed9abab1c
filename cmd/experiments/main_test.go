package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunRejectsBadFlags: a bad flag value is an error that names the flag,
// returned before any simulation starts (so no report header is printed).
func TestRunRejectsBadFlags(t *testing.T) {
	cases := []struct {
		args []string
		want string // substring of the error
	}{
		{[]string{"-scale", "bogus"}, "-scale"},
		{[]string{"-shards", "0"}, "-shards"},
		{[]string{"-workers", "-1"}, "-workers"},
		{[]string{"-fidelity", "x"}, "-fidelity"},
		{[]string{"-selection", "x"}, "-selection"},
		{[]string{"-only", "nosuch"}, "-only"},
		{[]string{"-only", "nosuch"}, "fig2, fig3"}, // this is where the ids are listed
		{[]string{"-out", filepath.Join(t.TempDir(), "no", "such", "dir", "report.txt")}, "-out"},
		{[]string{"-nosuchflag"}, "nosuchflag"},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		err := run(append([]string{"-scale", "quick"}, c.args...), &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("run(%v) = %v, want an error containing %q", c.args, err, c.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("run(%v) started a report before failing:\n%s", c.args, stdout.String())
		}
	}
}

// TestRunSelectedSections: -only runs the selected rows, -plots draws their
// figures and no others, and a selection with no figures says nothing about
// figures.
func TestRunSelectedSections(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario runs")
	}
	dir := filepath.Join(t.TempDir(), "figs")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-scale", "quick", "-only", "fig2", "-plots", dir}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if got := strings.Join(names, " "); got != "fig2a-returned.svg fig2c-traffic.svg" {
		t.Errorf("-only fig2 -plots wrote %q, want fig2a-returned.svg fig2c-traffic.svg", got)
	}
	if !strings.Contains(stderr.String(), "figures written to "+dir) {
		t.Errorf("stderr does not report the figures:\n%s", stderr.String())
	}

	empty := filepath.Join(t.TempDir(), "none")
	stdout.Reset()
	stderr.Reset()
	if err := run([]string{"-scale", "quick", "-only", "tab1", "-plots", empty}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	report := stdout.String()
	if !strings.Contains(report, "## tab1: Table 1") || strings.Count(report, "\n## ") != 1 {
		t.Errorf("want the tab1 section and no other:\n%s", report)
	}
	for _, row := range []string{"TELE-Popular", "TELE-Unpopular", "Mason-Popular", "Mason-Unpopular"} {
		if !strings.Contains(report, "  "+row+" ") {
			t.Errorf("Table 1 has no %s row:\n%s", row, report)
		}
	}
	if _, err := os.Stat(empty); !os.IsNotExist(err) {
		t.Errorf("-only tab1 -plots created %s (stat: %v); Table 1 has no figure", empty, err)
	}
	if strings.Contains(stderr.String(), "figures written") {
		t.Errorf("nothing was drawn, yet:\n%s", stderr.String())
	}
}
