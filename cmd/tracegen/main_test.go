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

// TestRunRejectsBadFlags: a bad flag value is an error that names the flag,
// returned before any simulation is built (so no trace is written).
func TestRunRejectsBadFlags(t *testing.T) {
	cases := []struct {
		args []string
		want string // substring of the error
	}{
		{[]string{"-probe", "x"}, "-probe"},
		{[]string{"-channel", "x"}, "-channel"},
		{[]string{"-scale", "0"}, "-scale"},
		{[]string{"-scale", "-1"}, "-scale"},
		{[]string{"-scale", "NaN"}, "-scale"},
		{[]string{"-watch", "0s"}, "-watch"},
		{[]string{"-watch", "-1m"}, "-watch"},
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
			t.Errorf("run(%v) wrote a trace before failing", c.args)
		}
	}
}

// TestRunWritesTrace: a tiny run writes a trace file that reads back with as
// many records as the command reports, and nothing to stdout.
func TestRunWritesTrace(t *testing.T) {
	out := filepath.Join(t.TempDir(), "trace.jsonl")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-scale", "0.005", "-watch", "20s", "-probe", "cnc", "-out", out}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if stdout.Len() != 0 {
		t.Errorf("-out file also wrote %d bytes to stdout", stdout.Len())
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	hdr, records, err := tracefile.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Probe != "cnc" || hdr.ProbeISP != "CNC" || len(hdr.Trackers) == 0 {
		t.Errorf("header = %+v, want the cnc probe and its trackers", hdr)
	}
	if len(records) == 0 {
		t.Fatal("trace holds no records")
	}
	if want := "wrote " + strconv.Itoa(len(records)) + " records"; !strings.Contains(stderr.String(), want) {
		t.Errorf("stderr = %q, want %q", stderr.String(), want)
	}
}
