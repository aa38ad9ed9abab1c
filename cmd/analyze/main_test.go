package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"pplivesim/internal/tracefile"
)

// TestRunUsage: anything but one trace argument is a usage error, and a bad
// flag or a missing file is an error, all before any output.
func TestRunUsage(t *testing.T) {
	cases := []struct {
		args []string
		want string // substring of the error
	}{
		{nil, "usage"},
		{[]string{"-json"}, "usage"},
		{[]string{"a.jsonl", "b.jsonl"}, "usage"},
		{[]string{"-nosuchflag", "a.jsonl"}, "nosuchflag"},
		{[]string{filepath.Join(t.TempDir(), "missing.jsonl")}, "missing.jsonl"},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		err := run(c.args, &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("run(%v) = %v, want an error containing %q", c.args, err, c.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("run(%v) printed a report before failing", c.args)
		}
	}
}

// TestTracegenRoundTrip: a trace written by cmd/tracegen (tiny audience,
// short watch, the probe in full capture) reads back whole: the text report
// counts every record the file holds, and -json emits the report as JSON
// with the probe's data transmissions in it.
func TestTracegenRoundTrip(t *testing.T) {
	gobin := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(gobin); err != nil {
		t.Skipf("no go command to build cmd/tracegen: %v", err)
	}
	dir := t.TempDir()
	tracegen := filepath.Join(dir, "tracegen")
	if out, err := exec.Command(gobin, "build", "-o", tracegen, "pplivesim/cmd/tracegen").CombinedOutput(); err != nil {
		t.Fatalf("build tracegen: %v\n%s", err, out)
	}
	trace := filepath.Join(dir, "trace.jsonl")
	if out, err := exec.Command(tracegen, "-scale", "0.005", "-watch", "20s", "-out", trace).CombinedOutput(); err != nil {
		t.Fatalf("tracegen: %v\n%s", err, out)
	}
	f, err := os.Open(trace)
	if err != nil {
		t.Fatal(err)
	}
	_, records, err := tracefile.Read(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) == 0 {
		t.Fatal("tracegen wrote no records")
	}

	var text, stderr bytes.Buffer
	if err := run([]string{trace}, &text, &stderr); err != nil {
		t.Fatal(err)
	}
	if want := strconv.Itoa(len(records)) + " captured datagrams"; !strings.Contains(text.String(), want) {
		t.Errorf("text report does not say %q:\n%s", want, text.String())
	}

	var js bytes.Buffer
	if err := run([]string{"-json", trace}, &js, &stderr); err != nil {
		t.Fatal(err)
	}
	var rep struct {
		ProbeISP           string         `json:"probeIsp"`
		TransmissionsByISP map[string]int `json:"transmissionsByIsp"`
	}
	if err := json.Unmarshal(js.Bytes(), &rep); err != nil {
		t.Fatalf("-json output: %v", err)
	}
	total := 0
	for _, n := range rep.TransmissionsByISP {
		total += n
	}
	if rep.ProbeISP != "TELE" || total == 0 {
		t.Errorf("-json report: probe %q, %d transmissions; want TELE and some", rep.ProbeISP, total)
	}
}
