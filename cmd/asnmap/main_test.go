package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunTable: -table prints the column header and the registry's records.
func TestRunTable(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-table"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(stdout.String(), "\n")
	if fields := strings.Fields(lines[0]); strings.Join(fields, " ") != "PREFIX ASN ISP AS NAME" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(stdout.String(), "129.174.0.0/16       24       Foreign GMU George Mason University") {
		t.Errorf("table lacks the George Mason record:\n%s", stdout.String())
	}
}

// TestRunResolves: a TELE address resolves to TELE both from the registry
// and over the simulated wire service.
func TestRunResolves(t *testing.T) {
	for _, args := range [][]string{{"58.32.0.1"}, {"-wire", "58.32.0.1"}} {
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err != nil {
			t.Fatalf("run(%v): %v", args, err)
		}
		fields := strings.Fields(stdout.String())
		if len(fields) < 3 || fields[0] != "58.32.0.1" || fields[1] != "AS4134" || fields[2] != "TELE" {
			t.Errorf("run(%v) printed %q, want 58.32.0.1 as AS4134 TELE", args, stdout.String())
		}
	}
}

// TestRunRejectsBadInput: an unparsable address is an error that names it,
// returned before anything is printed; so is a call with no address at all.
func TestRunRejectsBadInput(t *testing.T) {
	cases := []struct {
		args []string
		want string // substring of the error
	}{
		{[]string{"58.32.0.1", "not-an-ip"}, "not-an-ip"},
		{[]string{"-wire", "not-an-ip"}, "not-an-ip"},
		{nil, "no addresses"},
		{[]string{"-wire"}, "no addresses"},
		{[]string{"-nosuchflag"}, "nosuchflag"},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		err := run(c.args, &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("run(%v) = %v, want an error containing %q", c.args, err, c.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("run(%v) printed before failing:\n%s", c.args, stdout.String())
		}
	}
}
