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
