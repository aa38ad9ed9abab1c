package experiments

import (
	"os"
	"runtime"
	"testing"

	"pplivesim/internal/simnet"
)

// TestPaperScalePopularRun executes the full-size popular-channel scenario —
// the paper's ~1300-viewer audience watched for two hours — and checks that
// the probe streams essentially gaplessly while locality amplifies. The run
// takes tens of minutes of wall time on one core, so it is gated behind an
// environment variable rather than -short:
//
//	PPLIVE_PAPER_SCALE=1 go test ./internal/experiments -run TestPaperScalePopularRun -v -timeout 2h
//
// The run uses one event-loop worker per core, up to the six ISP domains; the
// trajectory and every printed metric are identical at any worker count.
func TestPaperScalePopularRun(t *testing.T) {
	if os.Getenv("PPLIVE_PAPER_SCALE") == "" {
		t.Skip("set PPLIVE_PAPER_SCALE=1 to run the ~1300-viewer, 2-hour scenario")
	}
	r := &Runner{Scale: PaperScale(), Seed: 20081011}
	// Above simnet.DefaultShards, Shards selects the scaled partition, a
	// different trajectory.
	r.Shards = min(runtime.GOMAXPROCS(0), simnet.DefaultShards)
	out, err := r.Popular()
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Result.Scenario.Viewers.Total(); got < 1300 {
		t.Fatalf("paper scale spawned %d initial viewers, want >= 1300", got)
	}
	var cont float64
	found := false
	for _, p := range out.Result.Probes {
		if p.Name == ProbeTELE {
			cont = p.Client.BufferStats().Continuity()
			found = true
		}
	}
	if !found {
		t.Fatal("TELE probe missing from paper-scale run")
	}
	rep := out.Reports[ProbeTELE]
	t.Logf("paper-scale popular: continuity %.4f, traffic locality %.3f, potential locality %.3f, wall %s",
		cont, rep.TrafficLocality, rep.PotentialLocality, out.Wall)
	if cont < 0.99 {
		t.Errorf("TELE probe continuity %.4f, want >= 0.99", cont)
	}
	if rep.TrafficLocality == 0 {
		t.Error("traffic locality not measured")
	}
}
