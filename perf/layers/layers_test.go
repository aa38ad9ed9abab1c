package layers

import (
	"regexp"
	"testing"

	"pplivesim/internal/peer"
)

// TestPeerHarnessReachesSteady guards the peer.*_ns drivers against timing
// an idle client: the harness must hold a steady-phase client with a full
// neighbour table whose scheduler tick really requests data.
func TestPeerHarnessReachesSteady(t *testing.T) {
	for name, config := range map[string]func() (*PeerHarness, error){
		"probe":      func() (*PeerHarness, error) { return NewPeerHarness(peer.DefaultConfig) },
		"background": func() (*PeerHarness, error) { return NewPeerHarness(peer.BackgroundConfig) },
	} {
		h, err := config()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := h.Client.Phase(); got != peer.PhaseSteady {
			t.Errorf("%s: phase %v, want steady", name, got)
		}
		// The source is a neighbour too.
		if got := h.Client.NumNeighbors(); got != harnessNeighbors+1 {
			t.Errorf("%s: %d neighbours, want %d", name, got, harnessNeighbors+1)
		}
		h.Advance()
		reqs := h.Tick()
		if len(reqs) == 0 {
			t.Fatalf("%s: a fired scheduler tick emitted no data requests", name)
		}
		before := h.Client.Stats().DataRepliesGot
		for _, r := range reqs {
			h.Client.HandleMessage(r.To, h.Reply(r))
		}
		if got := h.Client.Stats().DataRepliesGot - before; got != uint64(len(reqs)) {
			t.Errorf("%s: client accepted %d of %d replies", name, got, len(reqs))
		}
		if c := h.Client.BufferStats().Continuity(); c < 0.99 {
			t.Errorf("%s: harness playback continuity %.3f", name, c)
		}
	}
}

// TestDriversRun runs every layer driver once and checks each reports a
// positive cost under a well-formed, unique name.
func TestDriversRun(t *testing.T) {
	res, err := Run(func(_ string, fn func()) { fn() })
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	seen := map[string]bool{}
	for _, r := range res {
		if !nameRE.MatchString(r.Name) || seen[r.Name] {
			t.Errorf("bad or repeated driver name %q", r.Name)
		}
		seen[r.Name] = true
		if r.Value <= 0 {
			t.Errorf("%s = %v %s, want > 0", r.Name, r.Value, r.Unit)
		}
		t.Logf("%-32s %12.2f %s", r.Name, r.Value, r.Unit)
	}
	if len(res) != len(Names()) {
		t.Errorf("Run returned %d results, Names lists %d", len(res), len(Names()))
	}
}
