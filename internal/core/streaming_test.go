package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"pplivesim/internal/analysis"
	"pplivesim/internal/workload"
)

// TestStreamingReportParity is the streaming-telemetry tentpole's guard: on
// the three pinned golden scenarios, the online path (capture.Aggregator →
// analysis.Aggregate, built during the run) must produce a Report whose JSON
// is byte-for-byte identical to post-hoc analysis of the full captured trace
// (capture.Match → analysis.Analyze). Probes run in full-capture mode so one
// run exercises both paths over the very same datagrams; the CI determinism
// lane runs this at 1 and 4 workers, so the parity also proves the streaming
// aggregates are worker-count invariant.
func TestStreamingReportParity(t *testing.T) {
	cases := []struct {
		name  string
		seed  int64
		churn bool
		multi bool
	}{
		{name: "single/churn", seed: 7, churn: true},
		{name: "single/static", seed: 42},
		{name: "two-channel/switching", seed: 7, multi: true},
	}
	workers := goldenWorkers(t)
	for _, tc := range cases {
		var sc Scenario
		if tc.multi {
			if testing.Short() {
				continue // as in TestGoldenTraceDigest: several times the cost
			}
			sc = twoChannelScenario(tc.seed)
		} else {
			sc = smallScenario(tc.seed)
			if tc.churn {
				sc.Churn = workload.DefaultChurn()
			}
		}
		sc.Name = "parity"
		sc.Shards = workers
		res, err := RunScenario(sc)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range res.Probes {
			if p.Recorder == nil {
				t.Fatalf("%s: probe %q has no recorder in full-capture mode", tc.name, p.Name)
			}
			postHoc := analysis.Analyze(analysis.Input{
				Records:  p.Recorder.Records(),
				Resolver: res.Registry,
				Trackers: res.Trackers,
				Source:   p.Source,
				Edges:    res.Edges,
				ProbeISP: p.ISP,
			})
			streaming, err := res.ProbeReport(i)
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(postHoc)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(streaming)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s probe %q: streaming report differs from post-hoc\nstreaming: %s\npost-hoc:  %s",
					tc.name, p.Name, got, want)
			}
			// The in-memory series (not serialized) must agree too: the
			// figure pipeline reads it from the struct.
			for g, pts := range postHoc.ListRTSeries {
				sp := streaming.ListRTSeries[g]
				if len(sp) != len(pts) {
					t.Errorf("%s probe %q: ListRTSeries[%v] length %d vs %d", tc.name, p.Name, g, len(sp), len(pts))
					continue
				}
				for j := range pts {
					if sp[j] != pts[j] {
						t.Errorf("%s probe %q: ListRTSeries[%v][%d] = %+v, want %+v", tc.name, p.Name, g, j, sp[j], pts[j])
						break
					}
				}
			}
		}
	}
}

// TestStreamingModeKeepsNoTrace checks the memory contract of the default
// telemetry mode: no Recorder exists, yet the report is fully populated.
func TestStreamingModeKeepsNoTrace(t *testing.T) {
	sc := smallScenario(7)
	sc.Probes = []ProbeSpec{{Name: "tele-probe", ISP: sc.Probes[0].ISP}}
	res, err := RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	p := res.Probes[0]
	if p.Recorder != nil {
		t.Error("streaming mode retained a Recorder")
	}
	rep, err := res.ProbeReport(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.ReturnedByISP) == 0 || len(rep.Peers) == 0 || rep.TrafficLocality == 0 {
		t.Errorf("streaming report looks empty: returned=%v peers=%d locality=%v",
			rep.ReturnedByISP, len(rep.Peers), rep.TrafficLocality)
	}
	if _, err := res.ProbeReport(99); err == nil {
		t.Error("out-of-range probe index accepted")
	}
}
