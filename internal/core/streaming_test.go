package core

import "testing"

// TestStreamingModeKeepsNoTrace checks the memory contract of the default
// telemetry mode: no Recorder exists, yet the report is fully populated.
func TestStreamingModeKeepsNoTrace(t *testing.T) {
	t.Parallel()
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
