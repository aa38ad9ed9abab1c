package pplive_test

import (
	"fmt"
	"log"
	"time"

	"pplivesim"
)

// ExampleRunScenario runs a small popular channel watched by one probe in
// China Telecom and checks the paper's headline: the probe downloads a
// larger share of its bytes from its own ISP than its peer lists offer.
// `go run ./cmd/psim -probes tele` prints the full analysis of such a run.
func ExampleRunScenario() {
	sc := pplive.PopularScenario(42, 0.03) // seed, population scale
	sc.Watch = 3 * time.Minute
	sc.WarmUp = 2 * time.Minute
	sc.ArrivalWindow = time.Minute
	sc.Probes = []pplive.ProbeSpec{{Name: "tele", ISP: pplive.TELE}}

	res, err := pplive.RunScenario(sc)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := pplive.AnalyzeProbe(res, 0) // trace matching + IP→ASN + stats
	if err != nil {
		log.Fatal(err)
	}
	continuity := res.Probes[0].Client.BufferStats().Continuity()
	fmt.Println("probe ISP:", rep.ProbeISP)
	fmt.Println("traffic locality above potential locality:", rep.TrafficLocality > rep.PotentialLocality)
	fmt.Println("playback continuity at least 0.95:", continuity >= 0.95)
	// Output:
	// probe ISP: TELE
	// traffic locality above potential locality: true
	// playback continuity at least 0.95: true
}
