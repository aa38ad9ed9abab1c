// Locality vs BitTorrent: contrast PPLive-style referral+latency selection
// against the tracker-only BitTorrent baseline over the same underlay and
// the same audience — the architectural comparison of the paper's
// introduction and related-work sections.
package main

import (
	"fmt"
	"log"
	"runtime"
	"time"

	"pplivesim"
	"pplivesim/internal/bittorrent"
	"pplivesim/internal/isp"
	"pplivesim/internal/workload"
)

func main() {
	const scale = 0.2
	viewers := workload.PopularPopulation().Scale(scale)
	fmt.Printf("audience: %d peers (%.0f%% TELE); probe in TELE\n\n",
		viewers.Total(), 100*float64(viewers[isp.TELE])/float64(viewers.Total()))

	// PPLive-style streaming swarm.
	sc := pplive.PopularScenario(7, scale)
	sc.Watch = 15 * time.Minute
	sc.WarmUp = 6 * time.Minute
	sc.ArrivalWindow = 3 * time.Minute
	sc.Probes = []pplive.ProbeSpec{{Name: "tele", ISP: pplive.TELE}}
	res, err := pplive.RunScenario(sc)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := pplive.AnalyzeProbe(res, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("PPLive-style (referral + latency-based selection):\n")
	fmt.Printf("  traffic locality: %.1f%%\n\n", 100*rep.TrafficLocality)

	// Same audience, BitTorrent rules.
	bt, err := bittorrent.RunLocality(7, viewers, isp.TELE, 25*time.Minute, runtime.GOMAXPROCS(0))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("BitTorrent baseline (tracker-only + tit-for-tat + rarest-first):\n")
	fmt.Printf("  traffic locality: %.1f%% (probe completed %.0f%% of the file)\n\n",
		100*bt.Report.TrafficLocality, 100*bt.Progress)

	fmt.Println("expectation (paper §1): the referral-based overlay localizes traffic far")
	fmt.Println("above the audience's same-ISP share; the tracker-only overlay stays at it.")
}
