// Benchmarks: BenchmarkSection/<id> for every row of the experiment table
// (internal/experiments.Sections; DESIGN.md §3 is the index), each running a
// reduced-scale version of the section, plus the BitTorrent baseline swarm on
// its own. Paper-scale regeneration is `go run ./cmd/experiments`.
//
// Scenario benchmarks are whole-system runs (hundreds of peers, minutes of
// virtual time), so each iteration is seconds of wall time; run with the
// default -benchtime or -benchtime=1x.
package pplive_test

import (
	"runtime"
	"testing"
	"time"

	"pplivesim/internal/bittorrent"
	"pplivesim/internal/experiments"
	"pplivesim/internal/isp"
	"pplivesim/internal/workload"
)

// benchScale sizes every scenario benchmark.
func benchScale() experiments.Scale {
	s := experiments.QuickScale()
	s.Fig6Days = 2
	return s
}

// BenchmarkSection runs every row of the experiment table on a fresh Runner:
// the section's scenarios (nothing is cached between iterations) plus its
// text rendering. -bench 'Section/fig6$' picks one.
func BenchmarkSection(b *testing.B) {
	for _, s := range experiments.Sections() {
		b.Run(s.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				body, err := s.Run(experiments.NewRunner(benchScale(), int64(100+i)), nil)
				if err != nil {
					b.Fatal(err)
				}
				if body == "" {
					b.Fatal("section rendered nothing")
				}
			}
		})
	}
}

func BenchmarkBitTorrentBaseline(b *testing.B) {
	viewers := workload.PopularPopulation().Scale(0.08)
	for i := 0; i < b.N; i++ {
		start := time.Now()
		res, err := bittorrent.RunLocality(int64(600+i), viewers, isp.TELE, 15*time.Minute, runtime.GOMAXPROCS(0))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.Report.TrafficLocality, "locality_%")
		b.ReportMetric(100*res.Progress, "progress_%")
		b.ReportMetric(float64(res.Events)/time.Since(start).Seconds(), "events/s")
	}
}
