// Package experiments defines one reproducible experiment per table and
// figure of the paper's evaluation, plus the ablations DESIGN.md calls out.
//
// The paper's figures come from four probe viewpoints over two channels:
// Figures 2, 7, 11, 15 share the TELE-probe/popular-channel trace; 3, 8,
// 12, 16 the TELE/unpopular trace; 4, 9, 13, 17 the Mason/popular trace;
// 5, 10, 14, 18 the Mason/unpopular trace; Table 1 uses all four. A Runner
// therefore executes two scenario runs (popular and unpopular, each with
// TELE, CNC and Mason probes measuring concurrently, as the paper's hosts
// did) and derives every figure from the cached traces. Figure 6 runs its
// own 28-day schedule of smaller runs.
//
// Sections (sections.go) is the one table that declares every section of the
// report: its id, title, runs, text and figures.
package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"pplivesim/internal/analysis"
	"pplivesim/internal/core"
	"pplivesim/internal/fit"
	"pplivesim/internal/isp"
	"pplivesim/internal/peer"
	"pplivesim/internal/selection"
	"pplivesim/internal/workload"
)

// Scale sizes experiment runs. Paper-shaped results emerge from Default;
// Quick is for benchmarks and smoke tests.
type Scale struct {
	// Population multiplies the standard channel populations.
	Population float64
	// Watch is how long probes observe (the paper's probes watched 2 h).
	Watch time.Duration
	// WarmUp and ArrivalWindow control swarm formation before probes join.
	WarmUp        time.Duration
	ArrivalWindow time.Duration

	// Fig6Days is the number of simulated days for Figure 6 (paper: 28).
	Fig6Days int
	// Fig6Population and Fig6Watch size each per-day run.
	Fig6Population float64
	Fig6Watch      time.Duration
}

// DefaultScale balances paper shape against runtime: half-population swarms
// watched for 40 minutes reproduce every qualitative result.
func DefaultScale() Scale {
	return Scale{
		Population:     0.5,
		Watch:          40 * time.Minute,
		WarmUp:         8 * time.Minute,
		ArrivalWindow:  6 * time.Minute,
		Fig6Days:       28,
		Fig6Population: 0.12,
		Fig6Watch:      15 * time.Minute,
	}
}

// PaperScale is the full-size configuration (≈1300-viewer popular channel,
// two-hour watches) for the patient.
func PaperScale() Scale {
	s := DefaultScale()
	s.Population = 1.0
	s.Watch = 2 * time.Hour
	return s
}

// QuickScale is for benchmarks: small swarms, minutes of virtual time.
func QuickScale() Scale {
	return Scale{
		Population:     0.12,
		Watch:          10 * time.Minute,
		WarmUp:         4 * time.Minute,
		ArrivalWindow:  3 * time.Minute,
		Fig6Days:       7,
		Fig6Population: 0.08,
		Fig6Watch:      8 * time.Minute,
	}
}

// Probe names used across runs.
const (
	ProbeTELE  = "tele"
	ProbeCNC   = "cnc"
	ProbeMason = "mason"
)

// RunOutputs caches one scenario run with per-probe analysis reports.
type RunOutputs struct {
	Result  *core.Result
	Reports map[string]*analysis.Report
	Wall    time.Duration
}

// Runner executes and caches the shared scenario runs. Methods are safe for
// concurrent use: the shared popular/unpopular runs execute exactly once, and
// multi-run experiments (Fig6, ablations) fan their independent scenarios out
// over a worker pool of Workers OS threads. Neither knob changes results:
// scenarios are independent, and within a scenario the sharded engine's
// trajectory is worker-count invariant.
type Runner struct {
	Scale Scale
	Seed  int64
	// Workers bounds scenario-level parallelism (0 = GOMAXPROCS).
	Workers int
	// Shards sets each scenario's event-loop worker count (core.Scenario
	// .Shards): below 2 the per-domain engines run on one goroutine.
	// Scenarios that a multi-run experiment executes side by side split the
	// processors first (parallelDo), so with the default Workers each of
	// them runs on one event-loop worker whatever Shards says; only a run
	// on its own (the shared popular trace, say) uses up to Shards.
	Shards int
	// Fidelity sets each scenario's background-population fidelity
	// (core.Scenario.Fidelity). The multi-channel run always uses full
	// Clients: channel switching needs per-viewer protocol state.
	Fidelity peer.Fidelity
	// Selection sets each scenario's peer-selection policy
	// (core.Scenario.Selection). The zero value is the legacy uniform
	// random sample. The locality-frontier sweep overrides it per run.
	Selection selection.Spec

	popular, unpopular, multi, chaos memo[*RunOutputs]
	fig6                             memo[Fig6Series]
	frontier                         memo[[]FrontierPoint]
	cdn                              memo[[]CDNPoint]
}

// memo runs a function once and keeps what it returned, for any number of
// concurrent callers.
type memo[T any] struct {
	once sync.Once
	val  T
	err  error
}

func (m *memo[T]) get(f func() (T, error)) (T, error) {
	m.once.Do(func() { m.val, m.err = f() })
	return m.val, m.err
}

// NewRunner creates a runner with the given scale and base seed.
func NewRunner(scale Scale, seed int64) *Runner {
	return &Runner{Scale: scale, Seed: seed}
}

// buildScenario assembles a standard scenario.
func (r *Runner) buildScenario(name string, popular bool, seedOffset int64, population float64, watch time.Duration) core.Scenario {
	sc := core.Scenario{
		Name:  name,
		Seed:  r.Seed + seedOffset,
		Churn: workload.DefaultChurn(),
		// The paper's measuring hosts: two Chinese residential ISPs and the
		// US campus.
		Probes: []core.ProbeSpec{
			{Name: ProbeTELE, ISP: isp.TELE},
			{Name: ProbeCNC, ISP: isp.CNC},
			{Name: ProbeMason, ISP: isp.Foreign},
		},
		ArrivalWindow: r.Scale.ArrivalWindow,
		WarmUp:        r.Scale.WarmUp,
		Watch:         watch,
		Shards:        r.Shards,
		Fidelity:      r.Fidelity,
		Selection:     r.Selection,
	}
	if popular {
		sc.Spec = workload.PopularSpec()
		sc.Viewers = workload.PopularPopulation().Scale(population)
	} else {
		sc.Spec = workload.UnpopularSpec()
		sc.Viewers = workload.UnpopularPopulation().Scale(population)
	}
	return sc
}

// allProcs is runScenario's procs argument for a scenario that runs with no
// sibling: its event-loop workers are bounded by Shards and the machine only.
const allProcs = math.MaxInt

// runScenario executes a scenario on at most procs event-loop workers (see
// parallelDo; the count never changes the trajectory) and finalizes each
// probe's streaming telemetry into its report. A probe's analysis excludes
// its own channel's source from peer statistics.
func runScenario(sc core.Scenario, procs int) (*RunOutputs, error) {
	sc.Workers = max(1, min(sc.Shards, procs))
	start := time.Now()
	res, err := core.RunScenario(sc)
	if err != nil {
		return nil, err
	}
	out := &RunOutputs{Result: res, Reports: make(map[string]*analysis.Report, len(res.Probes))}
	for i, p := range res.Probes {
		if out.Reports[p.Name], err = res.ProbeReport(i); err != nil {
			return nil, fmt.Errorf("experiments: analyze probe %q: %w", p.Name, err)
		}
	}
	out.Wall = time.Since(start)
	return out, nil
}

// Popular returns (running once, then cached) the popular-channel run.
func (r *Runner) Popular() (*RunOutputs, error) {
	return r.popular.get(func() (*RunOutputs, error) {
		return runScenario(r.buildScenario("popular", true, 0, r.Scale.Population, r.Scale.Watch), allProcs)
	})
}

// Unpopular returns (running once, then cached) the unpopular-channel run.
func (r *Runner) Unpopular() (*RunOutputs, error) { return r.unpopularOn(allProcs) }

func (r *Runner) unpopularOn(procs int) (*RunOutputs, error) {
	return r.unpopular.get(func() (*RunOutputs, error) {
		return runScenario(r.buildScenario("unpopular", false, 1, r.Scale.Population, r.Scale.Watch), procs)
	})
}

// Multi-channel probe names: one TELE probe pinned to each channel.
const (
	ProbeTELEPopular   = "tele-popular"
	ProbeTELEUnpopular = "tele-unpopular"
)

// buildMultiScenario assembles the concurrent two-channel scenario: the
// popular and unpopular channels share the bootstrap and tracker
// infrastructure, a third of the audience browses between them, and one TELE
// probe is pinned to each channel (probes never switch, matching the paper's
// measurement hosts, which watched one program per trace).
func (r *Runner) buildMultiScenario() core.Scenario {
	return core.Scenario{
		Name: "multichannel",
		Seed: r.Seed + 2,
		Channels: []core.ChannelSpec{
			{Spec: workload.PopularSpec(), Viewers: workload.PopularPopulation().Scale(r.Scale.Population)},
			{Spec: workload.UnpopularSpec(), Viewers: workload.UnpopularPopulation().Scale(r.Scale.Population)},
		},
		Switching: workload.DefaultSwitching(),
		Churn:     workload.DefaultChurn(),
		Probes: []core.ProbeSpec{
			{Name: ProbeTELEPopular, ISP: isp.TELE, Channel: workload.PopularSpec().Channel},
			{Name: ProbeTELEUnpopular, ISP: isp.TELE, Channel: workload.UnpopularSpec().Channel},
		},
		ArrivalWindow: r.Scale.ArrivalWindow,
		WarmUp:        r.Scale.WarmUp,
		Watch:         r.Scale.Watch,
		Shards:        r.Shards,
	}
}

// MultiChannel returns (running once, then cached) the concurrent two-channel
// run with channel-switching viewers.
func (r *Runner) MultiChannel() (*RunOutputs, error) {
	return r.multi.get(func() (*RunOutputs, error) {
		return runScenario(r.buildMultiScenario(), allProcs)
	})
}

// Warm executes the two shared scenario runs concurrently, so a report that
// derives many sections from both traces pays for the slower run only. The
// unpopular audience is a seventh of the popular one and its run is over in
// a sixth of the time, so the pool is full only briefly: the popular run
// keeps all its event-loop workers and only the unpopular run is held to
// its share (quick scale, 2 cores, three runs each: 10.9–11.9 s; both held
// to their share 16.1–19.7 s; neither 12.0–12.9 s; one after the other
// 12.1–13.7 s).
func (r *Runner) Warm() error {
	return parallelDo(r.Workers,
		func(int) error { _, err := r.Popular(); return err },
		func(procs int) error { _, err := r.unpopularOn(procs); return err },
	)
}

// report fetches a probe's report from a cached run.
func report(out *RunOutputs, probe string) (*analysis.Report, error) {
	rep, ok := out.Reports[probe]
	if !ok {
		return nil, fmt.Errorf("experiments: probe %q missing from run", probe)
	}
	return rep, nil
}

// probeIndex finds a probe by name in a finished run.
func probeIndex(res *core.Result, probe string) (int, error) {
	for i, p := range res.Probes {
		if p.Name == probe {
			return i, nil
		}
	}
	return 0, fmt.Errorf("experiments: no probe named %q", probe)
}

// teleCell is what a policy sweep reads off one finished run, at its TELE
// probe: the report, the inter-ISP download volume (bytes from every other
// category; the source and the edges are tallied separately upstream) and
// the playback continuity over the whole watch.
type teleCell struct {
	*RunOutputs
	probe      int // index in Result.Probes
	rep        *analysis.Report
	transit    uint64
	continuity float64
}

// sweep runs the scenarios over the worker pool and returns each one's TELE
// probe reading, in scenario order.
func (r *Runner) sweep(scenarios []core.Scenario, progress func(scenario string)) ([]teleCell, error) {
	outs, err := r.runAll(scenarios, progress)
	if err != nil {
		return nil, err
	}
	cells := make([]teleCell, len(outs))
	for i, out := range outs {
		c := teleCell{RunOutputs: out}
		if c.probe, err = probeIndex(out.Result, ProbeTELE); err != nil {
			return nil, err
		}
		c.rep = out.Reports[ProbeTELE]
		for cat, n := range c.rep.BytesByISP {
			if cat != isp.TELE {
				c.transit += n
			}
		}
		c.continuity = out.Result.Probes[c.probe].Client.BufferStats().Continuity()
		cells[i] = c
	}
	return cells, nil
}

// transitSaved is the fraction of a baseline's transit bytes a cell avoided
// (0 for the baseline itself, and for a cell that moved more).
func transitSaved(transit, baseline uint64) float64 {
	if baseline == 0 || transit > baseline {
		return 0
	}
	return 1 - float64(transit)/float64(baseline)
}

// ---- formatting helpers ----

func formatCounts(b *strings.Builder, counts map[isp.ISP]int) {
	for _, c := range isp.All() {
		fmt.Fprintf(b, "  %-8s %8d\n", c, counts[c])
	}
}

// sourceLabels orders the X_p/X_s columns the way Figures 2-5(b) do.
func sourceLabels(rep *analysis.Report) []analysis.ListSource {
	var keys []analysis.ListSource
	for k := range rep.ReturnedBySource {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].ISP != keys[j].ISP {
			return keys[i].ISP < keys[j].ISP
		}
		return !keys[i].Tracker && keys[j].Tracker
	})
	return keys
}

// FigureABC renders the three panels of Figures 2-5 for one probe report.
func FigureABC(title string, rep *analysis.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "(a) returned peer addresses by ISP (with duplicates); unique addresses: %d\n", rep.UniqueListed)
	formatCounts(&b, rep.ReturnedByISP)
	fmt.Fprintf(&b, "    potential locality (same-ISP share of returned addresses): %.1f%%\n", 100*rep.PotentialLocality)

	fmt.Fprintf(&b, "(b) returned addresses by list source (X_p = regular peers, X_s = trackers)\n")
	for _, src := range sourceLabels(rep) {
		byISP := rep.ReturnedBySource[src]
		total := 0
		for _, n := range byISP {
			total += n
		}
		fmt.Fprintf(&b, "  %-10s total %7d |", src.Label(), total)
		for _, c := range isp.All() {
			fmt.Fprintf(&b, " %s=%d", c, byISP[c])
		}
		fmt.Fprintf(&b, "\n")
	}

	fmt.Fprintf(&b, "(c) data transmissions (up) and downloaded bytes (down) by ISP\n")
	for _, c := range isp.All() {
		fmt.Fprintf(&b, "  %-8s tx=%8d bytes=%12d\n", c, rep.TransmissionsByISP[c], rep.BytesByISP[c])
	}
	fmt.Fprintf(&b, "  (source server: tx=%d bytes=%d, tallied separately)\n", rep.SourceTransmissions, rep.SourceBytes)
	fmt.Fprintf(&b, "    traffic locality (same-ISP share of downloaded bytes): %.1f%%\n", 100*rep.TrafficLocality)
	return b.String()
}

// ResponseTimes renders a Figures 7-10 panel for one probe report.
func ResponseTimes(title string, rep *analysis.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	for _, g := range isp.Groups() {
		st := rep.ListRT[g]
		fmt.Fprintf(&b, "  %-6s peers: avg response %.4f s over %d peer-list requests\n",
			g, st.Mean.Seconds(), st.Count)
	}
	fmt.Fprintf(&b, "  unanswered peer-list requests: %d\n", rep.UnansweredLists)
	return b.String()
}

// DataRTRow renders one Table 1 row.
func DataRTRow(label string, rep *analysis.Report) string {
	var cells []string
	for _, g := range isp.Groups() {
		st := rep.DataRT[g]
		cells = append(cells, fmt.Sprintf("%s=%.4fs(n=%d)", g, st.Mean.Seconds(), st.Count))
	}
	return fmt.Sprintf("  %-18s %s", label, strings.Join(cells, "  "))
}

// Contributions renders a Figures 11-14 panel for one probe report.
func Contributions(title string, rep *analysis.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	connected := 0
	for _, n := range rep.ConnectedByISP {
		connected += n
	}
	fmt.Fprintf(&b, "(a) unique connected peers (data transfers): %d of %d unique listed\n", connected, rep.UniqueListed)
	formatCounts(&b, rep.ConnectedByISP)
	fmt.Fprintf(&b, "(b) data-request rank distribution fits\n")
	fmt.Fprintf(&b, "  stretched exponential: c=%.2f a=%.3f b=%.3f R2=%.6f\n",
		rep.SEFit.C, rep.SEFit.A, rep.SEFit.B, rep.SEFit.R2)
	fmt.Fprintf(&b, "  zipf (power law):      alpha=%.3f R2=%.6f\n", rep.ZipfFit.Alpha, rep.ZipfFit.R2)
	verdict := "stretched exponential fits better (as the paper finds)"
	if rep.ZipfFit.R2 > rep.SEFit.R2 {
		verdict = "zipf fits better (DIVERGES from the paper)"
	}
	fmt.Fprintf(&b, "  -> %s\n", verdict)
	fmt.Fprintf(&b, "(c) contribution concentration\n")
	fmt.Fprintf(&b, "  top 10%% of connected peers receive %.1f%% of data requests\n", 100*rep.TopRequestShare)
	fmt.Fprintf(&b, "  top 10%% of connected peers upload  %.1f%% of received bytes\n", 100*rep.TopByteShare)
	return b.String()
}

// RTTCorrelation renders a Figures 15-18 panel for one probe report.
func RTTCorrelation(title string, rep *analysis.Report) string {
	return fmt.Sprintf("%s\n  correlation(log #data-requests, log RTT) = %.3f (paper: clearly negative)\n",
		title, rep.RTTCorrelation)
}

// ProbeSummary renders every per-probe panel for one report: what cmd/psim
// and cmd/analyze print for each probe.
func ProbeSummary(title string, rep *analysis.Report) string {
	return strings.Join([]string{
		FigureABC(title, rep),
		ResponseTimes("peer-list response times:", rep),
		DataRTRow("data response times:", rep),
		Contributions("contributions:", rep),
		RTTCorrelation("rank vs RTT:", rep),
	}, "\n")
}

// MultiChannelSummary renders the concurrent two-channel run: per-channel
// audience and source, switching activity, each pinned probe's locality and
// playback continuity, and the two probes' Figure 2-5 panels — the paper's
// popular/unpopular contrast observed inside one simulation instead of across
// two separate runs.
func MultiChannelSummary(out *RunOutputs) string {
	var b strings.Builder
	res := out.Result
	fmt.Fprintf(&b, "concurrent channels: %d\n", len(res.Channels))
	for _, ch := range res.Channels {
		fmt.Fprintf(&b, "  channel %d (%s): %d initial viewers, source %v\n",
			ch.Spec.Channel, ch.Spec.Name, ch.Viewers.Total(), ch.Source)
	}
	fmt.Fprintf(&b, "channel switching: %d viewers switched at least once, %d switch events total\n",
		res.Switchers, res.Switches)
	for _, p := range res.Probes {
		rep, ok := out.Reports[p.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "  probe %-16s channel %d: traffic locality %5.1f%%  continuity %.3f\n",
			p.Name, p.Channel, 100*rep.TrafficLocality, p.Client.BufferStats().Continuity())
	}
	b.WriteString("  expectation: the popular channel's probe sees locality at least the unpopular one's\n")
	b.WriteString(FigureABC("TELE probe pinned to the popular channel:", out.Reports[ProbeTELEPopular]))
	b.WriteString(FigureABC("TELE probe pinned to the unpopular channel:", out.Reports[ProbeTELEUnpopular]))
	return b.String()
}

// Fig6Series is the four-week sweep: for each channel class, each probe's
// traffic locality per day (index 0 is day 1).
type Fig6Series struct{ Popular, Unpopular map[string][]float64 }

// fig6Probes orders the Figure 6 series: the two Chinese ISPs, then Mason.
var fig6Probes = []string{ProbeCNC, ProbeTELE, ProbeMason}

// Fig6 runs the 28-day schedule: for each day, a popular and an unpopular
// run with day-scaled populations, measuring traffic locality at the CNC,
// TELE, and Mason probes (the paper averaged two probes per ISP; we run one
// per ISP per day). The 2×Fig6Days runs are independent simulations, so they
// fan out over the runner's worker pool; results are assembled in day order
// afterwards, keeping output identical to a sequential sweep. The sweep runs
// once and is cached, so text and figures pay for it together; progress is
// told each run's scenario name as it starts (days may begin out of order
// under parallelism).
func (r *Runner) Fig6(progress func(scenario string)) (Fig6Series, error) {
	return r.fig6.get(func() (Fig6Series, error) { return r.runFig6(progress) })
}

func (r *Runner) runFig6(progress func(scenario string)) (Fig6Series, error) {
	s := Fig6Series{Popular: map[string][]float64{}, Unpopular: map[string][]float64{}}
	var scenarios []core.Scenario
	var series []map[string][]float64 // where each scenario's localities go
	for day := 0; day < r.Scale.Fig6Days; day++ {
		f := workload.DayFactor(day)
		ff := workload.ForeignDayFactor(day)
		for _, popular := range []bool{true, false} {
			class, seed, into := "popular", int64(1001+day*10), s.Popular
			if !popular {
				class, seed, into = "unpopular", int64(1000+day*10), s.Unpopular
			}
			sc := r.buildScenario(fmt.Sprintf("fig6-day%d-%s", day, class), popular, seed, r.Scale.Fig6Population, r.Scale.Fig6Watch)
			// Day-to-day audience variation: domestic rhythm plus the much
			// more volatile foreign contingent.
			for cat, n := range sc.Viewers {
				factor := f
				if cat == isp.Foreign {
					factor = f * ff
				}
				sc.Viewers[cat] = max(1, int(float64(n)*factor+0.5))
			}
			sc.WarmUp = r.Scale.Fig6Watch / 3
			sc.ArrivalWindow = r.Scale.Fig6Watch / 4
			scenarios = append(scenarios, sc)
			series = append(series, into)
		}
	}

	outs, err := r.runAll(scenarios, progress)
	if err != nil {
		return s, err
	}
	for i, out := range outs {
		for _, probe := range fig6Probes {
			rep, err := report(out, probe)
			if err != nil {
				return s, err
			}
			series[i][probe] = append(series[i][probe], rep.TrafficLocality)
		}
	}
	return s, nil
}

// RenderFig6 formats the four-week locality series and summary statistics.
func RenderFig6(s Fig6Series) string {
	var b strings.Builder
	render := func(title string, series map[string][]float64) {
		fmt.Fprintf(&b, "%s\n  day:", title)
		for d := range series[ProbeTELE] {
			fmt.Fprintf(&b, " %5d", d+1)
		}
		fmt.Fprintf(&b, "\n")
		for _, probe := range fig6Probes {
			fmt.Fprintf(&b, "  %-4s", probe)
			for _, v := range series[probe] {
				fmt.Fprintf(&b, " %5.1f", 100*v)
			}
			fmt.Fprintf(&b, "\n")
		}
		for _, probe := range fig6Probes {
			vals := series[probe]
			if len(vals) == 0 {
				continue
			}
			mean := fit.Mean(vals)
			var varsum float64
			for _, v := range vals {
				varsum += (v - mean) * (v - mean)
			}
			variance := 0.0
			if len(vals) > 1 {
				variance = varsum / float64(len(vals)-1)
			}
			fmt.Fprintf(&b, "  %-5s mean=%.1f%% var=%.4f\n", probe, 100*mean, variance)
		}
	}
	render("(a) popular programs: traffic locality (%) per day", s.Popular)
	render("(b) unpopular programs: traffic locality (%) per day", s.Unpopular)
	b.WriteString("  expectation: China probes stable, Mason varies much more (foreign audience volatility)\n")
	return b.String()
}
