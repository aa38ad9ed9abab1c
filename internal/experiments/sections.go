package experiments

import (
	"fmt"
	"strings"

	"pplivesim/internal/analysis"
	"pplivesim/internal/core"
)

// Section is one row of the experiment table: a section of the report, the
// runs behind it, its text and its figures. cmd/experiments, the scenario
// benchmarks (BenchmarkSection/<id>) and the DESIGN.md §3 index all follow
// this table, so a new experiment is one new row here.
type Section struct {
	// ID is what -only matches; a section's figure files start with it.
	ID    string
	Title string
	// Run executes the section's scenarios, or takes them from the Runner's
	// cache, and renders the text body. progress may be nil; a section of
	// many runs tells it each scenario's name as the scenario starts.
	Run func(r *Runner, progress func(scenario string)) (body string, err error)
	// Plots writes the section's figures from the same cached runs. It is
	// nil for a section that has none.
	Plots func(r *Runner, fw *FigureWriter) error
}

// row builds a Section from a cached measurement: Run renders it as text,
// Plots (when plot is non-nil) draws it. Both fetch through get, so whichever
// comes second is served from the Runner's cache.
func row[T any](id, title string, get func(*Runner, func(string)) (T, error), text func(T) string, plot func(*FigureWriter, T) error) Section {
	s := Section{ID: id, Title: title, Run: func(r *Runner, progress func(string)) (string, error) {
		v, err := get(r, progress)
		if err != nil {
			return "", err
		}
		return text(v), nil
	}}
	if plot != nil {
		s.Plots = func(r *Runner, fw *FigureWriter) error {
			v, err := get(r, nil)
			if err != nil {
				return err
			}
			return plot(fw, v)
		}
	}
	return s
}

// view is one of the paper's four viewpoints: a probe in one of the two
// shared runs.
type view struct {
	run   func(*Runner) (*RunOutputs, error)
	probe string
	// long names the view in the titles of Figures 2-5, short everywhere
	// else, row in Table 1.
	long, short, row string
}

// report has the shape row wants of a getter; the shared runs take no
// progress callback.
func (v view) report(r *Runner, _ func(string)) (*analysis.Report, error) {
	out, err := v.run(r)
	if err != nil {
		return nil, err
	}
	return report(out, v.probe)
}

// views crossed with panels gives Figures 2-5 and 7-18, numbered in this
// order within each panel; Table 1 has one row per view.
var views = []view{
	{(*Runner).Popular, ProbeTELE, "China-TELE probe, popular program", "TELE probe / popular", "TELE-Popular"},
	{(*Runner).Unpopular, ProbeTELE, "China-TELE probe, unpopular program", "TELE probe / unpopular", "TELE-Unpopular"},
	{(*Runner).Popular, ProbeMason, "USA-Mason probe, popular program", "Mason probe / popular", "Mason-Popular"},
	{(*Runner).Unpopular, ProbeMason, "USA-Mason probe, unpopular program", "Mason probe / unpopular", "Mason-Unpopular"},
}

// panel is one of the four lenses every view is looked at through.
type panel struct {
	first int // figure number of the first view
	// title is a format over (figure number, long view name, short view name).
	title   string
	text    func(title string, rep *analysis.Report) string
	figures []figure
}

// figure is one SVG of a panel: the file is named section id + suffix and
// titled short view name + caption.
type figure struct {
	suffix, caption string
	write           func(fw *FigureWriter, name, title string, rep *analysis.Report) error
}

var panels = []panel{
	{2, "Figure %[1]d — %[2]s", FigureABC, []figure{
		{"a-returned", " (a) returned addresses", (*FigureWriter).WriteReturnedBars},
		{"c-traffic", " (c) downloaded bytes", (*FigureWriter).WriteTrafficBars}}},
	{7, "Figure %[1]d — peer-list response times, %[3]s", ResponseTimes, []figure{
		{"-list-rt", " peer-list response times", (*FigureWriter).WriteResponseScatter}}},
	{11, "Figure %[1]d — connections and contributions, %[3]s", Contributions, []figure{
		{"b-rank", " request rank distribution", (*FigureWriter).WriteRankDistribution},
		{"c-cdf", " contribution CDF", (*FigureWriter).WriteContributionCDF}}},
	{15, "Figure %[1]d — rank vs RTT, %[3]s", RTTCorrelation, []figure{
		{"-rtt", " requests vs RTT", (*FigureWriter).WriteRTTScatter}}},
}

// sections generates the panel's four per-probe rows.
func (p panel) sections() []Section {
	rows := make([]Section, len(views))
	for i, v := range views {
		id := fmt.Sprintf("fig%d", p.first+i)
		rows[i] = row(id, fmt.Sprintf(p.title, p.first+i, v.long, v.short), v.report,
			func(rep *analysis.Report) string { return p.text("", rep) },
			func(fw *FigureWriter, rep *analysis.Report) error {
				for _, f := range p.figures {
					if err := f.write(fw, id+f.suffix, v.short+f.caption, rep); err != nil {
						return err
					}
				}
				return nil
			})
	}
	return rows
}

// ablations are the three mechanism toggles (Runner.runAblation).
var ablations = []ablation{
	{id: "ablation-referral", title: "Ablation — neighbor referral vs tracker-only (+ BitTorrent baseline)",
		name: "neighbor referral (vs tracker-only discovery)", scenario: "ablate-referral", seed: 0,
		off: core.Behaviour{DisableReferral: true}, bitTorrent: true},
	{id: "ablation-latency", title: "Ablation — latency-based neighbor selection",
		name: "latency-based neighbor selection", scenario: "ablate-latency", seed: 10,
		off: core.Behaviour{DisableLatencyBias: true}},
	{id: "ablation-preference", title: "Ablation — performance-weighted scheduling",
		name: "performance-weighted request scheduling", scenario: "ablate-pref", seed: 20,
		off: core.Behaviour{DisablePreference: true}},
}

// Sections returns the experiment table in report order.
func Sections() []Section {
	rows := panels[0].sections()
	rows = append(rows, row("fig6", "Figure 6 — traffic locality across the four-week schedule",
		(*Runner).Fig6, RenderFig6,
		func(fw *FigureWriter, s Fig6Series) error {
			if err := fw.WriteFig6("fig6a-popular", "Traffic locality per day, popular programs", s.Popular); err != nil {
				return err
			}
			return fw.WriteFig6("fig6b-unpopular", "Traffic locality per day, unpopular programs", s.Unpopular)
		}))
	rows = append(rows, panels[1].sections()...)
	rows = append(rows, Section{
		ID: "tab1", Title: "Table 1 — average response time (s) to data requests",
		Run: func(r *Runner, _ func(string)) (string, error) {
			var b strings.Builder
			for _, v := range views {
				rep, err := v.report(r, nil)
				if err != nil {
					return "", err
				}
				b.WriteString(DataRTRow(v.row, rep) + "\n")
			}
			return b.String(), nil
		},
	})
	rows = append(rows, panels[2].sections()...)
	rows = append(rows, panels[3].sections()...)
	rows = append(rows, row("multichannel", "Multi-channel — popular + unpopular running concurrently with channel-switching viewers",
		func(r *Runner, _ func(string)) (*RunOutputs, error) { return r.MultiChannel() },
		MultiChannelSummary, nil))
	for _, a := range ablations {
		rows = append(rows, row(a.id, a.title,
			func(r *Runner, _ func(string)) (AblationOutcome, error) { return r.runAblation(a) },
			AblationOutcome.Render, nil))
	}
	return append(rows,
		row("ablation-fidelity", "Ablation — background fidelity substitution",
			func(r *Runner, _ func(string)) (FidelityOutcome, error) { return r.AblationFidelity() },
			FidelityOutcome.Render, nil),
		row("frontier", "Locality frontier — biased peer selection: transit savings vs continuity/startup",
			(*Runner).LocalityFrontier, RenderFrontier,
			func(fw *FigureWriter, pts []FrontierPoint) error {
				return fw.WriteFrontier("frontier", "Locality frontier, TELE probe", pts)
			}),
		row("cdn", "Hybrid CDN+P2P — per-ISP edge offload vs locality under a flash crowd",
			(*Runner).CDNOffload, RenderCDN,
			func(fw *FigureWriter, pts []CDNPoint) error {
				return fw.WriteCDN("cdn", "Hybrid CDN+P2P, TELE probe", pts)
			}),
		Section{
			ID: "chaos", Title: "Chaos — dip/recovery and traffic shift under the combo fault preset",
			Run: func(r *Runner, _ func(string)) (string, error) {
				out, err := r.Chaos()
				if err != nil {
					return "", err
				}
				var b strings.Builder
				for _, probe := range []string{ProbeTELE, ProbeMason} {
					s, err := ResilienceSummary(out.Result, probe)
					if err != nil {
						return "", err
					}
					b.WriteString(s + "\n")
				}
				return b.String(), nil
			},
		})
}

// Select returns the rows whose id contains only, in table order; the empty
// string selects every row. A filter that matches nothing is an error that
// lists the ids.
func Select(only string) ([]Section, error) {
	var rows []Section
	var ids []string
	for _, s := range Sections() {
		ids = append(ids, s.ID)
		if strings.Contains(s.ID, only) {
			rows = append(rows, s)
		}
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("no section id contains %q (sections: %s)", only, strings.Join(ids, ", "))
	}
	return rows, nil
}
