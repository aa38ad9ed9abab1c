package experiments

import (
	"fmt"
	"math"
	"os"
	"path/filepath"

	"pplivesim/internal/analysis"
	"pplivesim/internal/fit"
	"pplivesim/internal/isp"
	"pplivesim/internal/plot"
)

// FigureWriter renders the paper's figures as 640×420 SVG files in Dir.
type FigureWriter struct{ Dir string }

func (fw *FigureWriter) write(name string, p *plot.Plot) error {
	if err := os.MkdirAll(fw.Dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(fw.Dir, name+".svg"))
	if err != nil {
		return err
	}
	if err := p.RenderSVG(f, 640, 420); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeISPBars renders one bar per ISP category.
func (fw *FigureWriter) writeISPBars(name, title, yLabel string, value func(isp.ISP) float64) error {
	p := plot.New(title, "ISP", yLabel)
	labels := make([]string, 0, isp.Count)
	values := make([]float64, 0, isp.Count)
	for _, c := range isp.All() {
		labels = append(labels, c.String())
		values = append(values, value(c))
	}
	if err := p.SetBars(labels, values); err != nil {
		return err
	}
	return fw.write(name, p)
}

// WriteReturnedBars renders panel (a) of Figures 2-5: returned addresses by
// ISP.
func (fw *FigureWriter) WriteReturnedBars(name, title string, rep *analysis.Report) error {
	return fw.writeISPBars(name, title, "# returned addresses", func(c isp.ISP) float64 { return float64(rep.ReturnedByISP[c]) })
}

// WriteTrafficBars renders panel (c): downloaded bytes by ISP.
func (fw *FigureWriter) WriteTrafficBars(name, title string, rep *analysis.Report) error {
	return fw.writeISPBars(name, title, "downloaded bytes", func(c isp.ISP) float64 { return float64(rep.BytesByISP[c]) })
}

// WriteResponseScatter renders Figures 7-10: per-group peer-list response
// times along the playback.
func (fw *FigureWriter) WriteResponseScatter(name, title string, rep *analysis.Report) error {
	p := plot.New(title, "peer-list request (minutes into watch)", "response time (s)")
	for _, g := range isp.Groups() {
		pts := rep.ListRTSeries[g]
		xs := make([]float64, 0, len(pts))
		ys := make([]float64, 0, len(pts))
		for _, pt := range pts {
			// The paper clips the visual at 3 s for comparability.
			if pt.RT.Seconds() > 3 {
				continue
			}
			xs = append(xs, pt.At.Minutes())
			ys = append(ys, pt.RT.Seconds())
		}
		if len(xs) == 0 {
			continue
		}
		if err := p.AddScatter(g.String(), xs, ys); err != nil {
			return err
		}
	}
	return fw.write(name, p)
}

// WriteRankDistribution renders panel (b) of Figures 11-14: the data-request
// rank distribution in log-log scale with the fitted stretched-exponential
// curve overlaid.
func (fw *FigureWriter) WriteRankDistribution(name, title string, rep *analysis.Report) error {
	var requests []float64
	for _, act := range rep.Peers {
		if act.Requests > 0 {
			requests = append(requests, float64(act.Requests))
		}
	}
	ranked := fit.Ranked(requests)
	if len(ranked) == 0 {
		return fmt.Errorf("experiments: no request data for %s", name)
	}
	p := plot.New(title, "rank", "# data requests")
	p.XLog, p.YLog = true, true
	xs := make([]float64, len(ranked))
	for i := range ranked {
		xs[i] = float64(i + 1)
	}
	if err := p.AddScatter("data", xs, ranked); err != nil {
		return err
	}
	if rep.SEFit.C > 0 {
		fys := make([]float64, len(ranked))
		for i := range fys {
			fys[i] = math.Max(rep.SEFit.Eval(i+1), 1e-3)
		}
		if err := p.AddLine(fmt.Sprintf("SE fit c=%.2f", rep.SEFit.C), xs, fys); err != nil {
			return err
		}
	}
	return fw.write(name, p)
}

// WriteContributionCDF renders panel (c) of Figures 11-14: the CDF of
// per-peer byte contributions (ascending, as the paper plots it).
func (fw *FigureWriter) WriteContributionCDF(name, title string, rep *analysis.Report) error {
	var bytes []float64
	for _, act := range rep.Peers {
		if act.Bytes > 0 {
			bytes = append(bytes, float64(act.Bytes))
		}
	}
	if len(bytes) == 0 {
		return fmt.Errorf("experiments: no contribution data for %s", name)
	}
	cdf := fit.CDF(bytes)
	xs := make([]float64, len(cdf))
	for i := range cdf {
		xs[i] = float64(i + 1)
	}
	p := plot.New(title, "peers (ascending contribution)", "cumulative share of bytes")
	if err := p.AddLine("CDF", xs, cdf); err != nil {
		return err
	}
	return fw.write(name, p)
}

// WriteRTTScatter renders Figures 15-18: per-peer request counts (log) and
// RTTs (log) against contribution rank.
func (fw *FigureWriter) WriteRTTScatter(name, title string, rep *analysis.Report) error {
	var xs, reqs, rtts []float64
	rank := 0
	for _, act := range rep.Peers {
		if act.Requests == 0 || act.RTT <= 0 {
			continue
		}
		rank++
		xs = append(xs, float64(rank))
		reqs = append(reqs, float64(act.Requests))
		rtts = append(rtts, act.RTT.Seconds())
	}
	if len(xs) == 0 {
		return fmt.Errorf("experiments: no RTT data for %s", name)
	}
	p := plot.New(title, "remote host (rank by # requests)", "# requests / RTT (s), log")
	p.YLog = true
	if err := p.AddScatter("# data requests", xs, reqs); err != nil {
		return err
	}
	if err := p.AddScatter("RTT (s)", xs, rtts); err != nil {
		return err
	}
	return fw.write(name, p)
}

// WriteFig6 renders one channel class of the four-week locality series.
func (fw *FigureWriter) WriteFig6(name, title string, series map[string][]float64) error {
	p := plot.New(title, "day", "traffic locality (%)")
	for _, probe := range fig6Probes {
		xs := make([]float64, len(series[probe]))
		ys := make([]float64, len(xs))
		for d, v := range series[probe] {
			xs[d], ys[d] = float64(d+1), 100*v
		}
		if len(xs) == 0 {
			continue
		}
		if err := p.AddLine(probe, xs, ys); err != nil {
			return err
		}
	}
	return fw.write(name, p)
}

// WriteFrontier renders the locality-frontier sweep as two figures: transit
// savings against continuity and against startup delay, one line per
// fidelity, sweeping the bias knob loosest to tightest along each line.
func (fw *FigureWriter) WriteFrontier(name, title string, points []FrontierPoint) error {
	cont := plot.New(title+" — continuity", "transit bytes saved vs random (%)", "playback continuity")
	start := plot.New(title+" — startup delay", "transit bytes saved vs random (%)", "startup delay (s)")
	for _, fid := range frontierFidelities {
		var xs, cys, sxs, sys []float64
		for _, pt := range points {
			if pt.Fidelity != fid {
				continue
			}
			xs = append(xs, 100*pt.TransitSaved)
			cys = append(cys, pt.Continuity)
			if pt.StartupOK {
				sxs = append(sxs, 100*pt.TransitSaved)
				sys = append(sys, pt.Startup.Seconds())
			}
		}
		if len(xs) > 0 {
			if err := cont.AddLine(fid.String(), xs, cys); err != nil {
				return err
			}
		}
		if len(sxs) > 0 {
			if err := start.AddLine(fid.String(), sxs, sys); err != nil {
				return err
			}
		}
	}
	if err := fw.write(name+"-continuity", cont); err != nil {
		return err
	}
	return fw.write(name+"-startup", start)
}

// WriteCDN renders the hybrid CDN+P2P sweep as two bar figures: the
// resilience floor (min continuity through the flash crowd and source
// crash) and the probe's inter-ISP transit bytes, one bar per
// (policy, deployment) cell.
func (fw *FigureWriter) WriteCDN(name, title string, points []CDNPoint) error {
	labels := make([]string, 0, len(points))
	cont := make([]float64, 0, len(points))
	transit := make([]float64, 0, len(points))
	for _, pt := range points {
		dep := "p2p"
		if pt.Edges {
			dep = "+edges"
		}
		labels = append(labels, pt.Spec+" "+dep)
		cont = append(cont, pt.MinContinuity)
		transit = append(transit, float64(pt.TransitBytes))
	}
	cp := plot.New(title+" — resilience floor", "policy / deployment", "min continuity through faults")
	if err := cp.SetBars(labels, cont); err != nil {
		return err
	}
	if err := fw.write(name+"-min-continuity", cp); err != nil {
		return err
	}
	tp := plot.New(title+" — inter-ISP transit", "policy / deployment", "transit bytes")
	if err := tp.SetBars(labels, transit); err != nil {
		return err
	}
	return fw.write(name+"-transit", tp)
}
