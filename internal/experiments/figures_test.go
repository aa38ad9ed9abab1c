package experiments

import (
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pplivesim/internal/analysis"
	"pplivesim/internal/fit"
	"pplivesim/internal/isp"
)

// syntheticReport builds a report with enough data to exercise every figure
// renderer without running a scenario.
func syntheticReport() *analysis.Report {
	rep := &analysis.Report{
		ProbeISP:      isp.TELE,
		ReturnedByISP: map[isp.ISP]int{isp.TELE: 100, isp.CNC: 40, isp.CER: 5, isp.OtherCN: 12, isp.Foreign: 9},
		BytesByISP:    map[isp.ISP]uint64{isp.TELE: 1 << 20, isp.CNC: 1 << 18},
		ListRTSeries:  map[isp.Group][]analysis.RTPoint{},
		SEFit:         fit.StretchedExponential{C: 0.4, A: 10, B: 58, R2: 0.98},
	}
	for i := 0; i < 30; i++ {
		rep.ListRTSeries[isp.GroupTELE] = append(rep.ListRTSeries[isp.GroupTELE], analysis.RTPoint{
			At: time.Duration(i) * 20 * time.Second,
			RT: time.Duration(100+i*10) * time.Millisecond,
		})
	}
	for i := 0; i < 40; i++ {
		rep.Peers = append(rep.Peers, analysis.PeerActivity{
			Addr:     netip.AddrFrom4([4]byte{58, 32, 0, byte(i + 1)}),
			ISP:      isp.TELE,
			Requests: 1000 / (i + 1),
			Replies:  900 / (i + 1),
			Bytes:    uint64(1380 * (900 / (i + 1))),
			RTT:      time.Duration(20+i*5) * time.Millisecond,
		})
	}
	return rep
}

func TestFigureWriterRendersAll(t *testing.T) {
	dir := t.TempDir()
	fw := &FigureWriter{Dir: dir}
	rep := syntheticReport()
	for _, p := range panels {
		for _, f := range p.figures {
			if err := f.write(fw, fmt.Sprintf("fig%d", p.first)+f.suffix, "synthetic"+f.caption, rep); err != nil {
				t.Fatal(err)
			}
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 6 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("rendered %d figures, want 6: %v", len(entries), names)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(data), "<svg") {
			t.Errorf("%s is not SVG", e.Name())
		}
		if len(data) < 500 {
			t.Errorf("%s suspiciously small (%d bytes)", e.Name(), len(data))
		}
	}
}

func TestFigureWriterFig6(t *testing.T) {
	dir := t.TempDir()
	fw := &FigureWriter{Dir: dir}
	pts := map[string][]float64{}
	for day := 1; day <= 5; day++ {
		for _, probe := range []string{ProbeCNC, ProbeTELE, ProbeMason} {
			pts[probe] = append(pts[probe], 0.5+float64(day)/20)
		}
	}
	if err := fw.WriteFig6("fig6a", "popular locality", pts); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig6a.svg"))
	if err != nil {
		t.Fatal(err)
	}
	for _, probe := range []string{ProbeCNC, ProbeTELE, ProbeMason} {
		if !strings.Contains(string(data), probe) {
			t.Errorf("fig6 missing series %s", probe)
		}
	}
}

func TestFigureWriterEmptyReport(t *testing.T) {
	dir := t.TempDir()
	fw := &FigureWriter{Dir: dir}
	rep := &analysis.Report{ProbeISP: isp.TELE, ReturnedByISP: map[isp.ISP]int{}, BytesByISP: map[isp.ISP]uint64{}}
	if err := fw.WriteRankDistribution("x", "t", rep); err == nil {
		t.Error("rank distribution rendered with no data")
	}
	if err := fw.WriteContributionCDF("x", "t", rep); err == nil {
		t.Error("CDF rendered with no data")
	}
}
