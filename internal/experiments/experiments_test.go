package experiments

import (
	"strings"
	"testing"
	"time"

	"pplivesim/internal/isp"
)

// tinyScale keeps the test suite fast.
func tinyScale() Scale {
	return Scale{
		Population:     0.08,
		Watch:          6 * time.Minute,
		WarmUp:         3 * time.Minute,
		ArrivalWindow:  2 * time.Minute,
		Fig6Days:       2,
		Fig6Population: 0.06,
		Fig6Watch:      5 * time.Minute,
	}
}

func TestRunnerCachesRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario run")
	}
	r := NewRunner(tinyScale(), 1)
	first, err := r.Popular()
	if err != nil {
		t.Fatal(err)
	}
	second, err := r.Popular()
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Error("popular run not cached")
	}
	for _, probe := range []string{ProbeTELE, ProbeCNC, ProbeMason} {
		if first.Reports[probe] == nil {
			t.Errorf("missing report for %s", probe)
		}
	}
}

func TestRenderersProduceAllSections(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario run")
	}
	r := NewRunner(tinyScale(), 2)
	out, err := r.Popular()
	if err != nil {
		t.Fatal(err)
	}
	rep := out.Reports[ProbeTELE]

	abc := FigureABC("fig", rep)
	for _, want := range []string{"returned peer addresses", "list source", "traffic locality", "TELE_p"} {
		if !strings.Contains(abc, want) {
			t.Errorf("FigureABC missing %q:\n%s", want, abc)
		}
	}
	rt := ResponseTimes("rt", rep)
	for _, g := range isp.Groups() {
		if !strings.Contains(rt, g.String()) {
			t.Errorf("ResponseTimes missing group %s", g)
		}
	}
	contrib := Contributions("c", rep)
	for _, want := range []string{"stretched exponential", "zipf", "top 10%"} {
		if !strings.Contains(contrib, want) {
			t.Errorf("Contributions missing %q", want)
		}
	}
	if !strings.Contains(RTTCorrelation("r", rep), "correlation") {
		t.Error("RTTCorrelation malformed")
	}
	if !strings.Contains(DataRTRow("row", rep), "TELE=") {
		t.Error("DataRTRow malformed")
	}
}

func TestFig6ProducesSeries(t *testing.T) {
	if testing.Short() {
		t.Skip("multiple scenario runs")
	}
	s := tinyScale()
	s.Fig6Days = 2
	r := NewRunner(s, 3)
	s6, err := r.Fig6(nil)
	if err != nil {
		t.Fatal(err)
	}
	// 2 days for each of 3 probes per channel class.
	for _, series := range []map[string][]float64{s6.Popular, s6.Unpopular} {
		if len(series) != 3 {
			t.Fatalf("series for %d probes, want 3", len(series))
		}
		for probe, days := range series {
			if len(days) != 2 {
				t.Errorf("%s: %d days, want 2", probe, len(days))
			}
			for _, locality := range days {
				if locality < 0 || locality > 1 {
					t.Errorf("%s: locality %f out of range", probe, locality)
				}
			}
		}
	}
	again, err := r.Fig6(nil)
	if err != nil || &again.Popular[ProbeTELE][0] != &s6.Popular[ProbeTELE][0] {
		t.Errorf("second Fig6 call re-ran the sweep (err %v)", err)
	}
	text := RenderFig6(s6)
	if !strings.Contains(text, "popular programs") || !strings.Contains(text, "mason") {
		t.Errorf("RenderFig6 malformed:\n%s", text)
	}
}

func TestScalesAreOrdered(t *testing.T) {
	q, d, p := QuickScale(), DefaultScale(), PaperScale()
	if !(q.Population < d.Population && d.Population < p.Population) {
		t.Error("population scales not increasing")
	}
	if !(q.Watch < d.Watch && d.Watch < p.Watch) {
		t.Error("watch durations not increasing")
	}
	if p.Fig6Days != 28 {
		t.Errorf("paper scale fig6 days = %d, want 28", p.Fig6Days)
	}
}
