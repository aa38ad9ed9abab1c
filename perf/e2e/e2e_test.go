package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite BENCHMARK.json from the program's declarations")

// manifestFile is BENCHMARK.json's schema.
type manifestFile struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []manifestWL `json:"workloads"`
	EndToEnd   []metricDef  `json:"end_to_end"`
	PerLayer   []metricDef  `json:"per_layer"`
}

type manifestWL struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// buildManifest derives BENCHMARK.json from the workload and metric
// declarations the program measures with.
func buildManifest() manifestFile {
	mf := manifestFile{
		Command:    []string{"bash", "perf/run.sh"},
		Paths:      []string{"perf"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer(),
	}
	for _, w := range workloads {
		mf.Workloads = append(mf.Workloads, manifestWL{w.name, w.why})
	}
	return mf
}

// TestWorkloadsValidate: every pinned scenario is a valid core.Scenario at
// the measured size and at the smoke size.
func TestWorkloadsValidate(t *testing.T) {
	for _, def := range workloads {
		for _, size := range []float64{1, 0.1} {
			for _, seed := range []int64{defaultSeed, heldOutSeed} {
				sc := def.scenario(seed, size)
				if err := sc.Validate(); err != nil {
					t.Errorf("%s size %g seed %d: %v", def.name, size, seed, err)
				}
				if sc.Seed != seed {
					t.Errorf("%s: scenario seed %d, want %d", def.name, sc.Seed, seed)
				}
			}
		}
	}
}

// TestManifestMatchesProgram: BENCHMARK.json at the repository root is
// byte for byte what the program's declarations give; -update rewrites it.
func TestManifestMatchesProgram(t *testing.T) {
	path := filepath.Join("..", "..", "BENCHMARK.json")
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	if err := enc.Encode(buildManifest()); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(path, want.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("BENCHMARK.json differs from the program's declarations; regenerate with `cd perf && go test ./e2e -run TestManifestMatchesProgram -update`")
	}
}

// TestSmokeEmitsDeclaredMetrics runs the measuring code path of every
// workload at a tenth of its size, the minimum of two repetitions, and
// checks that the reported names are exactly the declared ones. Workloads
// alternate between the two shapes a run has: untraced (end-to-end metrics
// and the exact counts) and traced (every per-layer metric, a span file).
func TestSmokeEmitsDeclaredMetrics(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	dir := t.TempDir()
	mf := buildManifest()
	for i, def := range workloads {
		def, trace := def, i%2
		t.Run(def.name, func(t *testing.T) {
			res, err := measure(&def, options{
				workload: def.name, seed: defaultSeed, seconds: 0, trace: trace, size: 0.1, outDir: dir,
			})
			if err != nil {
				t.Fatal(err)
			}
			check := func(kind string, got map[string]metricValue, want []metricDef) {
				if len(got) != len(want) {
					t.Errorf("%d %s metrics, want %d", len(got), kind, len(want))
				}
				for _, d := range want {
					if !nameRE.MatchString(d.Name) {
						t.Errorf("metric name %q is malformed", d.Name)
					}
					if _, ok := got[d.Name]; !ok {
						t.Errorf("declared %s metric %q not reported", kind, d.Name)
					}
				}
			}
			check("end-to-end", res.EndToEnd, mf.EndToEnd)
			if res.OpsAttempted < 1 {
				t.Error("no operations attempted")
			}
			if trace == 0 {
				check("count", res.PerLayer, countMetrics)
				return
			}
			check("per-layer", res.PerLayer, mf.PerLayer)
			if _, err := os.Stat(res.TraceFile); err != nil {
				t.Errorf("span file: %v", err)
			}
		})
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "wall", Better: "lower", claim: 0.10}
	higher := metricDef{Name: "cont", Better: "higher", claim: 0.005}
	tight := []float64{99, 100, 101}
	wide := []float64{80, 100, 125}
	for _, tc := range []struct {
		name string
		d    metricDef
		a, b metricValue
		want string
	}{
		{"inside bound", lower, metricValue{Value: 100, Reps: tight}, metricValue{Value: 105, Reps: tight}, verdictOK},
		{"improved", lower, metricValue{Value: 100, Reps: tight}, metricValue{Value: 60, Reps: tight}, verdictOK},
		{"outside bound", lower, metricValue{Value: 100, Reps: tight}, metricValue{Value: 111, Reps: tight}, verdictRegressed},
		{"spread wider than bound", lower, metricValue{Value: 100, Reps: wide}, metricValue{Value: 103, Reps: tight}, verdictUnresolved},
		{"regression beats spread", lower, metricValue{Value: 100, Reps: wide}, metricValue{Value: 130, Reps: wide}, verdictRegressed},
		{"higher is better, fell", higher, metricValue{Value: 1}, metricValue{Value: 0.99}, verdictRegressed},
		{"higher is better, held", higher, metricValue{Value: 0.999}, metricValue{Value: 0.998}, verdictOK},
	} {
		if _, got := verdict(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}
