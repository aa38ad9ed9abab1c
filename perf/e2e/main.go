// Command e2e is the repository's performance ledger: four pinned
// scenarios run end to end through core.Build / Sim.Run, measured from
// outside through exported functions only.
//
//	bash perf/run.sh --workload popular_mixed --seed 7 --seconds 20 --trace 0
//	bash perf/run.sh -workload all -out perf/out/set.json -record
//	bash perf/run.sh -compare a.json b.json
//
// One invocation measures one workload in one process (peak RSS is a
// process-wide high-water mark); -workload all re-executes itself once per
// workload, sequentially. See perf/README.md for the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"pplivesim/perf/layers"
)

// heldOutSeed is never used while tuning a change; a claim must also hold
// on it.
const (
	defaultSeed = 7
	heldOutSeed = 1009
)

// runSeconds is the run length BENCHMARK.json declares.
const runSeconds = 20

// options are the command's flags plus, without a flag, the two values only
// the package test changes.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	out      string
	record   bool

	size float64 // scale of audience and watch span; 1 is the measured workload
	// outDir receives span files and the per-workload parts of a -workload
	// all set; the root .gitignore names the default, perf/out.
	outDir string
}

// metricValue is one reported number. Reps holds the per-repetition values
// of a host-time metric so -compare can judge the spread.
type metricValue struct {
	Value float64   `json:"value"`
	Unit  string    `json:"unit"`
	Reps  []float64 `json:"reps,omitempty"`
}

// workloadResult is one workload's full record in an -out file.
type workloadResult struct {
	Workload     string                 `json:"workload"`
	Seed         int64                  `json:"seed"`
	Reps         int                    `json:"reps"`
	Traced       bool                   `json:"traced"`
	EndToEnd     map[string]metricValue `json:"end_to_end"`
	PerLayer     map[string]metricValue `json:"per_layer"`
	TrajectoryFP string                 `json:"trajectory_fp"`
	Probes       []probeInfo            `json:"probes"`
	OpsAttempted int                    `json:"ops_attempted"`
	OpsFailed    int                    `json:"ops_failed"`
	Failures     []string               `json:"failures,omitempty"`
	TraceFile    string                 `json:"trace_file,omitempty"`
}

// resultSet is an -out file: every workload of one invocation plus where
// and on what it ran.
type resultSet struct {
	Commit    string           `json:"commit"`
	Machine   machine          `json:"machine"`
	When      string           `json:"when"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Workloads []workloadResult `json:"workloads"`
}

func main() {
	o := options{size: 1, outDir: filepath.Join("perf", "out")}
	flag.StringVar(&o.workload, "workload", "all", "workload name, or all")
	flag.Int64Var(&o.seed, "seed", defaultSeed, fmt.Sprintf("scenario seed (%d is the held-out seed)", heldOutSeed))
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "measure repetitions for at least this long")
	flag.IntVar(&o.trace, "trace", 0, "1: add one traced repetition and the layer drivers, report per-layer metrics")
	flag.StringVar(&o.out, "out", "", "write the full result set to this JSON file")
	flag.BoolVar(&o.record, "record", false, "append the -out result set to perf/history/ledger.jsonl")
	compare := flag.Bool("compare", false, "compare two -out files given as arguments; exit 1 on a regression")
	flag.Parse()

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare needs two result files")
			break
		}
		var regressed bool
		if regressed, err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err == nil && regressed {
			os.Exit(1)
		}
	case o.workload == "all":
		err = runAll(o)
	default:
		err = runOne(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(1)
	}
}

// runOne measures one workload in this process and prints, as the last line
// of standard output, the contract's result object.
func runOne(o options) error {
	def := workloadByName(o.workload)
	if def == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	res, err := measure(def, o)
	if err != nil {
		return err
	}
	printWorkload(os.Stdout, res)
	if o.out != "" {
		if err := writeSet(o, []workloadResult{*res}); err != nil {
			return err
		}
	}
	metrics := res.EndToEnd
	if o.trace == 1 {
		metrics = res.PerLayer
	}
	last := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.OpsFailed == 0, res.OpsAttempted, res.OpsFailed, contractMetrics(metrics)}
	line, err := json.Marshal(last)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if res.OpsFailed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed", def.name, res.OpsFailed, res.OpsAttempted)
	}
	return nil
}

// contractMetrics strips the per-rep series: the result line carries value
// and unit only.
func contractMetrics(in map[string]metricValue) map[string]metricValue {
	out := make(map[string]metricValue, len(in))
	for k, v := range in {
		out[k] = metricValue{Value: v.Value, Unit: v.Unit}
	}
	return out
}

// measure runs the untraced repetitions (and, with -trace 1, one traced
// repetition plus the layer drivers) of one workload.
func measure(def *workloadDef, o options) (*workloadResult, error) {
	// With tracing the run length is split: half for the untraced reps the
	// overhead is measured against, the rest for the traced rep and drivers.
	budgetS := o.seconds
	if o.trace == 1 {
		budgetS /= 2
	}
	var reps []*repResult
	start := time.Now()
	for {
		r, err := runRep(def, o.seed, o.size, nil)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
		// At least two, so that the determinism operation has a pair.
		if len(reps) >= 2 && time.Since(start).Seconds() >= budgetS {
			break
		}
	}

	res := &workloadResult{
		Workload: def.name, Seed: o.seed, Reps: len(reps), Traced: o.trace == 1,
		EndToEnd: map[string]metricValue{}, PerLayer: map[string]metricValue{},
		TrajectoryFP: reps[0].fp, Probes: reps[0].probes,
	}
	var all ops
	for i, r := range reps {
		if i > 0 {
			// Determinism: same seed, same trajectory, rep after rep.
			r.ops.check(r.fp == reps[0].fp, "rep %d trajectory_fp %s differs from rep 0 %s", i, r.fp, reps[0].fp)
		}
		all.add(r.ops)
	}

	series := func(f func(*repResult) float64) []float64 {
		out := make([]float64, len(reps))
		for i, r := range reps {
			out[i] = f(r)
		}
		return out
	}
	m := map[string]float64{}
	// Each rep's peak RSS is its own where the kernel lets the benchmark
	// reset the high-water mark; elsewhere only rep 0's is (later reps
	// inherit the mark of the ones before).
	rss := series(func(r *repResult) float64 { return r.rssMB })
	if !reps[len(reps)-1].rssReset {
		rss = rss[:1]
	}
	perRep := map[string][]float64{
		"peak_rss_mb":         rss,
		"setup_s":             series(func(r *repResult) float64 { return r.setupS }),
		"wall_s_per_sim_hour": series(func(r *repResult) float64 { return r.watchS / r.watchHours }),
		"allocs_per_sim_s":    series(func(r *repResult) float64 { return float64(r.mallocs) / r.simSeconds }),
	}
	for name, vals := range perRep {
		m[name] = median(vals)
	}
	m["probe_continuity_min"] = reps[0].continuityMin
	for _, d := range endToEnd {
		res.EndToEnd[d.Name] = metricValue{Value: m[d.Name], Unit: d.Unit, Reps: perRep[d.Name]}
	}

	// (a) Exact counts from rep 0, host-time layer numbers as medians.
	for k, v := range reps[0].counts {
		m[k] = v
	}
	wallMed := median(series(func(r *repResult) float64 { return r.setupS + r.watchS }))
	m["eventsim.events_per_s"] = m["eventsim.events"] / wallMed
	m["eventsim.allocs_per_event"] = median(series(func(r *repResult) float64 { return float64(r.mallocs) })) / m["eventsim.events"]
	m["core.cpu_s_per_sim_hour"] = median(series(func(r *repResult) float64 { return r.cpuS / (r.simSeconds / 3600) }))
	m["core.gc_count"] = median(series(func(r *repResult) float64 { return float64(r.gcCount) }))
	m["core.gc_pause_ms"] = median(series(func(r *repResult) float64 { return r.gcPauseS * 1e3 }))

	if o.trace == 1 {
		tr := newTracer()
		r, err := runRep(def, o.seed, o.size, tr)
		if err != nil {
			return nil, err
		}
		all.add(r.ops)
		tr.metrics(m)
		m["trace.overhead_frac"] = (r.setupS + r.watchS - wallMed) / wallMed

		lr, err := layers.Run(tr.timed)
		if err != nil {
			return nil, err
		}
		for _, l := range lr {
			m[l.Name] = l.Value
		}
		sc := def.scenario(o.seed, o.size)
		var probeReplies float64
		for _, p := range reps[0].probes {
			probeReplies += float64(p.Replies)
		}
		budget(m, sc, len(tr.prev), probeReplies)
		if res.TraceFile, err = tr.write(o.outDir, def.name); err != nil {
			return nil, err
		}
		for _, d := range perLayer() {
			res.PerLayer[d.Name] = metricValue{Value: m[d.Name], Unit: d.Unit}
		}
	} else {
		for _, d := range countMetrics {
			res.PerLayer[d.Name] = metricValue{Value: m[d.Name], Unit: d.Unit}
		}
	}
	res.OpsAttempted, res.OpsFailed, res.Failures = all.attempted, all.failed, all.failures
	return res, nil
}

// runAll measures every workload, one child process at a time, and merges
// their result files.
func runAll(o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	var all []workloadResult
	failed := false
	for _, def := range workloads {
		part := filepath.Join(o.outDir, "result_"+def.name+".json")
		// A child that dies before writing must not leave an earlier set's
		// numbers to be merged.
		if err := os.Remove(part); err != nil && !os.IsNotExist(err) {
			return err
		}
		cmd := exec.Command(self,
			"-workload", def.name,
			"-seed", fmt.Sprint(o.seed),
			"-seconds", fmt.Sprint(o.seconds),
			"-trace", fmt.Sprint(o.trace),
			"-out", part)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "e2e: workload %s: %v\n", def.name, err)
			failed = true
		}
		// A failed operation still leaves a fresh result file worth
		// merging; a crash leaves none, and then there is no set.
		set, err := readSet(part)
		if err != nil {
			return fmt.Errorf("workload %s left no result: %w", def.name, err)
		}
		all = append(all, set.Workloads...)
	}
	if o.out != "" {
		if err := writeSet(o, all); err != nil {
			return err
		}
	}
	if failed {
		return fmt.Errorf("at least one workload failed")
	}
	return nil
}

func writeSet(o options, ws []workloadResult) error {
	set := resultSet{
		Commit:    commitHash(),
		Machine:   fingerprint(),
		When:      time.Now().UTC().Format(time.RFC3339),
		Seed:      o.seed,
		Seconds:   o.seconds,
		Workloads: ws,
	}
	data, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(o.out), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(o.out, data, 0o644); err != nil {
		return err
	}
	if o.record {
		return appendLedger(set)
	}
	return nil
}

func readSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

// printWorkload prints every metric by name with its unit.
func printWorkload(w io.Writer, r *workloadResult) {
	fmt.Fprintf(w, "workload %s  seed %d  reps %d  GOMAXPROCS %d  GOGC %s\n",
		r.Workload, r.Seed, r.Reps, runtime.GOMAXPROCS(0), gogc())
	for _, d := range endToEnd {
		v := r.EndToEnd[d.Name]
		fmt.Fprintf(w, "  %-34s %14.6g %-9s (%s is better; bound %g in -compare, %g for the driver)\n", d.Name, v.Value, v.Unit, d.Better, d.claim, d.Bound)
	}
	fmt.Fprintf(w, "  %-34s %14d\n  %-34s %14d\n", "ops_attempted", r.OpsAttempted, "ops_failed", r.OpsFailed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	fmt.Fprintf(w, "  %-34s %14s\n", "trajectory_fp", r.TrajectoryFP)
	for _, p := range r.Probes {
		fmt.Fprintf(w, "  probe %-6s continuity %.4f  traffic_locality %.4f  bytes %d\n", p.Name, p.Continuity, p.Locality, p.Bytes)
	}
	names := make([]string, 0, len(r.PerLayer))
	for k := range r.PerLayer {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		v := r.PerLayer[k]
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", k, v.Value, v.Unit)
	}
	if r.TraceFile != "" {
		fmt.Fprintf(w, "  spans written to %s\n", r.TraceFile)
	}
}

func gogc() string {
	if v := os.Getenv("GOGC"); v != "" {
		return v
	}
	return "100 (default)"
}
