package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"pplivesim/internal/simnet"
)

// sliceEvery is the simulated span of one wall-time slice sample.
const sliceEvery = 5 * time.Second

// span is one traced interval. Times are nanoseconds since the tracer's
// origin; Parent indexes the span that caused it (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// tracer holds the benchmark-owned trace of one repetition: spans around the
// calls into each layer, a per-barrier window log, and a wall-clock sample
// every sliceEvery of simulated time. Everything stays in memory until
// write. A nil *tracer is valid and records nothing, so the untraced path
// pays one nil check per span boundary.
type tracer struct {
	origin time.Time
	spans  []span

	// Per-window log, filled by the World.OnBarrier hook.
	lastBarrier time.Time
	prev        []uint64 // per-domain Engine.Processed at the last barrier
	windowNS    []int64
	windowEv    []uint32
	critEvents  uint64 // Σ over windows of the busiest domain's events
	totalEvents uint64

	// Slice sampler.
	lastSlice time.Time
	sliceNS   []int64
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	return t.beginAt(name, parent, time.Now())
}

func (t *tracer) beginAt(name string, parent int, at time.Time) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: at.Sub(t.origin).Nanoseconds(), Parent: parent})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t != nil {
		t.endAt(id, time.Now())
	}
}

func (t *tracer) endAt(id int, at time.Time) {
	if t != nil {
		t.spans[id].End = at.Sub(t.origin).Nanoseconds()
	}
}

// timed runs fn inside a root span; the layer drivers use it.
func (t *tracer) timed(name string, fn func()) {
	id := t.begin(name, -1)
	fn()
	t.end(id)
}

// install registers the barrier hook and the slice sampler on a built,
// not-yet-run world.
func (t *tracer) install(w *simnet.World, horizon time.Duration) {
	doms := w.Domains()
	t.prev = make([]uint64, len(doms))
	t.lastBarrier = time.Now()
	w.OnBarrier(func() {
		now := time.Now()
		var total, busiest uint64
		for i, d := range doms {
			p := d.Engine().Processed()
			n := p - t.prev[i]
			t.prev[i] = p
			total += n
			if n > busiest {
				busiest = n
			}
		}
		t.windowNS = append(t.windowNS, now.Sub(t.lastBarrier).Nanoseconds())
		t.windowEv = append(t.windowEv, uint32(total))
		t.critEvents += busiest
		t.totalEvents += total
		t.lastBarrier = now
	})

	t.lastSlice = time.Now()
	d0 := doms[0]
	for at := sliceEvery; at <= horizon; at += sliceEvery {
		d0.At(at, func() {
			now := time.Now()
			t.sliceNS = append(t.sliceNS, now.Sub(t.lastSlice).Nanoseconds())
			t.lastSlice = now
		})
	}
}

func (t *tracer) spanSeconds(name string) float64 {
	for _, s := range t.spans {
		if s.Name == name {
			return float64(s.End-s.Start) / 1e9
		}
	}
	return 0
}

// metrics derives the traced per-layer numbers.
func (t *tracer) metrics(out map[string]float64) {
	out["core.build_ms"] = t.spanSeconds("core.build") * 1e3
	out["core.warmup_s"] = t.spanSeconds("core.warmup")
	out["core.watch_s"] = t.spanSeconds("core.watch")
	out["analysis.report_ms"] = t.spanSeconds("analysis.report") * 1e3

	out["eventsim.windows"] = float64(len(t.windowNS))
	ev := make([]float64, len(t.windowEv))
	for i, n := range t.windowEv {
		ev[i] = float64(n)
	}
	out["eventsim.events_per_window_p50"] = percentile(ev, 0.5)
	ns := toFloats(t.windowNS)
	out["eventsim.window_wall_us_p50"] = percentile(ns, 0.5) / 1e3
	out["eventsim.window_wall_us_p99"] = percentile(ns, 0.99) / 1e3
	out["eventsim.critical_path_share"] = ratio(float64(t.critEvents), float64(t.totalEvents))

	sl := toFloats(t.sliceNS)
	out["core.slice_wall_ms_p50"] = percentile(sl, 0.5) / 1e6
	out["core.slice_wall_ms_hi"] = percentile(sl, hiQuantile(len(sl))) / 1e6
}

// hiQuantile is the highest quantile of n samples that still has at least
// ten samples beyond it (the median when n is too small for a tail).
func hiQuantile(n int) float64 {
	if n < 20 {
		return 0.5
	}
	return 1 - 10/float64(n)
}

func toFloats(in []int64) []float64 {
	out := make([]float64, len(in))
	for i, v := range in {
		out[i] = float64(v)
	}
	return out
}

// percentile returns the q-quantile (nearest rank) of vals; 0 when empty.
func percentile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	i := int(q * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(vals []float64) float64 { return percentile(vals, 0.5) }

// write stores the spans (and the slice series, the only per-sample data
// small enough to keep) as dir/trace_<workload>.json.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace_%s.json", workload))
	data, err := json.MarshalIndent(struct {
		Workload string  `json:"workload"`
		Spans    []span  `json:"spans"`
		SliceNS  []int64 `json:"slice_wall_ns"`
		SliceSim string  `json:"slice_sim_span"`
		Windows  int     `json:"windows"`
	}{workload, t.spans, t.sliceNS, sliceEvery.String(), len(t.windowNS)}, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
