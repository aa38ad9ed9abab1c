package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"pplivesim/internal/core"
	"pplivesim/internal/peer"
)

// repResult is what one repetition of a workload measured. Everything in
// counts is a simulated statistic or an exact count read from the program's
// public counters after the run; the float fields are host-time
// measurements.
type repResult struct {
	setupS   float64 // wall, entry to core.Build → simulated clock at WarmUp
	watchS   float64 // wall, WarmUp stamp → Sim.Run returns
	cpuS     float64 // rusage user+system over Build+Run
	mallocs  uint64
	gcCount  uint32
	gcPauseS float64
	// rssMB is the resident-set high-water mark after the rep; it is this
	// rep's own peak only when rssReset is true.
	rssMB    float64
	rssReset bool

	simSeconds float64 // (WarmUp+Watch).Seconds()
	watchHours float64

	counts        map[string]float64
	continuityMin float64
	probes        []probeInfo
	fp            string

	ops ops
}

type probeInfo struct {
	Name       string  `json:"name"`
	Continuity float64 `json:"continuity"`
	Locality   float64 `json:"traffic_locality"`
	Bytes      uint64  `json:"data_bytes"`
	Replies    uint64  `json:"data_replies"`
}

// ops counts the correctness operations attempted and failed.
type ops struct {
	attempted, failed int
	failures          []string
}

func (o *ops) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// add folds another tally into o.
func (o *ops) add(other ops) {
	o.attempted += other.attempted
	o.failed += other.failed
	o.failures = append(o.failures, other.failures...)
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// resetPeakRSS returns the heap a previous repetition left behind to the
// OS and resets the kernel's resident-set high-water mark, so that the next
// peakRSSMB reads this repetition's own peak. It reports false where the
// kernel offers no reset (then only repetition 0's peak is meaningful).
func resetPeakRSS() bool {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscan(strings.TrimSuffix(strings.TrimSpace(rest), "kB"), &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// runRep builds and runs one scenario to completion. tr, when non-nil,
// installs the benchmark-owned trace hooks (spans, barrier hook, slice
// sampler); end-to-end metrics only ever come from reps with tr == nil.
func runRep(def *workloadDef, seed int64, size float64, tr *tracer) (*repResult, error) {
	sc := def.scenario(seed, size)
	horizon := sc.WarmUp + sc.Watch

	// Start every rep like a fresh process: garbage collected, freed pages
	// returned to the OS, resident-set high-water mark reset.
	runtime.GC()
	rssReset := resetPeakRSS()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()

	root := tr.begin("run", -1)
	t0 := time.Now()
	sb := tr.begin("core.build", root)
	sim, err := core.Build(sc)
	tr.end(sb)
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", def.name, err)
	}
	// The set-up stamp: one no-op event at WarmUp on the first domain,
	// planted in every run, traced or not, so traced and untraced reps (and
	// both commits of a comparison) carry the same extra event.
	var stamp time.Time
	world := sim.World()
	world.Domains()[0].At(sc.WarmUp, func() { stamp = time.Now() })
	if tr != nil {
		tr.install(world, horizon)
	}
	sw := tr.begin("core.warmup", root)
	res, err := sim.Run()
	tEnd := time.Now()
	if err != nil {
		return nil, fmt.Errorf("run %s: %w", def.name, err)
	}
	if stamp.IsZero() {
		return nil, fmt.Errorf("run %s: warm-up stamp never fired", def.name)
	}
	if tr != nil {
		// Both phases are observed from one Run call; split them at the stamp.
		tr.endAt(sw, stamp)
		tr.endAt(tr.beginAt("core.watch", root, stamp), tEnd)
	}
	cpu1 := cpuSeconds()
	runtime.ReadMemStats(&m1)
	rss := peakRSSMB()

	r := &repResult{
		setupS:     stamp.Sub(t0).Seconds(),
		watchS:     tEnd.Sub(stamp).Seconds(),
		cpuS:       cpu1 - cpu0,
		mallocs:    m1.Mallocs - m0.Mallocs,
		gcCount:    m1.NumGC - m0.NumGC,
		gcPauseS:   float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e9,
		rssMB:      rss,
		rssReset:   rssReset,
		simSeconds: horizon.Seconds(),
		watchHours: sc.Watch.Hours(),
		counts:     map[string]float64{},
	}

	// analysis.report: finalize every probe's report and encode it, the work
	// a figure run does after the engine stops.
	sr := tr.begin("analysis.report", root)
	localities := make([]float64, len(res.Probes))
	for i := range res.Probes {
		rep, err := res.ProbeReport(i)
		if err != nil {
			return nil, err
		}
		if err := json.NewEncoder(io.Discard).Encode(rep); err != nil {
			return nil, fmt.Errorf("encode report: %w", err)
		}
		localities[i] = rep.TrafficLocality
	}
	tr.end(sr)
	tr.end(root)

	collectCounts(r, def, size, sim, res, localities)
	return r, nil
}

// collectCounts reads the public counters of every layer after the run and
// performs the rep's correctness operations.
func collectCounts(r *repResult, def *workloadDef, size float64, sim *core.Sim, res *core.Result, localities []float64) {
	c := r.counts
	sc := res.Scenario
	events := float64(res.EventsProcessed)
	c["eventsim.events"] = events
	c["core.viewers_spawned"] = float64(res.PeersSpawned)
	c["core.flow_members_alive"] = float64(sim.FlowAlive())

	delivered, loss, queue, nohost := sim.World().NetStats()
	c["underlay.delivered"] = float64(delivered)
	c["underlay.dropped_loss"] = float64(loss)
	c["underlay.dropped_queue"] = float64(queue)
	c["underlay.dropped_nohost"] = float64(nohost)
	c["underlay.delivery_ratio"] = ratio(float64(delivered), float64(delivered+loss+queue+nohost))

	var st peer.Stats
	var dup, receipts uint64
	add := func(cl *peer.Client) {
		s := cl.Stats()
		st.TrackerQueries += s.TrackerQueries
		st.TrackerFailures += s.TrackerFailures
		st.GossipSent += s.GossipSent
		st.HandshakesSent += s.HandshakesSent
		st.HandshakesAccepted += s.HandshakesAccepted
		st.DataRequestsSent += s.DataRequestsSent
		st.DataRepliesGot += s.DataRepliesGot
		st.DataBusies += s.DataBusies
		st.DataRequestsShed += s.DataRequestsShed
		st.RequestTimeouts += s.RequestTimeouts
		b := cl.BufferStats()
		dup += b.Duplicates
		receipts += b.Received + b.Duplicates + b.Stale
	}
	for _, cl := range sim.BackgroundClients() {
		add(cl)
	}
	r.continuityMin = 1
	for i := range res.Probes {
		p := &res.Probes[i]
		add(p.Client)
		cont := p.Client.BufferStats().Continuity()
		if cont < r.continuityMin {
			r.continuityMin = cont
		}
		ps := p.Client.Stats()
		bytes := ps.DataBytesGot
		r.probes = append(r.probes, probeInfo{Name: p.Name, Continuity: cont, Locality: localities[i], Bytes: bytes, Replies: ps.DataRepliesGot})
		r.ops.check(cont >= 0.97, "probe %s continuity %.4f < 0.97", p.Name, cont)
		r.ops.check(bytes > 0 && localities[i] > 0 && localities[i] <= 1,
			"probe %s downloaded %d bytes at traffic locality %.4f", p.Name, bytes, localities[i])
	}
	c["peer.data_requests"] = float64(st.DataRequestsSent)
	c["peer.data_replies"] = float64(st.DataRepliesGot)
	c["peer.request_success_ratio"] = ratio(float64(st.DataRepliesGot), float64(st.DataRequestsSent))
	c["peer.request_timeouts"] = float64(st.RequestTimeouts)
	c["peer.busy_replies"] = float64(st.DataBusies)
	c["peer.requests_shed"] = float64(st.DataRequestsShed)
	c["peer.gossip_sent"] = float64(st.GossipSent)
	c["peer.handshakes_sent"] = float64(st.HandshakesSent)
	c["peer.handshake_accept_ratio"] = ratio(float64(st.HandshakesAccepted), float64(st.HandshakesSent))
	c["peer.duplicate_ratio"] = ratio(float64(dup), float64(receipts))
	c["tracker.queries"] = float64(st.TrackerQueries)
	c["tracker.failures"] = float64(st.TrackerFailures)

	var served, shed uint64
	for _, e := range res.EdgeStats {
		served += e.Served
		shed += e.Shed
	}
	c["cdn.served"] = float64(served)
	c["cdn.shed"] = float64(shed)
	c["cdn.shed_ratio"] = ratio(float64(shed), float64(served+shed))

	r.ops.check(res.Elapsed == sc.WarmUp+sc.Watch, "elapsed %v, want %v", res.Elapsed, sc.WarmUp+sc.Watch)
	r.ops.check(c["underlay.delivery_ratio"] >= 0.9, "underlay delivery ratio %.4f < 0.9", c["underlay.delivery_ratio"])
	if def.flowMembers > 0 {
		floor := int(float64(def.flowMembers) * size)
		r.ops.check(sim.FlowAlive() >= floor, "flow members alive %d < %d", sim.FlowAlive(), floor)
	}
	if def.cdn {
		r.ops.check(served > 0, "no CDN edge served a request")
		crash := false
		for _, w := range res.FaultWindows {
			crash = crash || strings.HasPrefix(w.Label, "source-crash")
		}
		r.ops.check(crash, "source crash window missing from FaultWindows")
	}

	// trajectory_fp: every simulated statistic a speed-only change must keep.
	h := fnv.New64a()
	fmt.Fprintf(h, "%d %d %d %d %d %d", res.EventsProcessed, res.PeersSpawned, delivered, loss, queue, nohost)
	for _, p := range r.probes {
		fmt.Fprintf(h, " %s %x %x %d", p.Name, p.Continuity, p.Locality, p.Bytes)
	}
	r.fp = fmt.Sprintf("%016x", h.Sum64())
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
