package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"pplivesim/internal/analysis"
	"pplivesim/internal/capture"
	"pplivesim/internal/cdn"
	"pplivesim/internal/fault"
	"pplivesim/internal/isp"
	"pplivesim/internal/peer"
	"pplivesim/internal/selection"
	"pplivesim/internal/simnet"
	"pplivesim/internal/workload"
)

// goldenDigest condenses a run into one number: a FNV-1a hash over every
// field of every probe-captured record plus the engine's event count. Any
// behavioural change — one datagram more, one byte different, one event
// reordered — changes the digest. Every digest-compared run is also held to
// the lookahead contract: a cross-shard datagram injected after its delivery
// time would be clamped by the engine and delivered late but reproducibly,
// which no digest comparison can see.
func goldenDigest(t *testing.T, res *Result) uint64 {
	t.Helper()
	if res.LateInjects != 0 {
		t.Errorf("%s: %d cross-shard datagrams arrived inside the lookahead", res.Scenario.Name, res.LateInjects)
	}
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(res.EventsProcessed)
	put(uint64(res.PeersSpawned))
	for _, p := range res.Probes {
		for _, rec := range p.Recorder.Records() {
			put(uint64(rec.At))
			put(uint64(rec.Dir))
			put(uint64(rec.Type))
			put(uint64(rec.Size))
			put(rec.Seq)
			put(uint64(rec.Count))
			put(uint64(rec.Payload))
			a4 := rec.Peer.As4()
			put(uint64(a4[0])<<24 | uint64(a4[1])<<16 | uint64(a4[2])<<8 | uint64(a4[3]))
			for _, a := range rec.Addrs {
				b4 := a.As4()
				put(uint64(b4[0])<<24 | uint64(b4[1])<<16 | uint64(b4[2])<<8 | uint64(b4[3]))
			}
		}
	}
	return h.Sum64()
}

// pinnedRow is one pinned trajectory. TestPinned runs its scenario once at
// 1 worker and once at 4 and holds both runs to the pins, to each other and
// to the row's own check.
type pinnedRow struct {
	name string
	long bool // full suite only
	// scenario builds the run without a worker count. Shards above
	// simnet.DefaultShards select the scaled partition; the runner then sets
	// Workers, and otherwise Shards.
	scenario func() Scenario
	digest   hash // goldenDigest at every worker count
	// check holds the assertions only this trajectory carries; it sees the
	// 1-worker run, which the comparison has shown equal to the 4-worker one.
	check func(t *testing.T, res *Result)
}

// pinned is every trajectory the package pins and every one it checks at more
// than one worker count. Every probe in it captures its full trace. The CDN
// rows come first: the cdn row is the long pole of the parallel run.
var pinned = []pinnedRow{
	{
		// The hybrid CDN+P2P run: edge discovery, urgent fallback,
		// flash-crowd spawning and edge fault handling.
		name:     "cdn",
		scenario: func() Scenario { return cdnScenario(7) },
		digest:   0x61632ce640b71d9f,
		check: func(t *testing.T, res *Result) {
			if len(res.Edges) != 3 || len(res.EdgeStats) != 3 {
				t.Fatalf("edges = %d, stats = %d, want 3 each", len(res.Edges), len(res.EdgeStats))
			}
			if edgeServed(res) == 0 {
				t.Error("no edge served a single request through a flash crowd and a source crash")
			}
			rep, err := res.ProbeReport(0)
			if err != nil {
				t.Fatal(err)
			}
			if rep.EdgeBytes == 0 || rep.EdgeTransmissions == 0 {
				t.Errorf("probe edge tallies = (%d, %d), want edge traffic during the crash window",
					rep.EdgeTransmissions, rep.EdgeBytes)
			}
		},
	},
	{
		// The source-crash row's crash with edge caches deployed: their
		// out-of-band ingest clocks keep running while the origin is silent,
		// so urgent misses fall back to the edges and playback stays far
		// healthier than the edge-less dip.
		name: "cdn-takeover",
		scenario: func() Scenario {
			sc := sourceCrashScenario()
			sc.Name = "test-cdn-takeover"
			sc.CDN = &cdn.Config{Placements: []cdn.Placement{
				{ISP: isp.TELE, Count: 2},
				{ISP: isp.CNC, Count: 1},
			}}
			return sc
		},
		digest: 0x2817b3c70415ed1b,
		check: func(t *testing.T, res *Result) {
			w := crashWindow(t, res)
			t.Logf("with edges: min continuity %.3f, dip depth %.3f, recovered %v", w.MinContinuity, w.DipDepth, w.Recovered)
			if w.MinContinuity < 0.9 {
				t.Errorf("min continuity %.3f through a source crash with edges deployed, want >= 0.9 (takeover failed)", w.MinContinuity)
			}
			if w.DipDepth > 0 && !w.Recovered {
				t.Errorf("continuity dipped and never recovered despite edge takeover")
			}
			if edgeServed(res) == 0 {
				t.Error("edges served nothing through the source crash")
			}
		},
	},
	{
		// The two-channel switching run at full length: a popular and an
		// unpopular channel with channel-browsing viewers.
		name:     "two-channel/switching",
		long:     true,
		scenario: func() Scenario { return twoChannelScenario(7) },
		digest:   0x16c3652811aae1f7,
		check:    checkTwoChannelSwitching,
	},
	{
		// The small churning swarm: the playback fix's fast-lane guard.
		name:     "single/churn",
		scenario: func() Scenario { return churnScenario(7) },
		digest:   0x5fd28422705e58fa,
		check:    checkMeshCarriesStream,
	},
	{
		name:     "single/static",
		scenario: func() Scenario { return smallScenario(42) },
		digest:   0x8e40292727df5a33,
	},
	{
		// The quota-biased churn run: policy-shaped tracker replies and
		// referrals, which the benign rows cannot see.
		name: "biased",
		scenario: func() Scenario {
			sc := churnScenario(7)
			sc.Name = "golden-biased"
			sc.Selection = selection.Spec{Kind: selection.KindQuota, MaxInterFrac: 0.25}
			return sc
		},
		digest: 0x391bc95a936e0565,
	},
	{
		// Source crash, tracker outage, link degradation and kill-churn.
		name:     "chaos",
		scenario: func() Scenario { return chaosScenario(7) },
		digest:   0xd415c124fea4c1de,
		check: func(t *testing.T, res *Result) {
			if len(res.FaultWindows) != 4 {
				t.Fatalf("FaultWindows = %d, want 4", len(res.FaultWindows))
			}
			if len(res.Probes[0].Samples) == 0 {
				t.Fatal("chaos run collected no resilience samples")
			}
		},
	},
	{
		// A lone source crash: continuity dips while the origin is silent
		// and recovers to 0.95 within a bounded time after it returns.
		name:     "source-crash",
		scenario: sourceCrashScenario,
		digest:   0x457c6379b5a5574,
		check: func(t *testing.T, res *Result) {
			w := crashWindow(t, res)
			if w.MinContinuity >= 0.9 {
				t.Errorf("min continuity %.3f during source crash; expected a clear dip below 0.9", w.MinContinuity)
			}
			if w.DipDepth <= 0 {
				t.Error("source crash produced no dip below the 0.95 target")
			}
			if !w.Recovered {
				t.Fatalf("continuity never recovered to 0.95 (dip lasted %s of the trace)", w.DipDuration)
			}
			if maxTTR := sourceCrashFor + 2*time.Minute; w.TimeToRecover > maxTTR {
				t.Errorf("time to recover = %s, want ≤ %s", w.TimeToRecover, maxTTR)
			}
		},
	},
	{
		// The churning swarm on the 12-domain scaled partition: 7 TELE
		// sub-shards plus infrastructure. A wider synthetic lookahead makes
		// it a different trajectory from single/churn.
		name: "scaled",
		scenario: func() Scenario {
			sc := churnScenario(7)
			sc.Name = "scaled-equivalence"
			sc.Shards = 12
			return sc
		},
		digest: 0xd11c7314eb558c56,
		check: func(t *testing.T, res *Result) {
			if cont := res.Probes[0].Client.BufferStats().Continuity(); cont < 0.9 {
				t.Errorf("scaled-partition continuity = %.3f, want >= 0.9 (probe must stream normally across sub-shards)", cont)
			}
		},
	},
	{
		// Kill-churn on the scaled partition: each TELE sub-shard draws its
		// kills from its own RNG stream.
		name: "scaled-kill",
		long: true,
		scenario: func() Scenario {
			sc := churnScenario(7)
			sc.Name = "scaled-kill-churn"
			sc.Shards = 12
			sc.Faults = &fault.Schedule{
				PeerKills: []fault.PeerKill{{At: sc.WarmUp + 2*time.Minute, Fraction: 0.2}},
			}
			return sc
		},
		digest: 0x5997864e2279f0c9,
	},
	{
		// Flow fidelity on the scaled partition. The flow account never
		// feeds back into the simulation, so only its own pin would notice
		// if its booking drifted.
		name:     "flow",
		scenario: flowScenario,
		digest:   0x21e3caf326532f83,
		check: func(t *testing.T, res *Result) {
			if got, want := flowAccountDigest(t, res), uint64(0x3873fe3bd0e43505); got != want {
				t.Errorf("flow traffic account digest = %#x, want %#x (the flow account changed)", got, want)
			}
		},
	},
	{
		name: "flow-kill",
		long: true,
		scenario: func() Scenario {
			sc := flowScenario()
			sc.Name = "flow-kill"
			sc.Faults = &fault.Schedule{
				PeerKills: []fault.PeerKill{{At: sc.WarmUp + 2*time.Minute, Fraction: 0.3, ISP: isp.TELE}},
			}
			return sc
		},
		digest: 0xe98b3cb03f71fb05,
	},
	{
		// The switching run shrunk so the concurrent-channel machinery
		// (per-shard switch timers, session teardown, direct rejoins) runs
		// in -short and under the race detector.
		name: "two-channel/short",
		scenario: func() Scenario {
			sc := twoChannelScenario(11)
			sc.ArrivalWindow = 45 * time.Second
			sc.WarmUp = 75 * time.Second
			sc.Watch = 90 * time.Second
			sc.Switching.MedianDwell = 30 * time.Second
			return sc
		},
		digest: 0x187c96e9f4ff521,
	},
	{
		name:     "shard-equivalence/seed11",
		long:     true,
		scenario: func() Scenario { return churnScenario(11) },
		digest:   0x61475d020a67917c,
	},
	{
		name:     "shard-equivalence/seed23",
		long:     true,
		scenario: func() Scenario { return churnScenario(23) },
		digest:   0xba1627149bf2bc84,
	},
}

// pinnedWorkers are the worker counts every row runs at.
var pinnedWorkers = [2]int{1, 4}

// TestPinned is the package's golden, parity and worker-invariance check.
// Scenario.Shards and Workers may change only which goroutine executes a
// domain's window, never the trajectory, so each row must give its pinned
// digest at 1 and at 4 workers, the same summary at both, and a streaming
// report that matches post-hoc analysis of the recorded trace.
func TestPinned(t *testing.T) {
	// eventsim.Group never starts more workers than GOMAXPROCS, so without
	// this the 4-worker runs would use two goroutines on a 2-core machine and
	// one on a single core. Workers that outnumber the cores park at once
	// while they wait for each other instead of spinning. The raise lasts
	// until every row has finished; no other test runs meanwhile, because
	// TestPinned is not parallel and parallel tests wait for it. Raised for
	// the whole package instead, on a 2-core machine it made the parallel
	// single-worker subtests of TestContinuityAcrossSeeds about 20 % slower.
	if prev := runtime.GOMAXPROCS(0); prev < pinnedWorkers[1] {
		runtime.GOMAXPROCS(pinnedWorkers[1])
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
	for _, row := range pinned {
		t.Run(row.name, func(t *testing.T) {
			if row.long && testing.Short() {
				t.Skip("full suite only")
			}
			t.Parallel()
			var runs [len(pinnedWorkers)]*Result
			var sums [len(pinnedWorkers)]runSummary
			for i, w := range pinnedWorkers {
				sc := row.scenario()
				if sc.Shards > simnet.DefaultShards {
					sc.Workers = w
				} else {
					sc.Shards = w
				}
				res, err := RunScenario(sc)
				if err != nil {
					t.Fatalf("%d workers: %v", w, err)
				}
				runs[i], sums[i] = res, summarize(t, res)
				if sums[i].Digest != row.digest {
					t.Errorf("%d workers: digest = %v, want %v (trajectory changed vs the pinned baseline)", w, sums[i].Digest, row.digest)
				}
				checkReportParity(t, res, w)
			}
			if diff := sums[0].diff(sums[1]); diff != "" {
				t.Errorf("1 and 4 workers diverge: %s%s", diff, firstRecordDiff(runs[0], runs[1]))
			}
			if row.check != nil {
				row.check(t, runs[0])
			}
		})
	}
}

// runSummary is what a row compares across worker counts.
type runSummary struct {
	Digest     hash
	Events     uint64
	Spawned    int
	Switches   uint64
	Switchers  int
	Continuity []float64 // per probe
	Flow       hash
}

// hash prints a digest the way the pins are written.
type hash uint64

func (h hash) String() string { return fmt.Sprintf("%#x", uint64(h)) }

func summarize(t *testing.T, res *Result) runSummary {
	s := runSummary{
		Digest:    hash(goldenDigest(t, res)),
		Events:    res.EventsProcessed,
		Spawned:   res.PeersSpawned,
		Switches:  res.Switches,
		Switchers: res.Switchers,
		Flow:      hash(flowAccountDigest(t, res)),
	}
	for _, p := range res.Probes {
		s.Continuity = append(s.Continuity, p.Client.BufferStats().Continuity())
	}
	return s
}

// diff names every field in which s and o differ; empty if none does.
func (s runSummary) diff(o runSummary) string {
	a, b := reflect.ValueOf(s), reflect.ValueOf(o)
	var out []string
	for i := 0; i < a.NumField(); i++ {
		if x, y := a.Field(i).Interface(), b.Field(i).Interface(); !reflect.DeepEqual(x, y) {
			out = append(out, fmt.Sprintf("%s %v vs %v", a.Type().Field(i).Name, x, y))
		}
	}
	return strings.Join(out, "; ")
}

// firstRecordDiff names the first probe record in which two runs differ.
func firstRecordDiff(a, b *Result) string {
	for i := range a.Probes {
		ra, rb := a.Probes[i].Recorder.Records(), b.Probes[i].Recorder.Records()
		for j := 0; j < len(ra) && j < len(rb); j++ {
			if !reflect.DeepEqual(ra[j], rb[j]) {
				return fmt.Sprintf("\nprobe %q diverges at record %d:\n  %+v\n  %+v", a.Probes[i].Name, j, ra[j], rb[j])
			}
		}
		if len(ra) != len(rb) {
			return fmt.Sprintf("\nprobe %q: %d vs %d records", a.Probes[i].Name, len(ra), len(rb))
		}
	}
	return ""
}

// checkReportParity holds each probe's streaming telemetry
// (capture.Aggregator → analysis.Aggregate, built during the run) to a
// post-hoc analysis of the same probe's full trace: the Report JSON must be
// byte-for-byte equal, and so must the in-memory ListRTSeries the figure
// pipeline reads.
func checkReportParity(t *testing.T, res *Result, workers int) {
	t.Helper()
	for i, p := range res.Probes {
		postHoc := analysis.Analyze(analysis.Input{
			Records:  p.Recorder.Records(),
			Resolver: res.Registry,
			Trackers: res.Trackers,
			Source:   p.Source,
			Edges:    res.Edges,
			ProbeISP: p.ISP,
		})
		streaming, err := res.ProbeReport(i)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(postHoc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(streaming)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%d workers, probe %q: streaming report differs from post-hoc\nstreaming: %s\npost-hoc:  %s",
				workers, p.Name, got, want)
		}
		for g, pts := range postHoc.ListRTSeries {
			sp := streaming.ListRTSeries[g]
			if len(sp) != len(pts) {
				t.Errorf("%d workers, probe %q: ListRTSeries[%v] length %d vs %d", workers, p.Name, g, len(sp), len(pts))
				continue
			}
			for j := range pts {
				if sp[j] != pts[j] {
					t.Errorf("%d workers, probe %q: ListRTSeries[%v][%d] = %+v, want %+v", workers, p.Name, g, j, sp[j], pts[j])
					break
				}
			}
		}
	}
}

// churnScenario is the small swarm under the default churn.
func churnScenario(seed int64) Scenario {
	sc := smallScenario(seed)
	sc.Churn = workload.DefaultChurn()
	return sc
}

// sourceCrashFor is how long the source-crash rows keep the origin down.
const sourceCrashFor = time.Minute

func sourceCrashScenario() Scenario {
	sc := smallScenario(11)
	sc.Name = "test-source-crash"
	crashAt := 5 * time.Minute
	sc.Faults = &fault.Schedule{
		SourceCrashes: []fault.SourceCrash{{Channel: 0, At: crashAt, Recover: crashAt + sourceCrashFor}},
	}
	return sc
}

// flowScenario is the churning swarm at flow fidelity on the scaled
// partition.
func flowScenario() Scenario {
	sc := churnScenario(7)
	sc.Name = "flow-small"
	sc.Fidelity = peer.FidelityFlow
	sc.Shards = 12
	return sc
}

// crashWindow is the probe's resilience window around the one source crash.
func crashWindow(t *testing.T, res *Result) analysis.WindowResilience {
	t.Helper()
	rep, err := res.ProbeResilience(0, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	return rep.Windows[0]
}

func edgeServed(res *Result) (served uint64) {
	for _, es := range res.EdgeStats {
		served += es.Served
	}
	return served
}

// checkMeshCarriesStream is the playback fix's guard. Before the scheduler
// fixes (late availability knowledge, a 5-second urgent window funnelling
// requests to the source, and the source shedding silently) the churning
// swarm degraded into a source-fed CDN with poor continuity.
func checkMeshCarriesStream(t *testing.T, res *Result) {
	p := res.Probes[0]
	bs := p.Client.BufferStats()
	if cont := bs.Continuity(); cont < 0.9 {
		t.Errorf("probe continuity = %.3f, want >= 0.9 (stats %+v)", cont, bs)
	}
	// The source must stay a seeder, not become the swarm's CDN: the probe
	// should pull well over half its bytes from regular peers.
	m := capture.Match(p.Recorder.Records(), res.Trackers)
	var sourceBytes, totalBytes uint64
	for _, tx := range m.Transmissions {
		totalBytes += uint64(tx.Bytes)
		if tx.Peer == res.SourceAddr {
			sourceBytes += uint64(tx.Bytes)
		}
	}
	if totalBytes == 0 {
		t.Fatal("probe downloaded nothing")
	}
	if share := float64(sourceBytes) / float64(totalBytes); share > 0.5 {
		t.Errorf("source served %.1f%% of probe bytes, want the mesh to carry the stream (<= 50%%)", 100*share)
	}
}
