package analysis

import (
	"math/rand"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"pplivesim/internal/capture"
	"pplivesim/internal/isp"
	"pplivesim/internal/wire"
)

// The telemetry benchmarks compare the two measurement pipelines end to end
// on the same synthetic paper-scale probe trace:
//
//   - full capture: Recorder → Match → Analyze (the pre-streaming pipeline,
//     now opt-in), whose live state grows with the number of datagrams;
//   - streaming: capture.Aggregator feeding an analysis.Aggregate online,
//     whose live state grows with the number of distinct peers.
//
// Besides ns/op and allocs/op, both report a "live-heap-B" metric: the heap
// bytes still reachable from the pipeline's retained state after a full GC,
// measured once before the timed loop. `make bench-telemetry` harvests all
// of it into BENCH_telemetry.json.

const telemetryBenchRecords = 600_000 // ~2h probe at the paper's datagram rate

var telemetryTracker = netip.AddrFrom4([4]byte{61, 128, 0, 1})

// telemetryPeers allocates the synthetic swarm: nPeers addresses spread over
// the paper's ISP categories plus a source and a tracker, all resolvable.
func telemetryPeers(nPeers int) ([]netip.Addr, stubResolver) {
	resolver := stubResolver{telemetryTracker: isp.TELE, srcA: isp.TELE}
	groups := []isp.ISP{isp.TELE, isp.TELE, isp.TELE, isp.CNC, isp.CNC, isp.CER, isp.OtherCN, isp.Foreign}
	peers := make([]netip.Addr, nPeers)
	for i := range peers {
		p := netip.AddrFrom4([4]byte{58, 32, byte(10 + i/250), byte(1 + i%250)})
		peers[i] = p
		resolver[p] = groups[i%len(groups)]
	}
	return peers, resolver
}

// replayTelemetryTrace streams a deterministic synthetic probe trace of n
// datagrams into emit, shaped like a real capture: mostly data request/reply
// pairs, a gossip plane with ~30-address peer lists, periodic tracker
// exchanges, and a tail of requests that never get answered.
func replayTelemetryTrace(n int, peers []netip.Addr, emit func(at time.Duration, dir capture.Direction, peer netip.Addr, msg wire.Message, size int)) {
	rng := rand.New(rand.NewSource(1009))
	now := time.Duration(0)
	listBuf := make([]netip.Addr, 30)
	var seq uint64
	for i := 0; i < n; {
		now += time.Duration(1+rng.Intn(20)) * time.Millisecond
		p := peers[rng.Intn(len(peers))]
		switch roll := rng.Float64(); {
		case roll < 0.80: // data plane
			seq++
			emit(now, capture.Out, p, &wire.DataRequest{Seq: seq, Count: 1}, 64)
			i++
			if rng.Float64() < 0.9 {
				rt := time.Duration(20+rng.Intn(400)) * time.Millisecond
				emit(now+rt, capture.In, p, &wire.DataReply{Seq: seq, Count: 1, PieceLen: 1380}, 1420)
				i++
			}
		case roll < 0.95: // gossip plane
			emit(now, capture.Out, p, &wire.PeerListRequest{}, 48)
			i++
			if rng.Float64() < 0.8 {
				for j := range listBuf {
					listBuf[j] = peers[rng.Intn(len(peers))]
				}
				rt := time.Duration(15+rng.Intn(300)) * time.Millisecond
				emit(now+rt, capture.In, p, &wire.PeerListReply{Peers: listBuf}, 48+len(listBuf)*4)
				i++
			}
		default: // tracker exchange
			emit(now, capture.Out, telemetryTracker, &wire.TrackerQuery{}, 32)
			i++
			for j := range listBuf {
				listBuf[j] = peers[rng.Intn(len(peers))]
			}
			rt := time.Duration(10+rng.Intn(100)) * time.Millisecond
			emit(now+rt, capture.In, telemetryTracker, &wire.TrackerResponse{Peers: listBuf}, 32+len(listBuf)*4)
			i++
		}
	}
}

// Note: replayTelemetryTrace emits each reply at request-time+rt while later
// requests may carry earlier timestamps, so the stream is only approximately
// time-ordered. Both pipelines see the identical sequence, and neither
// depends on global ordering for the aggregate totals measured here (the
// Aggregator's TTL far exceeds the jitter), so the comparison is fair.

// runFullCapture runs the opt-in pipeline: record every datagram, then match
// and analyze post hoc. It returns everything the pipeline keeps alive.
func runFullCapture(n int, peers []netip.Addr, resolver stubResolver) (*capture.Recorder, *Report) {
	rec := new(capture.Recorder)
	replayTelemetryTrace(n, peers, rec.Observe)
	rep := Analyze(Input{
		Records:  rec.Records(),
		Resolver: resolver,
		Trackers: map[netip.Addr]bool{telemetryTracker: true},
		Source:   srcA,
		ProbeISP: isp.TELE,
	})
	return rec, rep
}

// runStreaming runs the default pipeline: the online matcher feeds the
// aggregate during the replay and no trace is retained.
func runStreaming(n int, peers []netip.Addr, resolver stubResolver) (*Aggregate, *Report) {
	agg := NewAggregate(resolver, srcA, isp.TELE)
	matcher := capture.NewAggregator(map[netip.Addr]bool{telemetryTracker: true}, capture.AggregatorConfig{}, agg)
	replayTelemetryTrace(n, peers, matcher.Observe)
	matcher.Close()
	return agg, agg.Report()
}

// liveHeapAfter measures the heap bytes kept alive by fn's return value:
// heap-in-use delta across the call, after forcing full collections on both
// sides. Returns the retained state so callers keep it reachable.
func liveHeapAfter[T any](fn func() T) (T, uint64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	state := fn()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	live := uint64(0)
	if after.HeapAlloc > before.HeapAlloc {
		live = after.HeapAlloc - before.HeapAlloc
	}
	return state, live
}

func benchTelemetry(b *testing.B, run func(n int, peers []netip.Addr, resolver stubResolver) (any, *Report)) {
	peers, resolver := telemetryPeers(600)
	type retained struct {
		state any
		rep   *Report
	}
	st, live := liveHeapAfter(func() retained {
		s, rep := run(telemetryBenchRecords, peers, resolver)
		return retained{s, rep}
	})
	runtime.KeepAlive(st)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, rep := run(telemetryBenchRecords, peers, resolver)
		runtime.KeepAlive(s)
		runtime.KeepAlive(rep)
	}
	// After the loop: ResetTimer would have deleted a metric reported earlier.
	b.ReportMetric(float64(live), "live-heap-B")
}

func BenchmarkTelemetryRecorded(b *testing.B) {
	benchTelemetry(b, func(n int, peers []netip.Addr, resolver stubResolver) (any, *Report) {
		rec, rep := runFullCapture(n, peers, resolver)
		return rec, rep
	})
}

func BenchmarkTelemetryStreamed(b *testing.B) {
	benchTelemetry(b, func(n int, peers []netip.Addr, resolver stubResolver) (any, *Report) {
		agg, rep := runStreaming(n, peers, resolver)
		return agg, rep
	})
}

// TestStreamingTelemetryMemoryFootprint is the acceptance check behind the
// benchmarks: on a paper-scale trace the streaming pipeline's retained state
// must be at least 10x smaller than the full-capture pipeline's, because it
// scales with peers rather than datagrams. It also checks both pipelines
// produce the same headline numbers on this trace, so the memory comparison
// is between equivalent measurements.
func TestStreamingTelemetryMemoryFootprint(t *testing.T) {
	n := 200_000
	if testing.Short() {
		n = 60_000
	}
	peers, resolver := telemetryPeers(600)

	type full struct {
		rec *capture.Recorder
		rep *Report
	}
	fc, fullLive := liveHeapAfter(func() full {
		rec, rep := runFullCapture(n, peers, resolver)
		return full{rec, rep}
	})
	type streamed struct {
		agg *Aggregate
		rep *Report
	}
	st, streamLive := liveHeapAfter(func() streamed {
		agg, rep := runStreaming(n, peers, resolver)
		return streamed{agg, rep}
	})

	if fc.rep.TrafficLocality != st.rep.TrafficLocality || fc.rep.PotentialLocality != st.rep.PotentialLocality {
		t.Errorf("pipelines disagree: full locality %.4f/%.4f vs streaming %.4f/%.4f",
			fc.rep.TrafficLocality, fc.rep.PotentialLocality, st.rep.TrafficLocality, st.rep.PotentialLocality)
	}
	if len(fc.rep.Peers) != len(st.rep.Peers) {
		t.Errorf("pipelines disagree on peer count: %d vs %d", len(fc.rep.Peers), len(st.rep.Peers))
	}

	ratio := float64(fullLive) / float64(streamLive)
	t.Logf("telemetry-bench: records=%d full_capture_bytes=%d streaming_bytes=%d ratio=%.1f",
		n, fullLive, streamLive, ratio)
	if ratio < 10 {
		t.Errorf("streaming retained %d B vs full capture %d B (%.1fx), want >= 10x reduction",
			streamLive, fullLive, ratio)
	}
	runtime.KeepAlive(fc)
	runtime.KeepAlive(st)
}
