package analysis

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/netip"
	"reflect"
	"sort"
	"testing"
	"time"

	"pplivesim/internal/capture"
	"pplivesim/internal/isp"
	"pplivesim/internal/wire"
)

// feedAggregate replays a captured trace into a fresh Aggregate the same way
// Analyze does.
func feedAggregate(records []capture.Record, trackers map[netip.Addr]bool, r Resolver) *Aggregate {
	agg := NewAggregate(r, srcA, isp.TELE)
	capture.Replay(records, trackers, agg)
	return agg
}

// genShardTrace builds one shard's deterministic random trace. Peers come
// from a per-shard address block (disjoint across shards) and every
// timestamp carries a per-shard sub-millisecond offset, so reply times are
// globally unique and the merged series order is well-defined.
func genShardTrace(seed int64, shard byte, resolver stubResolver) []capture.Record {
	rng := rand.New(rand.NewSource(seed))
	peers := make([]netip.Addr, 8)
	for i := range peers {
		p := netip.AddrFrom4([4]byte{58, 32, 10 + shard, byte(i + 1)})
		peers[i] = p
		if i%3 == 0 {
			resolver[p] = isp.TELE
		} else if i%3 == 1 {
			resolver[p] = isp.CNC
		} else {
			resolver[p] = isp.Foreign
		}
	}
	skew := time.Duration(shard) * 100 * time.Microsecond
	var records []capture.Record
	now := skew
	for i := 0; i < 250; i++ {
		now += time.Duration(1+rng.Intn(30)) * time.Millisecond
		p := peers[rng.Intn(len(peers))]
		switch roll := rng.Float64(); {
		case roll < 0.6:
			seq := uint64(i)
			records = append(records, capture.Record{At: now, Dir: capture.Out, Peer: p, Type: wire.TDataRequest, Seq: seq})
			if rng.Float64() < 0.8 {
				records = append(records, capture.Record{At: now + time.Duration(50+rng.Intn(400))*time.Millisecond,
					Dir: capture.In, Peer: p, Type: wire.TDataReply, Seq: seq, Count: 1, Payload: 1380})
			}
		case roll < 0.85:
			records = append(records, capture.Record{At: now, Dir: capture.Out, Peer: p, Type: wire.TPeerListRequest})
			if rng.Float64() < 0.75 {
				records = append(records, capture.Record{At: now + time.Duration(40+rng.Intn(250))*time.Millisecond,
					Dir: capture.In, Peer: p, Type: wire.TPeerListReply,
					Addrs: []netip.Addr{peers[rng.Intn(len(peers))], peers[rng.Intn(len(peers))]}})
			}
		default:
			records = append(records, capture.Record{At: now, Dir: capture.Out, Peer: trkA, Type: wire.TTrackerQuery})
			records = append(records, capture.Record{At: now + time.Duration(30+rng.Intn(80))*time.Millisecond,
				Dir: capture.In, Peer: trkA, Type: wire.TTrackerResponse,
				Addrs: []netip.Addr{peers[rng.Intn(len(peers))]}})
		}
	}
	sort.SliceStable(records, func(i, j int) bool { return records[i].At < records[j].At })
	return records
}

// TestAggregateMergeEqualsConcatenated is the shard-merge property: folding
// two per-shard aggregates must equal aggregating the concatenated trace —
// counters and response-time moments exactly (they are commutative sums, so
// the full report JSON must match byte-for-byte), and quantile sketches
// exactly too, because fixed-centroid sketches merge losslessly.
func TestAggregateMergeEqualsConcatenated(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		resolver := testResolver()
		shardA := genShardTrace(seed, 0, resolver)
		shardB := genShardTrace(seed+1000, 1, resolver)
		trackers := map[netip.Addr]bool{trkA: true}

		aggA := feedAggregate(shardA, trackers, resolver)
		aggB := feedAggregate(shardB, trackers, resolver)
		merged := NewAggregate(resolver, srcA, isp.TELE)
		merged.Merge(aggA)
		merged.Merge(aggB)

		combined := append(append([]capture.Record(nil), shardA...), shardB...)
		sort.SliceStable(combined, func(i, j int) bool { return combined[i].At < combined[j].At })
		want := feedAggregate(combined, trackers, resolver)

		gotJSON, err := json.Marshal(merged.Report())
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, err := json.Marshal(want.Report())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("seed %d: merged shard report differs from concatenated-trace report\nmerged: %s\nwant:   %s",
				seed, gotJSON, wantJSON)
		}

		// Sketch tolerance check, stated explicitly: merged quantiles must
		// sit within one bin width (~21%) of the concatenated build's.
		gotRep, wantRep := merged.Report(), want.Report()
		for g, ws := range wantRep.DataRTSketch {
			gs := gotRep.DataRTSketch[g]
			if gs == nil {
				t.Fatalf("seed %d: merged sketch missing group %v", seed, g)
			}
			for _, q := range []float64{0.5, 0.9, 0.99} {
				gq, wq := gs.Quantile(q).Seconds(), ws.Quantile(q).Seconds()
				if wq > 0 && (gq < wq*0.75 || gq > wq*1.25) {
					t.Errorf("seed %d: q%.0f merged %v vs concatenated %v", seed, q*100, gq, wq)
				}
			}
		}

		// Merge order must not matter for the serialized report either.
		swapped := NewAggregate(resolver, srcA, isp.TELE)
		swapped.Merge(aggB)
		swapped.Merge(aggA)
		swappedJSON, err := json.Marshal(swapped.Report())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(swappedJSON, wantJSON) {
			t.Errorf("seed %d: merge order changed the report", seed)
		}
	}
}

// TestAggregateMergeKWaySubShards extends the shard-merge property to the
// scaled partition's shape: a trace split across K address-range sub-shards
// (K=7 matches the 12-domain TELE split) must fold — in shard order or
// reversed — to exactly the single-pass build of the concatenated trace.
// This is what lets flow-fidelity runs merge window-local sub-shard
// aggregates at barriers without caring how the population was partitioned.
func TestAggregateMergeKWaySubShards(t *testing.T) {
	for _, k := range []int{3, 7} {
		resolver := testResolver()
		trackers := map[netip.Addr]bool{trkA: true}
		shards := make([][]capture.Record, k)
		var combined []capture.Record
		for s := 0; s < k; s++ {
			shards[s] = genShardTrace(int64(31*s+1), byte(s), resolver)
			combined = append(combined, shards[s]...)
		}
		sort.SliceStable(combined, func(i, j int) bool { return combined[i].At < combined[j].At })
		wantJSON, err := json.Marshal(feedAggregate(combined, trackers, resolver).Report())
		if err != nil {
			t.Fatal(err)
		}

		aggs := make([]*Aggregate, k)
		for s := range shards {
			aggs[s] = feedAggregate(shards[s], trackers, resolver)
		}
		merged := NewAggregate(resolver, srcA, isp.TELE)
		for _, a := range aggs {
			merged.Merge(a)
		}
		gotJSON, err := json.Marshal(merged.Report())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("k=%d: %d-way merged report differs from concatenated-trace report", k, k)
		}

		reversed := NewAggregate(resolver, srcA, isp.TELE)
		for s := k - 1; s >= 0; s-- {
			reversed.Merge(aggs[s])
		}
		revJSON, err := json.Marshal(reversed.Report())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(revJSON, wantJSON) {
			t.Errorf("k=%d: fold order changed the report", k)
		}
	}
}

// TestPeersVsConnectedSemantics pins the documented split between
// Report.Peers (every data-plane peer, answered or not — the
// rank-distribution population) and ConnectedByISP (only peers with matched
// transmissions — the paper's "connected peers" of Figures 11-14(a)):
// a peer with requests but zero replies appears in Peers, with its request
// count, and in no ConnectedByISP bucket.
func TestPeersVsConnectedSemantics(t *testing.T) {
	records := []capture.Record{
		// foreignA: two requests, never answers.
		{At: 1 * time.Second, Dir: capture.Out, Peer: foreignA, Type: wire.TDataRequest, Seq: 1},
		{At: 2 * time.Second, Dir: capture.Out, Peer: foreignA, Type: wire.TDataRequest, Seq: 2},
		// teleB: one request, answered.
		{At: 3 * time.Second, Dir: capture.Out, Peer: teleB, Type: wire.TDataRequest, Seq: 3},
		{At: 3*time.Second + 80*time.Millisecond, Dir: capture.In, Peer: teleB, Type: wire.TDataReply, Seq: 3, Count: 1, Payload: 1380},
	}
	rep := Analyze(Input{
		Records:  records,
		Resolver: testResolver(),
		Source:   srcA,
		ProbeISP: isp.TELE,
	})
	if len(rep.Peers) != 2 {
		t.Fatalf("Peers = %d, want 2 (request-only peers belong in the rank population): %+v", len(rep.Peers), rep.Peers)
	}
	var reqOnly *PeerActivity
	for i := range rep.Peers {
		if rep.Peers[i].Addr == foreignA {
			reqOnly = &rep.Peers[i]
		}
	}
	if reqOnly == nil {
		t.Fatal("request-only peer missing from Peers")
	}
	if reqOnly.Requests != 2 || reqOnly.Replies != 0 || reqOnly.Bytes != 0 || reqOnly.RTT != 0 {
		t.Errorf("request-only peer activity = %+v", *reqOnly)
	}
	// Connected peers are data-transmission peers only.
	if got := rep.ConnectedByISP[isp.Foreign]; got != 0 {
		t.Errorf("request-only peer counted as connected: ConnectedByISP[Foreign] = %d", got)
	}
	if got := rep.ConnectedByISP[isp.TELE]; got != 1 {
		t.Errorf("ConnectedByISP[TELE] = %d, want 1", got)
	}
	total := 0
	for _, n := range rep.ConnectedByISP {
		total += n
	}
	if total != 1 {
		t.Errorf("connected total = %d, want 1 of %d peers", total, len(rep.Peers))
	}
}

// TestUnsolicitedTrackerResponseOutOfRTStats checks the analysis half of the
// unsolicited-tracker fix: a flagged response contributes its addresses to
// the list tallies but no response-time statistic anywhere in the report.
func TestUnsolicitedTrackerResponseOutOfRTStats(t *testing.T) {
	records := []capture.Record{
		// Stray response, no query outstanding.
		{At: 1 * time.Second, Dir: capture.In, Peer: trkA, Type: wire.TTrackerResponse,
			Addrs: []netip.Addr{cncA}},
	}
	trackers := map[netip.Addr]bool{trkA: true}
	m := capture.Match(records, trackers)
	if len(m.TrackerLists) != 1 || !m.TrackerLists[0].Unsolicited {
		t.Fatalf("precondition: want one unsolicited tracker list, got %+v", m.TrackerLists)
	}
	rep := Analyze(Input{
		Records:  records,
		Resolver: testResolver(),
		Trackers: trackers,
		Source:   srcA,
		ProbeISP: isp.TELE,
	})
	if got := rep.ReturnedByISP[isp.CNC]; got != 1 {
		t.Errorf("unsolicited list addresses dropped: ReturnedByISP = %v", rep.ReturnedByISP)
	}
	if len(rep.ListRT) != 0 || len(rep.ListRTSketch) != 0 {
		t.Errorf("unsolicited tracker response leaked into RT stats: %v %v", rep.ListRT, rep.ListRTSketch)
	}
}

// TestAnalyzeSketchesMatchStats checks that the report's sketches cover the
// same populations as the exact RT stats: equal counts, equal means.
func TestAnalyzeSketchesMatchStats(t *testing.T) {
	rep := Analyze(buildInput())
	for g, st := range rep.DataRT {
		s := rep.DataRTSketch[g]
		if s == nil {
			t.Fatalf("DataRTSketch missing group %v", g)
		}
		if int(s.Count) != st.Count || s.Mean() != st.Mean {
			t.Errorf("group %v: sketch count/mean %d/%v vs stats %d/%v", g, s.Count, s.Mean(), st.Count, st.Mean)
		}
	}
	for g, st := range rep.ListRT {
		s := rep.ListRTSketch[g]
		if s == nil {
			t.Fatalf("ListRTSketch missing group %v", g)
		}
		if int(s.Count) != st.Count || s.Mean() != st.Mean {
			t.Errorf("group %v: sketch count/mean %d/%v vs stats %d/%v", g, s.Count, s.Mean(), st.Count, st.Mean)
		}
	}
	if len(rep.DataRTSketch) != len(rep.DataRT) || len(rep.ListRTSketch) != len(rep.ListRT) {
		t.Errorf("sketch group sets differ from stats: %d/%d, %d/%d",
			len(rep.DataRTSketch), len(rep.DataRT), len(rep.ListRTSketch), len(rep.ListRT))
	}
}

// TestAddTransfersEqualsDataMatched is the bulk-booking property flow swarms
// rely on: AddTransfers(p, rt, n, bytes) leaves the aggregate exactly as n
// DataMatched calls from p with response time rt whose sizes sum to bytes.
// Cases cover a peer in every ISP, the channel source, a marked CDN edge,
// n of 0, 1 and 7, and response times under the sketch floor and over its
// ceiling; the reports are compared after every case, so first observations,
// running minimums and bins shared across cases are all checked.
func TestAddTransfersEqualsDataMatched(t *testing.T) {
	resolver := testResolver()
	cerA := netip.MustParseAddr("202.112.0.1")
	otherA := netip.MustParseAddr("211.64.0.1")
	resolver[cerA] = isp.CER
	resolver[otherA] = isp.OtherCN
	peers := []netip.Addr{teleA, cncA, cerA, otherA, foreignA, srcA, edgeA}
	rts := []time.Duration{120 * time.Millisecond, 300 * time.Microsecond, 150 * time.Second, 40 * time.Millisecond}

	bulk := NewAggregate(resolver, srcA, isp.TELE)
	single := NewAggregate(resolver, srcA, isp.TELE)
	for _, a := range []*Aggregate{bulk, single} {
		a.SetEdges([]netip.Addr{edgeA})
		// Identical request counts on both sides make the rank fits and the
		// rank–RTT correlation part of the comparison.
		for i, p := range peers {
			for k := 0; k <= i; k++ {
				a.DataRequest(p, 0)
			}
		}
	}
	at := time.Second
	for _, rt := range rts {
		for _, p := range peers {
			for _, n := range []uint64{0, 1, 7} {
				var bytes uint64
				for i := uint64(0); i < n; i++ {
					size := 1380 - 100*int(i)
					bytes += uint64(size)
					at += time.Millisecond
					single.DataMatched(capture.Transmission{Peer: p, ReqAt: at, RepAt: at + rt, Bytes: size})
				}
				bulk.AddTransfers(p, rt, n, bytes)
				if got, want := bulk.Report(), single.Report(); !reflect.DeepEqual(got, want) {
					t.Fatalf("peer %s, rt %v, n %d: bulk report differs from per-transmission report\n bulk:   %+v\n single: %+v",
						p, rt, n, got, want)
				}
			}
		}
	}
	if rep := bulk.Report(); rep.SourceTransmissions == 0 || rep.EdgeTransmissions == 0 || len(rep.BytesByISP) != 5 {
		t.Errorf("cases missed a path: source %d, edge %d, %d ISPs", rep.SourceTransmissions, rep.EdgeTransmissions, len(rep.BytesByISP))
	}
}

// TestSketchAddNEqualsRepeatedAdd: AddN(d, n) is n calls of Add(d), field for
// field, whether it is the sketch's first observation or not, for durations
// under the floor, inside the grid and over the ceiling, and for n = 0.
func TestSketchAddNEqualsRepeatedAdd(t *testing.T) {
	ds := []time.Duration{250 * time.Millisecond, 10 * time.Microsecond, 5 * time.Minute, 3 * time.Millisecond}
	for _, first := range ds {
		for _, n := range []uint64{0, 1, 7} {
			var bulk, single RTSketch
			bulk.AddN(first, n)
			for i := uint64(0); i < n; i++ {
				single.Add(first)
			}
			if bulk != single {
				t.Fatalf("first observation %v ×%d: AddN %+v, Add %+v", first, n, bulk, single)
			}
			if n > 0 && (bulk.Min != first || bulk.Max != first) {
				t.Errorf("first observation %v ×%d: min/max %v/%v", first, n, bulk.Min, bulk.Max)
			}
			for _, d := range ds {
				bulk.AddN(d, n+2)
				for i := uint64(0); i < n+2; i++ {
					single.Add(d)
				}
				if bulk != single {
					t.Fatalf("after %v ×%d then %v ×%d: AddN %+v, Add %+v", first, n, d, n+2, bulk, single)
				}
			}
		}
	}
}
