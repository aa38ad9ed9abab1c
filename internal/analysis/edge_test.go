package analysis

import (
	"bytes"
	"encoding/json"
	"net/netip"
	"testing"
	"time"

	"pplivesim/internal/capture"
	"pplivesim/internal/isp"
	"pplivesim/internal/wire"
)

var edgeA = netip.MustParseAddr("58.32.200.1")

// edgeTrace builds a trace where the probe downloads from one regular TELE
// peer, the source, and a CDN edge (also resolvable to TELE — the acid test
// for the locality counters: edge bytes must stay out of the same-ISP share
// even though the edge sits in the probe's ISP).
func edgeTrace() []capture.Record {
	at := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	req := func(t float64, peer netip.Addr, seq uint64) capture.Record {
		return capture.Record{At: at(t), Dir: capture.Out, Peer: peer, Type: wire.TDataRequest, Seq: seq}
	}
	rep := func(t float64, peer netip.Addr, seq uint64) capture.Record {
		return capture.Record{At: at(t), Dir: capture.In, Peer: peer, Type: wire.TDataReply, Seq: seq, Count: 1, Payload: 1380}
	}
	return []capture.Record{
		req(1.0, teleB, 1), rep(1.1, teleB, 1),
		req(2.0, edgeA, 2), rep(2.1, edgeA, 2),
		req(3.0, edgeA, 3), rep(3.1, edgeA, 3),
		req(4.0, srcA, 4), rep(4.1, srcA, 4),
		req(5.0, cncA, 5), rep(5.1, cncA, 5),
	}
}

func edgeResolver() stubResolver {
	r := testResolver()
	r[edgeA] = isp.TELE
	return r
}

func TestEdgeTrafficSeparatedFromLocality(t *testing.T) {
	records := edgeTrace()
	rep := Analyze(Input{
		Records:  records,
		Resolver: edgeResolver(),
		Source:   srcA,
		Edges:    []netip.Addr{edgeA},
		ProbeISP: isp.TELE,
	})

	if rep.EdgeTransmissions != 2 || rep.EdgeBytes != 2*1380 {
		t.Errorf("edge tallies = (%d, %d), want (2, %d)", rep.EdgeTransmissions, rep.EdgeBytes, 2*1380)
	}
	if rep.SourceTransmissions != 1 || rep.SourceBytes != 1380 {
		t.Errorf("source tallies = (%d, %d), want (1, 1380)", rep.SourceTransmissions, rep.SourceBytes)
	}
	// Per-ISP peer counters: one TELE transmission (teleB), one CNC (cncA) —
	// the edge's two TELE-resolvable transmissions must not appear.
	if got := rep.TransmissionsByISP[isp.TELE]; got != 1 {
		t.Errorf("TransmissionsByISP[TELE] = %d, want 1 (edge leaked into peer counters)", got)
	}
	if got := rep.BytesByISP[isp.TELE]; got != 1380 {
		t.Errorf("BytesByISP[TELE] = %d, want 1380", got)
	}
	// Locality over client-peer bytes only: 1380 TELE of 2760 total.
	if rep.TrafficLocality != 0.5 {
		t.Errorf("TrafficLocality = %v, want 0.5 (edge bytes must not count)", rep.TrafficLocality)
	}
	// The edge is infrastructure: out of the rank population and the
	// connected-peer census, like the source.
	for _, p := range rep.Peers {
		if p.Addr == edgeA || p.Addr == srcA {
			t.Errorf("infrastructure %v in the peer rank population", p.Addr)
		}
	}
	if got := rep.ConnectedByISP[isp.TELE]; got != 1 {
		t.Errorf("ConnectedByISP[TELE] = %d, want 1", got)
	}
}

// TestEdgeTallyMergeFolds extends the shard-merge property to the edge
// counters: per-shard aggregates with the same edge set fold to the
// single-pass build, byte-for-byte in the serialized report.
func TestEdgeTallyMergeFolds(t *testing.T) {
	resolver := edgeResolver()
	records := edgeTrace()
	split := 6 // a request/reply pair boundary: matching is per-shard
	build := func(recs []capture.Record) *Aggregate {
		agg := NewAggregate(resolver, srcA, isp.TELE)
		agg.SetEdges([]netip.Addr{edgeA})
		m := match(recs, nil)
		for _, rec := range recs {
			if rec.Dir == capture.Out && rec.Type == wire.TDataRequest {
				agg.DataRequest(rec.Peer, rec.At)
			}
		}
		for _, tx := range m.Transmissions {
			agg.DataMatched(tx)
		}
		return agg
	}

	want := build(records)
	merged := NewAggregate(resolver, srcA, isp.TELE)
	merged.Merge(build(records[:split]))
	merged.Merge(build(records[split:]))

	gotJSON, _ := json.Marshal(merged.Report())
	wantJSON, _ := json.Marshal(want.Report())
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("merged edge report differs:\n got %s\nwant %s", gotJSON, wantJSON)
	}
	if rep := merged.Report(); rep.EdgeTransmissions != 2 || rep.EdgeBytes != 2*1380 {
		t.Errorf("merged edge tallies = (%d, %d), want (2, %d)", rep.EdgeTransmissions, rep.EdgeBytes, 2*1380)
	}
}

// TestEdgeJSONKeysAlwaysPresent pins the streaming/post-hoc parity shape:
// the report JSON carries edgeTransmissions/edgeBytes on every run — zero
// for pure-P2P traces — so the two telemetry paths serialize identically.
func TestEdgeJSONKeysAlwaysPresent(t *testing.T) {
	rep := Analyze(buildInput()) // no edges anywhere
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"edgeTransmissions", "edgeBytes"} {
		v, ok := m[key]
		if !ok {
			t.Errorf("report JSON lacks %q", key)
			continue
		}
		if v != float64(0) {
			t.Errorf("%s = %v on an edge-free trace, want 0", key, v)
		}
	}
}
