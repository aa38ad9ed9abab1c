package capture

import (
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"pplivesim/internal/wire"
)

// matched is the outcome of running the paper's matching rules over a trace.
type matched struct {
	// Transmissions are matched data request/reply pairs in reply order.
	Transmissions []Transmission
	// UnansweredData counts data requests that never got a reply, including
	// earlier requests superseded by a retransmission of the same sub-piece
	// (the reply, if any, matches only the latest request).
	UnansweredData int
	// ListExchanges are matched peer-list request/reply pairs in reply
	// order, covering regular-peer gossip only.
	ListExchanges []ListExchange
	// UnansweredLists counts peer-list requests that never got a reply.
	UnansweredLists int
	// TrackerLists are peer lists received from tracker servers.
	TrackerLists []ListExchange
}

// match replays a recorded trace through the matcher (see Replay).
func match(records []Record, trackers map[netip.Addr]bool) matched {
	var sink collectSink
	Replay(records, trackers, &sink)
	return sink.m
}

// pending returns a's live pending-entry counts (data, peer-list, tracker):
// the table sizes the bounds apply to. Queue lengths may exceed them, because
// superseded and matched entries leave stale queue slots until they age out.
func pending(a *Aggregator) (data, lists, trackers int) {
	return len(a.pendingData), a.listN, a.trackerN
}

// collectSink reconstructs a matched from streamed events, so aggregator
// output can be compared 1:1 against post-hoc match.
type collectSink struct {
	m        matched
	requests int
}

func (c *collectSink) DataRequest(peer netip.Addr, at time.Duration) { c.requests++ }
func (c *collectSink) DataMatched(tx Transmission)                   { c.m.Transmissions = append(c.m.Transmissions, tx) }
func (c *collectSink) DataUnanswered(peer netip.Addr, reqAt time.Duration) {
	c.m.UnansweredData++
}
func (c *collectSink) PeerListMatched(ex ListExchange) {
	ex.Addrs = append([]netip.Addr(nil), ex.Addrs...)
	c.m.ListExchanges = append(c.m.ListExchanges, ex)
}
func (c *collectSink) ListUnanswered(peer netip.Addr, reqAt time.Duration) {
	c.m.UnansweredLists++
}
func (c *collectSink) TrackerList(ex ListExchange) {
	ex.Addrs = append([]netip.Addr(nil), ex.Addrs...)
	c.m.TrackerLists = append(c.m.TrackerLists, ex)
}

// replay feeds a recorded trace through an Aggregator, reconstructing the
// wire messages the taps would have observed.
func replay(a *Aggregator, records []Record) {
	for _, rec := range records {
		var msg wire.Message
		switch rec.Type {
		case wire.TDataRequest:
			msg = &wire.DataRequest{Seq: rec.Seq, Count: rec.Count}
		case wire.TDataReply:
			pieceLen := 0
			if rec.Count > 0 {
				pieceLen = rec.Payload / int(rec.Count)
			}
			msg = &wire.DataReply{Seq: rec.Seq, Count: rec.Count, PieceLen: uint16(pieceLen)}
		case wire.TPeerListRequest:
			msg = &wire.PeerListRequest{}
		case wire.TPeerListReply:
			msg = &wire.PeerListReply{Peers: rec.Addrs}
		case wire.TTrackerQuery:
			msg = &wire.TrackerQuery{}
		case wire.TTrackerResponse:
			msg = &wire.TrackerResponse{Peers: rec.Addrs}
		default:
			msg = &wire.BufferMapAnnounce{}
		}
		a.Observe(rec.At, rec.Dir, rec.Peer, msg, rec.Size)
	}
}

// genMixedTrace builds a random but deterministic trace exercising every
// matching rule: data requests with replies, losses and retransmissions,
// gossip with the latest-request rule and unsolicited replies, tracker
// exchanges, and interleaved noise.
func genMixedTrace(seed int64, n int) ([]Record, map[netip.Addr]bool) {
	rng := rand.New(rand.NewSource(seed))
	peers := make([]netip.Addr, 12)
	for i := range peers {
		peers[i] = netip.AddrFrom4([4]byte{58, 32, 1, byte(i + 1)})
	}
	trk := netip.AddrFrom4([4]byte{61, 128, 0, 1})
	trackers := map[netip.Addr]bool{trk: true}

	var records []Record
	now := time.Duration(0)
	seq := uint64(0)
	for len(records) < n {
		now += time.Duration(1+rng.Intn(40)) * time.Millisecond
		p := peers[rng.Intn(len(peers))]
		switch roll := rng.Float64(); {
		case roll < 0.55: // data request, usually answered
			seq++
			records = append(records, Record{At: now, Dir: Out, Peer: p, Type: wire.TDataRequest, Seq: seq, Count: 1})
			if rng.Float64() < 0.15 { // retransmission of the same sub-piece
				records = append(records, Record{At: now + time.Duration(30+rng.Intn(50))*time.Millisecond,
					Dir: Out, Peer: p, Type: wire.TDataRequest, Seq: seq, Count: 1})
			}
			if rng.Float64() < 0.85 {
				records = append(records, Record{At: now + time.Duration(120+rng.Intn(300))*time.Millisecond,
					Dir: In, Peer: p, Type: wire.TDataReply, Seq: seq, Count: 1, Payload: 1380})
			}
		case roll < 0.75: // gossip
			records = append(records, Record{At: now, Dir: Out, Peer: p, Type: wire.TPeerListRequest})
			if rng.Float64() < 0.7 {
				records = append(records, Record{At: now + time.Duration(80+rng.Intn(200))*time.Millisecond,
					Dir: In, Peer: p, Type: wire.TPeerListReply,
					Addrs: []netip.Addr{peers[rng.Intn(len(peers))], peers[rng.Intn(len(peers))]}})
			}
		case roll < 0.82: // unsolicited list reply (noise)
			records = append(records, Record{At: now, Dir: In, Peer: p, Type: wire.TPeerListReply,
				Addrs: []netip.Addr{peers[rng.Intn(len(peers))]}})
		case roll < 0.92: // tracker exchange, sometimes a duplicate response
			records = append(records, Record{At: now, Dir: Out, Peer: trk, Type: wire.TTrackerQuery})
			records = append(records, Record{At: now + time.Duration(50+rng.Intn(100))*time.Millisecond,
				Dir: In, Peer: trk, Type: wire.TTrackerResponse,
				Addrs: []netip.Addr{peers[rng.Intn(len(peers))]}})
			if rng.Float64() < 0.3 {
				records = append(records, Record{At: now + time.Duration(200+rng.Intn(100))*time.Millisecond,
					Dir: In, Peer: trk, Type: wire.TTrackerResponse,
					Addrs: []netip.Addr{peers[rng.Intn(len(peers))]}})
			}
		default: // noise the matcher must ignore
			records = append(records, Record{At: now, Dir: In, Peer: p, Type: wire.TBufferMap})
		}
	}
	// Replies were appended out of time order; restore capture order.
	sortRecordsByTime(records)
	return records, trackers
}

func sortRecordsByTime(records []Record) {
	// Stable insertion keeps equal-timestamp records in generation order,
	// like a real capture would.
	for i := 1; i < len(records); i++ {
		for j := i; j > 0 && records[j].At < records[j-1].At; j-- {
			records[j], records[j-1] = records[j-1], records[j]
		}
	}
}

// TestAggregatorMatchesPostHoc is the streaming matcher's equivalence
// property: over random traces, the outcomes streamed from wire messages
// reconstruct exactly the matched that post-hoc match computes from the
// records — same transmissions in the same order, same exchanges, same
// unanswered tallies. Both run the one Aggregator, so what the equality
// covers is the message→Record field extraction the two entry points share.
func TestAggregatorMatchesPostHoc(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		records, trackers := genMixedTrace(seed, 600)
		want := match(records, trackers)

		var sink collectSink
		agg := NewAggregator(trackers, AggregatorConfig{}, &sink)
		replay(agg, records)
		agg.Close()

		if !reflect.DeepEqual(sink.m, want) {
			t.Errorf("seed %d: streamed matched differs from post-hoc\nstreamed: %+v\npost-hoc: %+v",
				seed, summarize(sink.m), summarize(want))
		}
		rawRequests := 0
		for _, rec := range records {
			if rec.Dir == Out && rec.Type == wire.TDataRequest {
				rawRequests++
			}
		}
		if sink.requests != rawRequests {
			t.Errorf("seed %d: DataRequest events = %d, want %d", seed, sink.requests, rawRequests)
		}
	}
}

func summarize(m matched) map[string]int {
	return map[string]int{
		"transmissions":   len(m.Transmissions),
		"unansweredData":  m.UnansweredData,
		"listExchanges":   len(m.ListExchanges),
		"unansweredLists": m.UnansweredLists,
		"trackerLists":    len(m.TrackerLists),
	}
}

// TestAggregatorTTLEviction checks the bounded-pending contract: a request
// older than PendingTTL is evicted (counted unanswered) and a late reply no
// longer matches.
func TestAggregatorTTLEviction(t *testing.T) {
	peer := addr("58.32.0.2")
	var sink collectSink
	agg := NewAggregator(nil, AggregatorConfig{PendingTTL: time.Second}, &sink)

	agg.Observe(0, Out, peer, &wire.DataRequest{Seq: 1, Count: 1}, 0)
	agg.Observe(100*time.Millisecond, Out, peer, &wire.PeerListRequest{}, 0)
	if d, l, _ := pending(agg); d != 1 || l != 1 {
		t.Fatalf("pending = (%d,%d), want (1,1)", d, l)
	}

	// Any observation past the TTL triggers eviction of both.
	agg.Observe(2*time.Second, In, peer, &wire.BufferMapAnnounce{}, 0)
	if d, l, _ := pending(agg); d != 0 || l != 0 {
		t.Errorf("pending after TTL = (%d,%d), want (0,0)", d, l)
	}
	if sink.m.UnansweredData != 1 || sink.m.UnansweredLists != 1 {
		t.Errorf("unanswered after TTL = (%d,%d), want (1,1)",
			sink.m.UnansweredData, sink.m.UnansweredLists)
	}

	// The evicted request can no longer be matched by a late reply.
	agg.Observe(2100*time.Millisecond, In, peer, &wire.DataReply{Seq: 1, Count: 1, PieceLen: 1380}, 0)
	agg.Observe(2100*time.Millisecond, In, peer, &wire.PeerListReply{Peers: []netip.Addr{addr("1.1.1.1")}}, 0)
	if len(sink.m.Transmissions) != 0 || len(sink.m.ListExchanges) != 0 {
		t.Errorf("late replies matched after eviction: %+v", summarize(sink.m))
	}

	// A fresh request still matches normally afterwards.
	agg.Observe(3*time.Second, Out, peer, &wire.DataRequest{Seq: 2, Count: 1}, 0)
	agg.Observe(3200*time.Millisecond, In, peer, &wire.DataReply{Seq: 2, Count: 1, PieceLen: 1380}, 0)
	if len(sink.m.Transmissions) != 1 {
		t.Errorf("post-eviction request did not match: %+v", summarize(sink.m))
	}
	agg.Close()
}

// TestMatchAppliesPendingTTL pins the bound Match documents: in a replayed
// trace, a reply that arrives more than DefaultPendingTTL after its request
// finds the request already counted unanswered — exactly what the online
// matcher decided while the trace was captured.
func TestMatchAppliesPendingTTL(t *testing.T) {
	peer, late := addr("58.32.0.2"), DefaultPendingTTL+time.Second
	records := []Record{
		{At: 0, Dir: Out, Peer: peer, Type: wire.TDataRequest, Seq: 1, Count: 1},
		{At: time.Second, Dir: Out, Peer: peer, Type: wire.TPeerListRequest},
		{At: late, Dir: In, Peer: peer, Type: wire.TDataReply, Seq: 1, Count: 1, Payload: 1380},
		{At: late + time.Second, Dir: In, Peer: peer, Type: wire.TPeerListReply, Addrs: []netip.Addr{addr("60.0.0.2")}},
		// In time: the bound is per request, not a property of the trace.
		{At: late + 2*time.Second, Dir: Out, Peer: peer, Type: wire.TDataRequest, Seq: 2, Count: 1},
		{At: late + 3*time.Second, Dir: In, Peer: peer, Type: wire.TDataReply, Seq: 2, Count: 1, Payload: 1380},
	}
	m := match(records, nil)
	if len(m.Transmissions) != 1 || m.Transmissions[0].Seq != 2 || m.UnansweredData != 1 {
		t.Errorf("data: %d transmissions %+v, %d unanswered; want only seq 2 matched and 1 unanswered",
			len(m.Transmissions), m.Transmissions, m.UnansweredData)
	}
	if len(m.ListExchanges) != 0 || m.UnansweredLists != 1 {
		t.Errorf("lists: %d exchanges, %d unanswered; want 0 and 1", len(m.ListExchanges), m.UnansweredLists)
	}

	var sink collectSink
	agg := NewAggregator(nil, AggregatorConfig{}, &sink)
	replay(agg, records)
	agg.Close()
	if !reflect.DeepEqual(sink.m, m) {
		t.Errorf("online outcome differs from the replay\nonline: %+v\nreplay: %+v", sink.m, m)
	}
}

// TestAggregatorMaxPendingBound checks the hard cap: pending state never
// exceeds MaxPending entries per table; the oldest entries give way.
func TestAggregatorMaxPendingBound(t *testing.T) {
	var sink collectSink
	agg := NewAggregator(nil, AggregatorConfig{MaxPending: 4}, &sink)
	for i := 0; i < 10; i++ {
		p := netip.AddrFrom4([4]byte{58, 32, 1, byte(i + 1)})
		agg.Observe(time.Duration(i)*time.Millisecond, Out, p, &wire.DataRequest{Seq: uint64(i), Count: 1}, 0)
		agg.Observe(time.Duration(i)*time.Millisecond, Out, p, &wire.PeerListRequest{}, 0)
		if d, l, _ := pending(agg); d > 4 || l > 4 {
			t.Fatalf("pending = (%d,%d) exceeds MaxPending 4", d, l)
		}
	}
	if d, l, _ := pending(agg); d != 4 || l != 4 {
		t.Errorf("final pending = (%d,%d), want (4,4)", d, l)
	}
	if sink.m.UnansweredData != 6 || sink.m.UnansweredLists != 6 {
		t.Errorf("evicted = (%d,%d), want (6,6)", sink.m.UnansweredData, sink.m.UnansweredLists)
	}
	// The newest 4 are still matchable; the oldest 6 are gone.
	p9 := netip.AddrFrom4([4]byte{58, 32, 1, 10})
	agg.Observe(20*time.Millisecond, In, p9, &wire.DataReply{Seq: 9, Count: 1, PieceLen: 1380}, 0)
	p0 := netip.AddrFrom4([4]byte{58, 32, 1, 1})
	agg.Observe(21*time.Millisecond, In, p0, &wire.DataReply{Seq: 0, Count: 1, PieceLen: 1380}, 0)
	if len(sink.m.Transmissions) != 1 || sink.m.Transmissions[0].Peer != p9 {
		t.Errorf("cap eviction kept the wrong entries: %+v", sink.m.Transmissions)
	}
	agg.Close()
}

// TestAggregatorCloseFlushesPending checks that Close reports every
// still-outstanding request as unanswered (matching post-hoc leftovers) and
// is idempotent, and that Observe afterwards panics.
func TestAggregatorCloseFlushesPending(t *testing.T) {
	peer := addr("58.32.0.2")
	var sink collectSink
	agg := NewAggregator(nil, AggregatorConfig{}, &sink)
	agg.Observe(0, Out, peer, &wire.DataRequest{Seq: 1, Count: 1}, 0)
	agg.Observe(time.Millisecond, Out, peer, &wire.PeerListRequest{}, 0)
	agg.Close()
	agg.Close()
	if sink.m.UnansweredData != 1 || sink.m.UnansweredLists != 1 {
		t.Errorf("Close flushed (%d,%d), want (1,1)", sink.m.UnansweredData, sink.m.UnansweredLists)
	}
	defer func() {
		if recover() == nil {
			t.Error("Observe after Close did not panic")
		}
	}()
	agg.Observe(time.Second, Out, peer, &wire.DataRequest{Seq: 2, Count: 1}, 0)
}

// TestAggregatorQueueCompaction exercises the FIFO's amortized compaction by
// pushing enough matched pairs that the head index crosses the compaction
// threshold, then checks correctness is unaffected.
func TestAggregatorQueueCompaction(t *testing.T) {
	peer := addr("58.32.0.2")
	var sink collectSink
	agg := NewAggregator(nil, AggregatorConfig{PendingTTL: 50 * time.Millisecond}, &sink)
	now := time.Duration(0)
	for i := 0; i < 5000; i++ {
		now += time.Millisecond
		agg.Observe(now, Out, peer, &wire.DataRequest{Seq: uint64(i), Count: 1}, 0)
		now += time.Millisecond
		agg.Observe(now, In, peer, &wire.DataReply{Seq: uint64(i), Count: 1, PieceLen: 1380}, 0)
	}
	if len(sink.m.Transmissions) != 5000 || sink.m.UnansweredData != 0 {
		t.Fatalf("compaction broke matching: %+v", summarize(sink.m))
	}
	if d := len(agg.dataQ.items) - agg.dataQ.head; d > 2100 {
		t.Errorf("data queue holds %d slots; compaction is not keeping up", d)
	}
	agg.Close()
}
