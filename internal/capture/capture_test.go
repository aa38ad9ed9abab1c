package capture

import (
	"net/netip"
	"testing"
	"time"

	"pplivesim/internal/wire"
)

func addr(s string) netip.Addr { return netip.MustParseAddr(s) }

func TestObserveExtractsFields(t *testing.T) {
	r := NewRecorder(addr("58.32.0.1"))
	peer := addr("58.32.0.2")
	req := &wire.DataRequest{Channel: 1, Seq: 42, Count: 1}
	r.Observe(time.Second, Out, peer, req, wire.Size(req))
	rep := &wire.DataReply{Channel: 1, Seq: 42, Count: 1, PieceLen: 1380}
	r.Observe(2*time.Second, In, peer, rep, wire.Size(rep))
	list := &wire.PeerListReply{Channel: 1, Peers: []netip.Addr{addr("1.1.1.1"), addr("2.2.2.2")}}
	r.Observe(3*time.Second, In, peer, list, wire.Size(list))

	recs := r.Records()
	if len(recs) != 3 {
		t.Fatalf("captured %d records, want 3", len(recs))
	}
	if recs[0].Seq != 42 || recs[0].Dir != Out || recs[0].Type != wire.TDataRequest {
		t.Errorf("request record = %+v", recs[0])
	}
	if recs[1].Payload != 1380 {
		t.Errorf("reply payload = %d, want 1380", recs[1].Payload)
	}
	if len(recs[2].Addrs) != 2 {
		t.Errorf("list record addrs = %v", recs[2].Addrs)
	}
	if r.Len() != 3 || r.Self() != addr("58.32.0.1") {
		t.Errorf("Len/Self wrong: %d %v", r.Len(), r.Self())
	}
}

func TestMatchDataTransmissions(t *testing.T) {
	peer := addr("58.32.0.2")
	records := []Record{
		{At: 1 * time.Second, Dir: Out, Peer: peer, Type: wire.TDataRequest, Seq: 10},
		{At: 2 * time.Second, Dir: Out, Peer: peer, Type: wire.TDataRequest, Seq: 11},
		{At: 2500 * time.Millisecond, Dir: In, Peer: peer, Type: wire.TDataReply, Seq: 10, Count: 1, Payload: 1380},
		// Seq 11 never answered.
	}
	m := Match(records, nil)
	if len(m.Transmissions) != 1 {
		t.Fatalf("matched %d transmissions, want 1", len(m.Transmissions))
	}
	tx := m.Transmissions[0]
	if tx.Seq != 10 || tx.ResponseTime() != 1500*time.Millisecond || tx.Bytes != 1380 {
		t.Errorf("transmission = %+v", tx)
	}
	if m.UnansweredData != 1 {
		t.Errorf("unanswered = %d, want 1", m.UnansweredData)
	}
}

func TestMatchSameSeqDifferentPeers(t *testing.T) {
	p1, p2 := addr("58.32.0.2"), addr("60.0.0.2")
	records := []Record{
		{At: 1 * time.Second, Dir: Out, Peer: p1, Type: wire.TDataRequest, Seq: 10},
		{At: 1 * time.Second, Dir: Out, Peer: p2, Type: wire.TDataRequest, Seq: 10},
		{At: 2 * time.Second, Dir: In, Peer: p2, Type: wire.TDataReply, Seq: 10, Count: 1, Payload: 1380},
	}
	m := Match(records, nil)
	if len(m.Transmissions) != 1 || m.Transmissions[0].Peer != p2 {
		t.Fatalf("matching crossed peers: %+v", m.Transmissions)
	}
	if m.UnansweredData != 1 {
		t.Errorf("unanswered = %d, want 1 (p1's request)", m.UnansweredData)
	}
}

// TestMatchRetransmissionCountsSupersededRequest is the regression pin for
// the UnansweredData undercount: a retransmitted data request used to
// silently overwrite the earlier pending entry, so the superseded — and
// forever unanswered — first request vanished from the tally. The reply must
// still match the latest request (§3.1), but the count must be 1, not 0.
// This test fails against the pre-fix Match.
func TestMatchRetransmissionCountsSupersededRequest(t *testing.T) {
	peer := addr("58.32.0.2")
	records := []Record{
		{At: 1 * time.Second, Dir: Out, Peer: peer, Type: wire.TDataRequest, Seq: 10},
		// Retransmission of the same sub-piece to the same peer.
		{At: 3 * time.Second, Dir: Out, Peer: peer, Type: wire.TDataRequest, Seq: 10},
		{At: 3500 * time.Millisecond, Dir: In, Peer: peer, Type: wire.TDataReply, Seq: 10, Count: 1, Payload: 1380},
	}
	m := Match(records, nil)
	if len(m.Transmissions) != 1 {
		t.Fatalf("matched %d transmissions, want 1", len(m.Transmissions))
	}
	// Match-to-latest: the reply pairs with the 3s retransmission.
	if got := m.Transmissions[0].ResponseTime(); got != 500*time.Millisecond {
		t.Errorf("response time = %v, want 500ms (reply matches the retransmission)", got)
	}
	if m.UnansweredData != 1 {
		t.Errorf("unanswered = %d, want 1 (the superseded 1s request never got a reply)", m.UnansweredData)
	}

	// Two retransmissions, no reply at all: all three requests unanswered.
	records = []Record{
		{At: 1 * time.Second, Dir: Out, Peer: peer, Type: wire.TDataRequest, Seq: 10},
		{At: 2 * time.Second, Dir: Out, Peer: peer, Type: wire.TDataRequest, Seq: 10},
		{At: 3 * time.Second, Dir: Out, Peer: peer, Type: wire.TDataRequest, Seq: 10},
	}
	if m := Match(records, nil); m.UnansweredData != 3 {
		t.Errorf("unanswered = %d, want 3", m.UnansweredData)
	}
}

// TestMatchUnsolicitedTrackerResponseFlagged pins the fix for synthesized
// zero-duration tracker response times: a response with no outstanding query
// keeps its addresses (Figures 2-5 count them) but is flagged Unsolicited so
// its meaningless ResponseTime can never enter timing statistics.
func TestMatchUnsolicitedTrackerResponseFlagged(t *testing.T) {
	trk := addr("61.128.0.1")
	trackers := map[netip.Addr]bool{trk: true}
	records := []Record{
		// Stray response with no query outstanding.
		{At: 1 * time.Second, Dir: In, Peer: trk, Type: wire.TTrackerResponse,
			Addrs: []netip.Addr{addr("1.1.1.1")}},
		// A solicited exchange afterwards.
		{At: 2 * time.Second, Dir: Out, Peer: trk, Type: wire.TTrackerQuery},
		{At: 2500 * time.Millisecond, Dir: In, Peer: trk, Type: wire.TTrackerResponse,
			Addrs: []netip.Addr{addr("2.2.2.2")}},
	}
	m := Match(records, trackers)
	if len(m.TrackerLists) != 2 {
		t.Fatalf("tracker lists = %d, want 2", len(m.TrackerLists))
	}
	stray, solicited := m.TrackerLists[0], m.TrackerLists[1]
	if !stray.Unsolicited {
		t.Error("stray tracker response not flagged Unsolicited")
	}
	if stray.ResponseTime() != 0 {
		t.Errorf("stray response time = %v, want 0 (synthesized)", stray.ResponseTime())
	}
	if len(stray.Addrs) != 1 {
		t.Errorf("stray list addrs = %v, want kept", stray.Addrs)
	}
	if solicited.Unsolicited {
		t.Error("solicited tracker response flagged Unsolicited")
	}
	if got := solicited.ResponseTime(); got != 500*time.Millisecond {
		t.Errorf("solicited response time = %v, want 500ms", got)
	}
}

func TestMatchPeerListLatestRequestRule(t *testing.T) {
	peer := addr("58.32.0.2")
	records := []Record{
		{At: 1 * time.Second, Dir: Out, Peer: peer, Type: wire.TPeerListRequest},
		{At: 21 * time.Second, Dir: Out, Peer: peer, Type: wire.TPeerListRequest},
		{At: 22 * time.Second, Dir: In, Peer: peer, Type: wire.TPeerListReply,
			Addrs: []netip.Addr{addr("1.1.1.1")}},
	}
	m := Match(records, nil)
	if len(m.ListExchanges) != 1 {
		t.Fatalf("matched %d list exchanges, want 1", len(m.ListExchanges))
	}
	// Reply must match the LATEST request (21s), not the first.
	if got := m.ListExchanges[0].ResponseTime(); got != time.Second {
		t.Errorf("response time = %v, want 1s (latest-request rule)", got)
	}
	if m.UnansweredLists != 1 {
		t.Errorf("unanswered lists = %d, want 1", m.UnansweredLists)
	}
}

func TestMatchUnsolicitedListReplyIgnored(t *testing.T) {
	peer := addr("58.32.0.2")
	records := []Record{
		{At: 1 * time.Second, Dir: In, Peer: peer, Type: wire.TPeerListReply,
			Addrs: []netip.Addr{addr("1.1.1.1")}},
	}
	m := Match(records, nil)
	if len(m.ListExchanges) != 0 {
		t.Errorf("unsolicited reply matched: %+v", m.ListExchanges)
	}
}

func TestMatchTrackerLists(t *testing.T) {
	trk := addr("61.128.0.1")
	notTrk := addr("58.32.0.2")
	trackers := map[netip.Addr]bool{trk: true}
	records := []Record{
		{At: 1 * time.Second, Dir: Out, Peer: trk, Type: wire.TTrackerQuery},
		{At: 1500 * time.Millisecond, Dir: In, Peer: trk, Type: wire.TTrackerResponse,
			Addrs: []netip.Addr{addr("1.1.1.1"), addr("2.2.2.2")}},
		// A tracker response from a non-tracker address is ignored.
		{At: 2 * time.Second, Dir: In, Peer: notTrk, Type: wire.TTrackerResponse,
			Addrs: []netip.Addr{addr("3.3.3.3")}},
	}
	m := Match(records, trackers)
	if len(m.TrackerLists) != 1 {
		t.Fatalf("tracker lists = %d, want 1", len(m.TrackerLists))
	}
	if got := m.TrackerLists[0].ResponseTime(); got != 500*time.Millisecond {
		t.Errorf("tracker response time = %v", got)
	}
	if len(m.TrackerLists[0].Addrs) != 2 {
		t.Errorf("tracker list addrs = %v", m.TrackerLists[0].Addrs)
	}
}

func TestMatchEmptyTrace(t *testing.T) {
	m := Match(nil, nil)
	if len(m.Transmissions) != 0 || len(m.ListExchanges) != 0 || m.UnansweredData != 0 {
		t.Errorf("empty trace produced matches: %+v", m)
	}
}
