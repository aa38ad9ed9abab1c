package analysis

import (
	"net/netip"
	"testing"
	"time"

	"pplivesim/internal/capture"
	"pplivesim/internal/isp"
	"pplivesim/internal/wire"
)

// stubResolver maps fixed prefixes to ISPs for tests.
type stubResolver map[netip.Addr]isp.ISP

func (s stubResolver) ISPOf(a netip.Addr) (isp.ISP, bool) {
	got, ok := s[a]
	return got, ok
}

var (
	teleA    = netip.MustParseAddr("58.32.0.1")
	teleB    = netip.MustParseAddr("58.32.0.2")
	cncA     = netip.MustParseAddr("60.0.0.1")
	foreignA = netip.MustParseAddr("129.174.0.1")
	trkA     = netip.MustParseAddr("61.128.0.1")
	srcA     = netip.MustParseAddr("58.32.9.9")
)

func testResolver() stubResolver {
	return stubResolver{
		teleA: isp.TELE, teleB: isp.TELE, cncA: isp.CNC,
		foreignA: isp.Foreign, trkA: isp.TELE, srcA: isp.TELE,
	}
}

// buildInput creates a small synthetic trace exercising every analysis path.
func buildInput() Input {
	var records []capture.Record
	at := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

	// Probe (TELE) sends 3 data requests to teleB, 1 to cncA, 1 to foreignA,
	// 1 to the source. teleB answers all 3 fast, cncA answers slowly,
	// foreignA never answers.
	addReq := func(t float64, peer netip.Addr, seq uint64) {
		records = append(records, capture.Record{
			At: at(t), Dir: capture.Out, Peer: peer, Type: wire.TDataRequest, Seq: seq,
		})
	}
	addRep := func(t float64, peer netip.Addr, seq uint64) {
		records = append(records, capture.Record{
			At: at(t), Dir: capture.In, Peer: peer, Type: wire.TDataReply,
			Seq: seq, Count: 1, Payload: 1380,
		})
	}
	addReq(1.0, teleB, 1)
	addRep(1.05, teleB, 1)
	addReq(2.0, teleB, 2)
	addRep(2.06, teleB, 2)
	addReq(3.0, teleB, 3)
	addRep(3.04, teleB, 3)
	addReq(4.0, cncA, 4)
	addRep(4.9, cncA, 4)
	addReq(5.0, foreignA, 5) // unanswered
	addReq(6.0, srcA, 6)
	addRep(6.2, srcA, 6)

	// Peer-list exchange with teleB returning 2 TELE + 1 CNC address, and a
	// tracker response with 1 CNC address.
	records = append(records,
		capture.Record{At: at(7), Dir: capture.Out, Peer: teleB, Type: wire.TPeerListRequest},
		capture.Record{At: at(7.1), Dir: capture.In, Peer: teleB, Type: wire.TPeerListReply,
			Addrs: []netip.Addr{teleA, teleB, cncA}},
		capture.Record{At: at(8), Dir: capture.Out, Peer: trkA, Type: wire.TTrackerQuery},
		capture.Record{At: at(8.2), Dir: capture.In, Peer: trkA, Type: wire.TTrackerResponse,
			Addrs: []netip.Addr{cncA}},
	)

	trackers := map[netip.Addr]bool{trkA: true}
	return Input{
		Records:  records,
		Resolver: testResolver(),
		Trackers: trackers,
		Source:   srcA,
		ProbeISP: isp.TELE,
	}
}

func TestAnalyzeReturnedAddrs(t *testing.T) {
	rep := Analyze(buildInput())
	if got := rep.ReturnedByISP[isp.TELE]; got != 2 {
		t.Errorf("TELE returned = %d, want 2", got)
	}
	if got := rep.ReturnedByISP[isp.CNC]; got != 2 {
		t.Errorf("CNC returned = %d, want 2 (one via peer, one via tracker)", got)
	}
	if rep.UniqueListed != 3 {
		t.Errorf("UniqueListed = %d, want 3", rep.UniqueListed)
	}
	// Source attribution: the TELE peer's list (TELE_p) vs the tracker's
	// (TELE_s, tracker in TELE).
	peerSrc := ListSource{ISP: isp.TELE}
	if got := rep.ReturnedBySource[peerSrc][isp.TELE]; got != 2 {
		t.Errorf("TELE_p TELE count = %d, want 2", got)
	}
	trkSrc := ListSource{ISP: isp.TELE, Tracker: true}
	if got := rep.ReturnedBySource[trkSrc][isp.CNC]; got != 1 {
		t.Errorf("TELE_s CNC count = %d, want 1", got)
	}
	if peerSrc.Label() != "TELE_p" || trkSrc.Label() != "TELE_s" {
		t.Errorf("labels = %s/%s", peerSrc.Label(), trkSrc.Label())
	}
	if rep.PotentialLocality != 0.5 {
		t.Errorf("PotentialLocality = %f, want 0.5", rep.PotentialLocality)
	}
}

func TestAnalyzeTraffic(t *testing.T) {
	rep := Analyze(buildInput())
	if got := rep.TransmissionsByISP[isp.TELE]; got != 3 {
		t.Errorf("TELE transmissions = %d, want 3", got)
	}
	if got := rep.BytesByISP[isp.TELE]; got != 3*1380 {
		t.Errorf("TELE bytes = %d, want %d", got, 3*1380)
	}
	if got := rep.BytesByISP[isp.CNC]; got != 1380 {
		t.Errorf("CNC bytes = %d, want 1380", got)
	}
	// Source excluded from ISP tallies, counted separately.
	if rep.SourceTransmissions != 1 || rep.SourceBytes != 1380 {
		t.Errorf("source tallies = %d/%d", rep.SourceTransmissions, rep.SourceBytes)
	}
	want := float64(3*1380) / float64(4*1380)
	if rep.TrafficLocality != want {
		t.Errorf("TrafficLocality = %f, want %f", rep.TrafficLocality, want)
	}
}

func TestAnalyzeResponseTimes(t *testing.T) {
	rep := Analyze(buildInput())
	tele := rep.DataRT[isp.GroupTELE]
	if tele.Count != 3 {
		t.Fatalf("TELE data RT count = %d, want 3", tele.Count)
	}
	if tele.Mean != 50*time.Millisecond {
		t.Errorf("TELE data RT mean = %v, want 50ms", tele.Mean)
	}
	cnc := rep.DataRT[isp.GroupCNC]
	if cnc.Count != 1 || cnc.Mean != 900*time.Millisecond {
		t.Errorf("CNC data RT = %+v", cnc)
	}
	// List RT: one exchange with teleB at 100ms.
	lrt := rep.ListRT[isp.GroupTELE]
	if lrt.Count != 1 || lrt.Mean != 100*time.Millisecond {
		t.Errorf("TELE list RT = %+v", lrt)
	}
	if len(rep.ListRTSeries[isp.GroupTELE]) != 1 {
		t.Errorf("list RT series = %v", rep.ListRTSeries)
	}
	if rep.UnansweredData != 1 {
		t.Errorf("UnansweredData = %d, want 1 (foreignA)", rep.UnansweredData)
	}
}

func TestAnalyzePeerActivity(t *testing.T) {
	rep := Analyze(buildInput())
	// Peers: teleB (3 req), cncA (1), foreignA (1, unanswered). Source excluded.
	if len(rep.Peers) != 3 {
		t.Fatalf("peers = %d, want 3: %+v", len(rep.Peers), rep.Peers)
	}
	top := rep.Peers[0]
	if top.Addr != teleB || top.Requests != 3 || top.Replies != 3 {
		t.Errorf("top peer = %+v", top)
	}
	if top.RTT != 40*time.Millisecond {
		t.Errorf("top peer RTT = %v, want 40ms (min of 50/60/40)", top.RTT)
	}
	// Connected (data-transferring) peers by ISP: teleB and cncA.
	if rep.ConnectedByISP[isp.TELE] != 1 || rep.ConnectedByISP[isp.CNC] != 1 {
		t.Errorf("ConnectedByISP = %v", rep.ConnectedByISP)
	}
	if rep.ConnectedByISP[isp.Foreign] != 0 {
		t.Errorf("unanswered-only peer counted as connected: %v", rep.ConnectedByISP)
	}
}

func TestAnalyzeEmptyTrace(t *testing.T) {
	rep := Analyze(Input{Resolver: testResolver(), ProbeISP: isp.TELE})
	if rep.TrafficLocality != 0 || rep.PotentialLocality != 0 {
		t.Errorf("empty trace localities = %f/%f", rep.TrafficLocality, rep.PotentialLocality)
	}
	if len(rep.Peers) != 0 {
		t.Errorf("empty trace peers = %v", rep.Peers)
	}
}

func TestUnresolvableMapsToForeign(t *testing.T) {
	unknown := netip.MustParseAddr("203.0.113.7")
	records := []capture.Record{
		{At: time.Second, Dir: capture.Out, Peer: unknown, Type: wire.TDataRequest, Seq: 1},
		{At: 2 * time.Second, Dir: capture.In, Peer: unknown, Type: wire.TDataReply, Seq: 1, Count: 1, Payload: 100},
	}
	in := Input{
		Records:  records,
		Resolver: testResolver(),
		ProbeISP: isp.TELE,
	}
	rep := Analyze(in)
	if rep.TransmissionsByISP[isp.Foreign] != 1 {
		t.Errorf("unresolvable peer not mapped to Foreign: %v", rep.TransmissionsByISP)
	}
}
