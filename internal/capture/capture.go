// Package capture is the measurement apparatus: a packet recorder attached
// at probe hosts (the Wireshark equivalent of the paper's methodology) and
// the paper's trace-matching rules.
//
// The paper matched data requests and replies "based on the IP addresses and
// transmission sub-piece sequence numbers", and matched each peer-list reply
// "to the latest request designated to the same IP address" (§3.1). Both
// rules are implemented once, in Aggregator, which applies them online; Match
// replays a recorded trace through it.
package capture

import (
	"fmt"
	"net/netip"
	"time"

	"pplivesim/internal/wire"
)

// Direction of a recorded datagram relative to the probe host.
type Direction int

// Directions.
const (
	In  Direction = iota + 1 // received by the probe
	Out                      // sent by the probe
)

// String returns "in" or "out".
func (d Direction) String() string {
	switch d {
	case In:
		return "in"
	case Out:
		return "out"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// Record is one captured datagram. Only protocol-relevant fields are
// retained (the paper similarly extracted per-connection information from
// raw packets).
type Record struct {
	At   time.Duration
	Dir  Direction
	Peer netip.Addr // the remote address
	Type wire.Type
	Size int

	// Data-plane fields (TDataRequest / TDataReply).
	Seq     uint64
	Count   uint16
	Payload int // payload bytes (replies)

	// Peer-list fields (TPeerListReply / TTrackerResponse): the returned
	// addresses, retained because the paper's Figures 2-5(a,b) count them
	// per ISP with duplicates.
	Addrs []netip.Addr
}

// Recorder accumulates a probe host's trace.
type Recorder struct {
	self    netip.Addr
	records []Record
}

// NewRecorder creates a recorder for the probe at self.
func NewRecorder(self netip.Addr) *Recorder {
	return &Recorder{self: self}
}

// Self returns the probe address.
func (r *Recorder) Self() netip.Addr { return r.self }

// Observe records one datagram. It is shaped to plug directly into
// simnet.Env taps via closures:
//
//	env.TapRecv(func(p netip.Addr, m wire.Message, n int) { rec.Observe(now(), capture.In, p, m, n) })
func (r *Recorder) Observe(at time.Duration, dir Direction, peerAddr netip.Addr, msg wire.Message, size int) {
	rec := recordOf(at, dir, peerAddr, msg, size)
	rec.Addrs = append([]netip.Addr(nil), rec.Addrs...)
	r.records = append(r.records, rec)
}

// recordOf extracts a datagram's protocol-relevant fields, for the recorder
// and the online matcher alike. It copies scalars out of the message, which
// the transport may recycle once the taps return (node.Handler). Addrs
// aliases the message's own peer slice, which a tap must not keep either: the
// recorder copies it, the matcher passes it on under the Events no-retain
// contract. A gossip request's enclosed own-list is not analyzed (the paper
// analyzes returned lists), so it is kept only implicitly via Size.
func recordOf(at time.Duration, dir Direction, peerAddr netip.Addr, msg wire.Message, size int) Record {
	rec := Record{At: at, Dir: dir, Peer: peerAddr, Type: msg.Kind(), Size: size}
	switch m := msg.(type) {
	case *wire.DataRequest:
		rec.Seq, rec.Count = m.Seq, m.Count
	case *wire.DataReply:
		rec.Seq, rec.Count, rec.Payload = m.Seq, m.Count, m.PayloadLen()
	case *wire.PeerListReply:
		rec.Addrs = m.Peers
	case *wire.TrackerResponse:
		rec.Addrs = m.Peers
	}
	return rec
}

// Records returns the trace in capture order. The returned slice is the
// recorder's backing store; callers must not mutate it.
func (r *Recorder) Records() []Record { return r.records }

// Len returns the number of captured datagrams.
func (r *Recorder) Len() int { return len(r.records) }

// Transmission is one matched data request/reply pair ("a data transmission
// consists of a pair of data request and reply", §3.2).
type Transmission struct {
	Peer   netip.Addr
	Seq    uint64
	ReqAt  time.Duration
	RepAt  time.Duration
	Bytes  int // payload bytes received
	Pieces int // sub-pieces received
}

// ResponseTime returns the request→reply latency.
func (t Transmission) ResponseTime() time.Duration { return t.RepAt - t.ReqAt }

// ListExchange is one matched peer-list request/reply pair.
type ListExchange struct {
	Peer  netip.Addr
	ReqAt time.Duration
	RepAt time.Duration
	Addrs []netip.Addr
	// Unsolicited marks a reply that arrived with no outstanding request
	// (seen for tracker responses, e.g. duplicates). ReqAt is synthesized as
	// the arrival time, so ResponseTime is zero and meaningless; consumers
	// computing response-time statistics must skip unsolicited exchanges.
	Unsolicited bool
}

// ResponseTime returns the request→reply latency.
func (e ListExchange) ResponseTime() time.Duration { return e.RepAt - e.ReqAt }

// Matched is the outcome of running the paper's matching rules over a trace.
type Matched struct {
	// Transmissions are matched data request/reply pairs in reply order.
	Transmissions []Transmission
	// UnansweredData counts data requests that never got a reply, including
	// earlier requests superseded by a retransmission of the same sub-piece
	// (the reply, if any, matches only the latest request).
	UnansweredData int
	// ListExchanges are matched peer-list request/reply pairs in reply
	// order, covering regular-peer gossip only.
	ListExchanges []ListExchange
	// UnansweredLists counts peer-list requests that never got a reply
	// (the paper notes "a non-trivial number of peer-list requests were not
	// answered").
	UnansweredLists int
	// TrackerLists are peer lists received from tracker servers (matched
	// trivially: tracker responses to our queries).
	TrackerLists []ListExchange
}

// Match applies the paper's matching rules to a recorded trace. trackers
// identifies tracker-server addresses so tracker responses are attributed
// separately from regular-peer referrals (the X_s vs X_p split of
// Figures 2-5(b)).
//
// The trace is replayed through an Aggregator with the default bounds, so the
// outcome is exactly what the online matcher decided while the trace was being
// captured — including the bounds: a reply that arrives more than
// DefaultPendingTTL after its request finds the request already counted
// unanswered and is dropped as unsolicited, post hoc as online.
func Match(records []Record, trackers map[netip.Addr]bool) Matched {
	var out Matched
	Replay(records, trackers, (*collector)(&out))
	return out
}

// Replay feeds a recorded trace through a fresh default-bounds Aggregator into
// sink and closes it, flushing what is still pending as unanswered.
func Replay(records []Record, trackers map[netip.Addr]bool, sink Events) {
	a := NewAggregator(trackers, AggregatorConfig{}, sink)
	for i := range records {
		a.observe(&records[i])
	}
	a.Close()
}

// collector is Matched as an Events sink. It retains the Addrs it is handed,
// which is sound only for a replay: a Record owns its address slice.
type collector Matched

func (c *collector) DataRequest(netip.Addr, time.Duration) {}

func (c *collector) DataMatched(tx Transmission) { c.Transmissions = append(c.Transmissions, tx) }

func (c *collector) DataUnanswered(netip.Addr, time.Duration) { c.UnansweredData++ }

func (c *collector) PeerListMatched(ex ListExchange) { c.ListExchanges = append(c.ListExchanges, ex) }

func (c *collector) ListUnanswered(netip.Addr, time.Duration) { c.UnansweredLists++ }

func (c *collector) TrackerList(ex ListExchange) { c.TrackerLists = append(c.TrackerLists, ex) }
