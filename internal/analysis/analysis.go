// Package analysis turns a probe's observed traffic into the paper's
// figures: ISP-grouped returned-address counts, per-source list attribution,
// traffic locality, response-time groups, contribution rank distributions
// with stretched-exponential and Zipf fits, and rank–RTT correlation.
//
// Everything is computed from the probe-side view through the IP→ASN
// resolver, exactly as the paper computed its results from Wireshark
// captures via Team Cymru — never from global simulator state. There is one
// pipeline: capture.Aggregator applies the paper's matching rules to a
// probe's datagrams and an Aggregate folds the outcomes into the Report's
// counters. A run drives it online, in bounded memory, through the taps
// Instrument puts on a probe node (a streaming probe's and the BitTorrent
// baseline's alike); Analyze drives it from a recorded trace
// (capture.Replay), so the two reports cannot differ.
package analysis

import (
	"net/netip"
	"time"

	"pplivesim/internal/capture"
	"pplivesim/internal/fit"
	"pplivesim/internal/isp"
)

// Resolver maps an address to its ISP category (the Team Cymru step).
// *asnmap.Registry satisfies it.
type Resolver interface {
	ISPOf(addr netip.Addr) (isp.ISP, bool)
}

// Input bundles everything the post-hoc analysis needs about one probe
// trace.
type Input struct {
	Records  []capture.Record
	Resolver Resolver
	// Trackers identifies tracker-server addresses.
	Trackers map[netip.Addr]bool
	// Source is the channel source address; source traffic is reported
	// separately because the paper's peer statistics concern client peers.
	Source netip.Addr
	// Edges lists the scenario's CDN edge caches, whose transmissions are
	// infrastructure offload like the source's — reported separately, never
	// in the peer-locality counters. Empty for pure-P2P traces.
	Edges []netip.Addr
	// ProbeISP is the measuring host's own ISP.
	ProbeISP isp.ISP
}

// ListSource attributes a received peer list: the replier's ISP and whether
// the replier was a tracker server — the "CNC_p"/"CNC_s" split of
// Figures 2-5(b).
type ListSource struct {
	ISP     isp.ISP
	Tracker bool
}

// Label renders the paper's notation, e.g. "TELE_p" or "CNC_s".
func (s ListSource) Label() string {
	suffix := "_p"
	if s.Tracker {
		suffix = "_s"
	}
	return s.ISP.String() + suffix
}

// RTStats summarizes one response-time group.
type RTStats struct {
	Count int
	Mean  time.Duration
}

// PeerActivity aggregates the probe's interaction with one remote peer.
type PeerActivity struct {
	Addr     netip.Addr
	ISP      isp.ISP
	Requests int           // data requests sent to the peer
	Replies  int           // matched data transmissions
	Bytes    uint64        // payload bytes received from the peer
	RTT      time.Duration // min application-level response time (0 if none)
}

// Report is the full per-probe analysis: one of these regenerates every
// panel of the paper's Figures 2-5, 7-18 and Table 1 rows for that probe.
type Report struct {
	ProbeISP isp.ISP

	// Figure (a): returned peer addresses by ISP, duplicates included.
	ReturnedByISP map[isp.ISP]int
	// UniqueListed is the count of distinct addresses across all lists.
	UniqueListed int

	// Figure (b): returned addresses split by list source (X_p / X_s).
	ReturnedBySource map[ListSource]map[isp.ISP]int

	// Figure (c): matched data transmissions and downloaded payload bytes
	// by ISP (regular peers only; the source is tallied separately).
	TransmissionsByISP  map[isp.ISP]uint64
	BytesByISP          map[isp.ISP]uint64
	SourceTransmissions uint64
	SourceBytes         uint64
	// EdgeTransmissions/EdgeBytes tally downloads served by CDN edge caches
	// — the deployment's offload, tallied beside the source and excluded
	// from the per-ISP peer counters above. Zero in pure-P2P scenarios.
	EdgeTransmissions uint64
	EdgeBytes         uint64

	// TrafficLocality is the same-ISP share of downloaded bytes;
	// PotentialLocality the same-ISP share of returned addresses.
	TrafficLocality   float64
	PotentialLocality float64

	// Figures 7-10: peer-list response times grouped TELE/CNC/OTHER.
	ListRT map[isp.Group]RTStats
	// ListRTSeries holds (request time, response time) points per group for
	// scatter plots.
	ListRTSeries map[isp.Group][]RTPoint
	// ListRTSketch holds the bounded quantile sketch of the same
	// response-time population as ListRT (entries exist exactly for groups
	// with samples). Sketch-typed: quantiles are fixed-centroid estimates;
	// Count/Mean/Min/Max are exact.
	ListRTSketch map[isp.Group]*RTSketch

	// Table 1: data-request response times grouped TELE/CNC/OTHER.
	DataRT map[isp.Group]RTStats
	// DataRTSketch is the sketch counterpart of DataRT (see ListRTSketch).
	DataRTSketch map[isp.Group]*RTSketch

	// UnansweredLists / UnansweredData mirror the paper's observation that
	// a non-trivial number of requests go unanswered.
	UnansweredLists int
	UnansweredData  int

	// Peers is every remote client peer the probe exchanged data-plane
	// traffic with: any peer it sent at least one data request to (answered
	// or not) or received a matched transmission from. The channel source is
	// excluded. This is the rank-distribution population of
	// Figures 11-14(b,c) — "data requests made by our host" counts requests
	// whether or not they were answered — and is therefore a superset of the
	// paper's "connected peers".
	Peers []PeerActivity
	// ConnectedByISP counts, per ISP, only peers with at least one matched
	// data transmission (Replies > 0): the paper's "connected peers" of
	// Figures 11-14(a), which concern peers actually involved in data
	// transfer. A peer that was only requested from — never answering —
	// appears in Peers but never here.
	ConnectedByISP map[isp.ISP]int
	// Figures 11-14 rank-distribution fits and top-10% shares.
	SEFit           fit.StretchedExponential
	ZipfFit         fit.Zipf
	TopRequestShare float64 // share of requests to the top 10% of peers
	TopByteShare    float64 // share of bytes from the top 10% of peers

	// Figures 15-18: correlation between log(#requests) and log(RTT).
	RTTCorrelation float64
}

// RTPoint is one response-time observation.
type RTPoint struct {
	At time.Duration // when the request was sent
	RT time.Duration // response time
}

// resolve returns the ISP of an address, mapping unresolvable ones (none
// should occur for simulation traffic) to Foreign, the paper's catch-all.
func resolve(r Resolver, a netip.Addr) isp.ISP {
	if got, ok := r.ISPOf(a); ok {
		return got
	}
	return isp.Foreign
}

// Analyze computes the full report for one captured probe trace — the
// post-hoc path of tracefile analysis (cmd/analyze). It replays the trace
// through the matcher and the Aggregate a run feeds online.
func Analyze(in Input) *Report {
	agg := NewAggregate(in.Resolver, in.Source, in.ProbeISP)
	agg.SetEdges(in.Edges)
	capture.Replay(in.Records, in.Trackers, agg)
	return agg.Report()
}
