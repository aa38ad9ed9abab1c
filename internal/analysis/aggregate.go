package analysis

import (
	"math"
	"net/netip"
	"sort"
	"time"

	"pplivesim/internal/capture"
	"pplivesim/internal/fit"
	"pplivesim/internal/isp"
	"pplivesim/internal/simnet"
	"pplivesim/internal/wire"
)

// Aggregate is the streaming telemetry state for one probe (or one shard of
// one probe): bounded per-ISP counters, response-time moments and sketches,
// and a compact per-peer activity map — everything Report needs, in O(peers)
// memory instead of the O(datagrams) of a full capture.
//
// It implements capture.Events, so a capture.Aggregator can feed it online,
// and Aggregates are mergeable (Merge), so per-shard instances can be folded
// at scenario end. All accumulations are commutative integer/duration sums,
// so a merged fold is bit-identical to a single-pass one.
type Aggregate struct {
	resolver Resolver
	source   netip.Addr
	probeISP isp.ISP

	// edges marks the scenario's CDN edge caches: their transmissions are
	// infrastructure offload, tallied like the source's — never into the
	// peer-locality counters. Nil in pure-P2P scenarios.
	edges map[netip.Addr]struct{}

	returnedByISP map[isp.ISP]int
	returnedBySrc map[ListSource]map[isp.ISP]int
	unique        map[netip.Addr]struct{}

	txByISP     map[isp.ISP]uint64
	bytesByISP  map[isp.ISP]uint64
	sourceTx    uint64
	sourceBytes uint64
	edgeTx      uint64
	edgeBytes   uint64

	listRT     map[isp.Group]*rtAgg
	dataRT     map[isp.Group]*rtAgg
	listSeries map[isp.Group][]RTPoint

	unansweredLists int
	unansweredData  int

	peers map[netip.Addr]*PeerActivity
}

// rtAgg accumulates one response-time group: exact count/sum for the mean,
// plus the quantile sketch.
type rtAgg struct {
	count  int
	sum    time.Duration
	sketch RTSketch
}

// add folds n observations of response time d.
func (r *rtAgg) add(d time.Duration, n uint64) {
	r.count += int(n)
	r.sum += time.Duration(n) * d
	r.sketch.AddN(d, n)
}

// NewAggregate creates an empty aggregate for a probe in probeISP whose
// channel source is source. resolver is the IP→ASN step applied to every
// observed address as it arrives.
func NewAggregate(resolver Resolver, source netip.Addr, probeISP isp.ISP) *Aggregate {
	return &Aggregate{
		resolver:      resolver,
		source:        source,
		probeISP:      probeISP,
		returnedByISP: make(map[isp.ISP]int),
		returnedBySrc: make(map[ListSource]map[isp.ISP]int),
		unique:        make(map[netip.Addr]struct{}),
		txByISP:       make(map[isp.ISP]uint64),
		bytesByISP:    make(map[isp.ISP]uint64),
		listRT:        make(map[isp.Group]*rtAgg),
		dataRT:        make(map[isp.Group]*rtAgg),
		listSeries:    make(map[isp.Group][]RTPoint),
		peers:         make(map[netip.Addr]*PeerActivity),
	}
}

// Instrument measures env the way the paper measured its probe hosts: every
// datagram env receives or sends goes, in capture order, to rec when it is
// non-nil (the full trace) and to a capture.Aggregator that applies the §3.1
// matching rules into a new Aggregate for a probe in env's ISP. source is the
// channel source, trackers the tracker servers and edges the CDN edge caches.
// Close the matcher before the final Report.
func Instrument(env *simnet.Env, resolver Resolver, source netip.Addr, trackers map[netip.Addr]bool, edges []netip.Addr, rec *capture.Recorder) (*Aggregate, *capture.Aggregator) {
	agg := NewAggregate(resolver, source, env.ISP())
	agg.SetEdges(edges)
	matcher := capture.NewAggregator(trackers, capture.AggregatorConfig{}, agg)
	env.TapRecv(func(from netip.Addr, msg wire.Message, size int) {
		if rec != nil {
			rec.Observe(env.Now(), capture.In, from, msg, size)
		}
		matcher.Observe(env.Now(), capture.In, from, msg, size)
	})
	env.TapSend(func(to netip.Addr, msg wire.Message, size int) {
		if rec != nil {
			rec.Observe(env.Now(), capture.Out, to, msg, size)
		}
		matcher.Observe(env.Now(), capture.Out, to, msg, size)
	})
	return agg, matcher
}

// SetEdges marks the scenario's CDN edge caches so their replies are kept
// out of the peer-locality statistics. Call before feeding observations.
func (a *Aggregate) SetEdges(addrs []netip.Addr) {
	if len(addrs) == 0 {
		return
	}
	if a.edges == nil {
		a.edges = make(map[netip.Addr]struct{}, len(addrs))
	}
	for _, addr := range addrs {
		a.edges[addr] = struct{}{}
	}
}

// isEdge reports whether addr is a marked CDN edge cache.
func (a *Aggregate) isEdge(addr netip.Addr) bool {
	if a.edges == nil {
		return false
	}
	_, ok := a.edges[addr]
	return ok
}

// peer returns (creating if needed) the activity entry for a client peer.
func (a *Aggregate) peer(addr netip.Addr) *PeerActivity {
	act, ok := a.peers[addr]
	if !ok {
		act = &PeerActivity{Addr: addr, ISP: resolve(a.resolver, addr)}
		a.peers[addr] = act
	}
	return act
}

// DataRequest implements capture.Events: requests are counted from raw
// outgoing datagrams (answered or not), as the paper counts "data requests
// made by our host"; source requests are excluded from peer statistics.
func (a *Aggregate) DataRequest(peer netip.Addr, at time.Duration) {
	if peer == a.source || a.isEdge(peer) {
		return
	}
	a.peer(peer).Requests++
}

// DataMatched implements capture.Events.
func (a *Aggregate) DataMatched(tx capture.Transmission) {
	a.AddTransfers(tx.Peer, tx.ResponseTime(), 1, uint64(tx.Bytes))
}

// AddTransfers books n matched data transmissions from peer, each with
// response time rt, carrying bytes in total. It is n DataMatched calls in
// one: every tally it touches is a sum or a minimum, so the result is the
// same bit for bit. Flow swarms book their per-ISP traffic through it.
func (a *Aggregate) AddTransfers(peer netip.Addr, rt time.Duration, n, bytes uint64) {
	if n == 0 {
		return
	}
	if peer == a.source {
		a.sourceTx += n
		a.sourceBytes += bytes
		return
	}
	if a.isEdge(peer) {
		a.edgeTx += n
		a.edgeBytes += bytes
		return
	}
	cat := resolve(a.resolver, peer)
	a.txByISP[cat] += n
	a.bytesByISP[cat] += bytes

	g := isp.GroupOf(cat)
	agg := a.dataRT[g]
	if agg == nil {
		agg = &rtAgg{}
		a.dataRT[g] = agg
	}
	agg.add(rt, n)

	act := a.peer(peer)
	act.Replies += int(n)
	act.Bytes += bytes
	// RTT estimate (§3.5): running minimum response time over the peer's
	// transmissions.
	if act.RTT == 0 || rt < act.RTT {
		act.RTT = rt
	}
}

// DataUnanswered implements capture.Events.
func (a *Aggregate) DataUnanswered(peer netip.Addr, reqAt time.Duration) {
	a.unansweredData++
}

// PeerListMatched implements capture.Events. ex.Addrs is consumed during the
// call (never retained), as the Events contract requires.
func (a *Aggregate) PeerListMatched(ex capture.ListExchange) {
	cat := resolve(a.resolver, ex.Peer)
	a.addList(ListSource{ISP: cat}, ex.Addrs)
	g := isp.GroupOf(cat)
	agg := a.listRT[g]
	if agg == nil {
		agg = &rtAgg{}
		a.listRT[g] = agg
	}
	rt := ex.ResponseTime()
	agg.add(rt, 1)
	a.listSeries[g] = append(a.listSeries[g], RTPoint{At: ex.ReqAt, RT: rt})
}

// ListUnanswered implements capture.Events.
func (a *Aggregate) ListUnanswered(peer netip.Addr, reqAt time.Duration) {
	a.unansweredLists++
}

// TrackerList implements capture.Events. Tracker response times feed no
// report statistic (Figures 7-10 cover gossip exchanges), so unsolicited
// responses — whose synthesized ReqAt carries no timing information — only
// contribute their returned addresses, like any other tracker list.
func (a *Aggregate) TrackerList(ex capture.ListExchange) {
	a.addList(ListSource{ISP: resolve(a.resolver, ex.Peer), Tracker: true}, ex.Addrs)
}

func (a *Aggregate) addList(src ListSource, addrs []netip.Addr) {
	byISP := a.returnedBySrc[src]
	if byISP == nil {
		byISP = make(map[isp.ISP]int)
		a.returnedBySrc[src] = byISP
	}
	for _, addr := range addrs {
		cat := resolve(a.resolver, addr)
		a.returnedByISP[cat]++
		byISP[cat]++
		a.unique[addr] = struct{}{}
	}
}

// BytesSnapshot copies the current per-ISP client-peer download byte tally,
// for periodic resilience sampling during a run.
func (a *Aggregate) BytesSnapshot() map[isp.ISP]uint64 {
	out := make(map[isp.ISP]uint64, len(a.bytesByISP))
	for cat, b := range a.bytesByISP {
		out[cat] = b
	}
	return out
}

// Merge folds another aggregate (e.g. a shard's) into this one. Counters and
// sketches add exactly; per-peer entries sum, with RTT the minimum of the
// nonzero estimates; response-time series are re-sorted by reply time, which
// reproduces single-pass capture order whenever reply times are distinct.
func (a *Aggregate) Merge(o *Aggregate) {
	for cat, n := range o.returnedByISP {
		a.returnedByISP[cat] += n
	}
	for src, byISP := range o.returnedBySrc {
		dst := a.returnedBySrc[src]
		if dst == nil {
			dst = make(map[isp.ISP]int, len(byISP))
			a.returnedBySrc[src] = dst
		}
		for cat, n := range byISP {
			dst[cat] += n
		}
	}
	for addr := range o.unique {
		a.unique[addr] = struct{}{}
	}
	for cat, n := range o.txByISP {
		a.txByISP[cat] += n
	}
	for cat, n := range o.bytesByISP {
		a.bytesByISP[cat] += n
	}
	a.sourceTx += o.sourceTx
	a.sourceBytes += o.sourceBytes
	a.edgeTx += o.edgeTx
	a.edgeBytes += o.edgeBytes
	for addr := range o.edges {
		a.SetEdges([]netip.Addr{addr})
	}
	mergeRT(a.listRT, o.listRT)
	mergeRT(a.dataRT, o.dataRT)
	for g, pts := range o.listSeries {
		merged := append(a.listSeries[g], pts...)
		sort.SliceStable(merged, func(i, j int) bool {
			return merged[i].At+merged[i].RT < merged[j].At+merged[j].RT
		})
		a.listSeries[g] = merged
	}
	a.unansweredLists += o.unansweredLists
	a.unansweredData += o.unansweredData
	for addr, act := range o.peers {
		dst := a.peers[addr]
		if dst == nil {
			cp := *act
			a.peers[addr] = &cp
			continue
		}
		dst.Requests += act.Requests
		dst.Replies += act.Replies
		dst.Bytes += act.Bytes
		if act.RTT > 0 && (dst.RTT == 0 || act.RTT < dst.RTT) {
			dst.RTT = act.RTT
		}
	}
}

func mergeRT(dst, src map[isp.Group]*rtAgg) {
	for g, agg := range src {
		d := dst[g]
		if d == nil {
			d = &rtAgg{}
			dst[g] = d
		}
		d.count += agg.count
		d.sum += agg.sum
		d.sketch.Merge(&agg.sketch)
	}
}

// Report finalizes the aggregate into the full per-probe report. The
// aggregate is not consumed: Report copies state, so it can be called again
// after further observations or merges.
func (a *Aggregate) Report() *Report {
	rep := &Report{
		ProbeISP:            a.probeISP,
		ReturnedByISP:       make(map[isp.ISP]int, len(a.returnedByISP)),
		UniqueListed:        len(a.unique),
		ReturnedBySource:    make(map[ListSource]map[isp.ISP]int, len(a.returnedBySrc)),
		TransmissionsByISP:  make(map[isp.ISP]uint64, len(a.txByISP)),
		BytesByISP:          make(map[isp.ISP]uint64, len(a.bytesByISP)),
		SourceTransmissions: a.sourceTx,
		SourceBytes:         a.sourceBytes,
		EdgeTransmissions:   a.edgeTx,
		EdgeBytes:           a.edgeBytes,
		ListRT:              make(map[isp.Group]RTStats, len(a.listRT)),
		ListRTSeries:        make(map[isp.Group][]RTPoint, len(a.listSeries)),
		ListRTSketch:        make(map[isp.Group]*RTSketch, len(a.listRT)),
		DataRT:              make(map[isp.Group]RTStats, len(a.dataRT)),
		DataRTSketch:        make(map[isp.Group]*RTSketch, len(a.dataRT)),
		UnansweredLists:     a.unansweredLists,
		UnansweredData:      a.unansweredData,
		ConnectedByISP:      make(map[isp.ISP]int),
	}

	for cat, n := range a.returnedByISP {
		rep.ReturnedByISP[cat] = n
	}
	for src, byISP := range a.returnedBySrc {
		cp := make(map[isp.ISP]int, len(byISP))
		for cat, n := range byISP {
			cp[cat] = n
		}
		rep.ReturnedBySource[src] = cp
	}
	total := 0
	for _, n := range a.returnedByISP {
		total += n
	}
	if total > 0 {
		rep.PotentialLocality = float64(a.returnedByISP[a.probeISP]) / float64(total)
	}

	for cat, n := range a.txByISP {
		rep.TransmissionsByISP[cat] = n
	}
	var totalBytes uint64
	for cat, b := range a.bytesByISP {
		rep.BytesByISP[cat] = b
		totalBytes += b
	}
	if totalBytes > 0 {
		rep.TrafficLocality = float64(a.bytesByISP[a.probeISP]) / float64(totalBytes)
	}

	for g, agg := range a.listRT {
		rep.ListRT[g] = RTStats{Count: agg.count, Mean: agg.sum / time.Duration(agg.count)}
		s := agg.sketch
		rep.ListRTSketch[g] = &s
	}
	for g, pts := range a.listSeries {
		rep.ListRTSeries[g] = append([]RTPoint(nil), pts...)
	}
	for g, agg := range a.dataRT {
		rep.DataRT[g] = RTStats{Count: agg.count, Mean: agg.sum / time.Duration(agg.count)}
		s := agg.sketch
		rep.DataRTSketch[g] = &s
	}

	rep.Peers = make([]PeerActivity, 0, len(a.peers))
	for _, act := range a.peers {
		if act.Replies == 0 && act.Requests == 0 {
			continue
		}
		rep.Peers = append(rep.Peers, *act)
	}
	sortPeers(rep.Peers)
	for _, act := range rep.Peers {
		if act.Replies > 0 {
			rep.ConnectedByISP[act.ISP]++
		}
	}

	var requests, bytes []float64
	for _, act := range rep.Peers {
		if act.Requests > 0 {
			requests = append(requests, float64(act.Requests))
		}
		if act.Bytes > 0 {
			bytes = append(bytes, float64(act.Bytes))
		}
	}
	ranked := fit.Ranked(requests)
	if se, err := fit.FitStretchedExponential(ranked); err == nil {
		rep.SEFit = se
	}
	if z, err := fit.FitZipf(ranked); err == nil {
		rep.ZipfFit = z
	}
	rep.TopRequestShare = fit.TopShare(requests, 0.1)
	rep.TopByteShare = fit.TopShare(bytes, 0.1)

	var lx, ly []float64
	for _, act := range rep.Peers {
		if act.Requests > 0 && act.RTT > 0 {
			lx = append(lx, math.Log(float64(act.Requests)))
			ly = append(ly, math.Log(act.RTT.Seconds()))
		}
	}
	if r, err := fit.Pearson(lx, ly); err == nil {
		rep.RTTCorrelation = r
	}
	return rep
}
