package capture

import (
	"net/netip"
	"time"

	"pplivesim/internal/wire"
)

// Events receives the incrementally matched trace from an Aggregator: one
// callback per matching outcome, in capture order. analysis.Aggregate folds
// the outcomes into bounded aggregates; Replay runs a recorded trace through
// the same matcher.
//
// Callbacks run synchronously inside Aggregator.Observe (or Close, for the
// final unanswered flush). PeerListMatched and TrackerList may hand over an
// Addrs slice that aliases the observed wire message, which a tap may not
// keep past its return; implementations must consume it during the call and
// never retain it.
type Events interface {
	// DataRequest reports every outgoing data request (answered or not) —
	// the raw "data requests made by our host" count of Figures 11-14(b).
	DataRequest(peer netip.Addr, at time.Duration)
	// DataMatched reports one matched data request/reply pair.
	DataMatched(tx Transmission)
	// DataUnanswered reports a data request that will never be answered:
	// superseded by a retransmission, evicted after the pending TTL, or
	// still outstanding at Close.
	DataUnanswered(peer netip.Addr, reqAt time.Duration)
	// PeerListMatched reports one matched gossip peer-list exchange.
	PeerListMatched(ex ListExchange)
	// ListUnanswered reports a peer-list request that will never be
	// answered.
	ListUnanswered(peer netip.Addr, reqAt time.Duration)
	// TrackerList reports one tracker response (solicited or not; check
	// ex.Unsolicited before using its response time).
	TrackerList(ex ListExchange)
}

// Aggregator defaults.
const (
	// DefaultPendingTTL bounds how long an unanswered request stays in the
	// pending tables. It is far above any simulated response time, so TTL
	// eviction never changes the accounting of a well-formed trace; it only
	// caps state under pathological loss.
	DefaultPendingTTL = 2 * time.Minute
	// DefaultMaxPending caps each pending table's entry count.
	DefaultMaxPending = 32768
)

// AggregatorConfig bounds the Aggregator's pending-request state. Zero
// values select the defaults.
type AggregatorConfig struct {
	// PendingTTL evicts pending requests older than this (counted as
	// unanswered). <= 0 selects DefaultPendingTTL.
	PendingTTL time.Duration
	// MaxPending caps the number of simultaneously pending requests per
	// table (data / peer-list / tracker); the oldest entries are evicted
	// first. <= 0 selects DefaultMaxPending.
	MaxPending int
}

// dataKey identifies a pending data request: replies are matched on the
// peer address and the sub-piece sequence number.
type dataKey struct {
	peer netip.Addr
	seq  uint64
}

// pendItem is one pending request in FIFO (arrival) order. For peer-list and
// tracker queues, seq is unused.
type pendItem struct {
	peer netip.Addr
	seq  uint64
	at   time.Duration
}

// pendQueue is an amortized O(1) FIFO over a slice: pops advance a head
// index, and the backing array is compacted once the dead prefix dominates.
type pendQueue struct {
	items []pendItem
	head  int
}

func (q *pendQueue) push(it pendItem) { q.items = append(q.items, it) }

func (q *pendQueue) peek() (pendItem, bool) {
	if q.head >= len(q.items) {
		return pendItem{}, false
	}
	return q.items[q.head], true
}

func (q *pendQueue) pop() {
	q.head++
	if q.head > 1024 && q.head*2 >= len(q.items) {
		n := copy(q.items, q.items[q.head:])
		q.items = q.items[:n]
		q.head = 0
	}
}

// Aggregator applies the paper's §3.1 matching rules online, one datagram at
// a time, emitting outcomes to an Events sink as soon as they are decided.
// It is the only implementation of those rules — Replay feeds a Recorder's
// trace through it — and holds only the currently pending requests, bounded
// by AggregatorConfig (TTL eviction plus a hard entry cap), instead of an
// unbounded []Record.
//
// Observe is shaped like Recorder.Observe so the same simnet taps drive
// either (or both, in full-capture mode).
type Aggregator struct {
	sink     Events
	trackers map[netip.Addr]bool
	ttl      time.Duration
	maxPend  int

	// Data matching: key (peer, seq); replies consume the latest request.
	pendingData map[dataKey]time.Duration
	dataQ       pendQueue

	// Peer-list / tracker matching: reply matches the latest outstanding
	// request to the same address (stack), while eviction removes the
	// oldest (queue front). The counters track total stacked entries.
	pendingList map[netip.Addr][]time.Duration
	listQ       pendQueue
	listN       int

	pendingTracker map[netip.Addr][]time.Duration
	trackerQ       pendQueue
	trackerN       int

	closed bool
}

// NewAggregator creates a streaming matcher feeding sink. trackers
// identifies tracker-server addresses (as in Replay).
func NewAggregator(trackers map[netip.Addr]bool, cfg AggregatorConfig, sink Events) *Aggregator {
	if cfg.PendingTTL <= 0 {
		cfg.PendingTTL = DefaultPendingTTL
	}
	if cfg.MaxPending <= 0 {
		cfg.MaxPending = DefaultMaxPending
	}
	return &Aggregator{
		sink:           sink,
		trackers:       trackers,
		ttl:            cfg.PendingTTL,
		maxPend:        cfg.MaxPending,
		pendingData:    make(map[dataKey]time.Duration),
		pendingList:    make(map[netip.Addr][]time.Duration),
		pendingTracker: make(map[netip.Addr][]time.Duration),
	}
}

// Observe processes one datagram. Like Recorder.Observe it plugs directly
// into simnet.Env taps. It must not be called after Close.
func (a *Aggregator) Observe(at time.Duration, dir Direction, peer netip.Addr, msg wire.Message, size int) {
	rec := recordOf(at, dir, peer, msg, size)
	a.observe(&rec)
}

// observe applies the matching rules to one datagram's record.
func (a *Aggregator) observe(rec *Record) {
	if a.closed {
		panic("capture: Aggregator.Observe after Close")
	}
	at, peer := rec.At, rec.Peer
	a.expire(at)
	switch {
	case rec.Dir == Out && rec.Type == wire.TDataRequest:
		a.sink.DataRequest(peer, at)
		k := dataKey{peer, rec.Seq}
		if old, dup := a.pendingData[k]; dup {
			// Superseded by this retransmission; the old request is
			// unanswered for good (the reply matches the latest request).
			a.sink.DataUnanswered(peer, old)
		}
		a.pendingData[k] = at
		a.dataQ.push(pendItem{peer: peer, seq: rec.Seq, at: at})
		for len(a.pendingData) > a.maxPend {
			a.evictOldestData()
		}
	case rec.Dir == In && rec.Type == wire.TDataReply:
		k := dataKey{peer, rec.Seq}
		reqAt, ok := a.pendingData[k]
		if !ok {
			return // unsolicited or post-eviction reply
		}
		delete(a.pendingData, k)
		a.sink.DataMatched(Transmission{
			Peer:   peer,
			Seq:    rec.Seq,
			ReqAt:  reqAt,
			RepAt:  at,
			Bytes:  rec.Payload,
			Pieces: int(rec.Count),
		})
	case rec.Dir == Out && rec.Type == wire.TPeerListRequest:
		a.pendingList[peer] = append(a.pendingList[peer], at)
		a.listQ.push(pendItem{peer: peer, at: at})
		a.listN++
		for a.listN > a.maxPend {
			a.evictOldestStack(&a.listQ, a.pendingList, &a.listN, a.sink.ListUnanswered)
		}
	case rec.Dir == In && rec.Type == wire.TPeerListReply:
		stack := a.pendingList[peer]
		if len(stack) == 0 {
			return // unsolicited; real traces have these too
		}
		// "...match the peer list reply to the latest request designated to
		// the same IP address."
		reqAt := stack[len(stack)-1]
		if len(stack) == 1 {
			delete(a.pendingList, peer)
		} else {
			a.pendingList[peer] = stack[:len(stack)-1]
		}
		a.listN--
		a.sink.PeerListMatched(ListExchange{Peer: peer, ReqAt: reqAt, RepAt: at, Addrs: rec.Addrs})
	case rec.Dir == Out && rec.Type == wire.TTrackerQuery:
		a.pendingTracker[peer] = append(a.pendingTracker[peer], at)
		a.trackerQ.push(pendItem{peer: peer, at: at})
		a.trackerN++
		for a.trackerN > a.maxPend {
			// Evicted tracker queries vanish silently: Matched keeps no
			// unanswered-tracker tally.
			a.evictOldestStack(&a.trackerQ, a.pendingTracker, &a.trackerN, func(netip.Addr, time.Duration) {})
		}
	case rec.Dir == In && rec.Type == wire.TTrackerResponse:
		if !a.trackers[peer] {
			return
		}
		stack := a.pendingTracker[peer]
		var reqAt time.Duration
		var unsolicited bool
		if len(stack) > 0 {
			reqAt = stack[len(stack)-1]
			if len(stack) == 1 {
				delete(a.pendingTracker, peer)
			} else {
				a.pendingTracker[peer] = stack[:len(stack)-1]
			}
			a.trackerN--
		} else {
			// No outstanding query: a duplicate or stray response. Keep it
			// (its addresses still count for Figures 2-5) but flag it so
			// the synthesized ReqAt can never enter response-time stats.
			reqAt = at
			unsolicited = true
		}
		a.sink.TrackerList(ListExchange{
			Peer:        peer,
			ReqAt:       reqAt,
			RepAt:       at,
			Addrs:       rec.Addrs,
			Unsolicited: unsolicited,
		})
	}
}

// expire evicts pending requests older than the TTL, counting them
// unanswered. Queue entries whose request was already consumed (matched, or
// superseded and re-queued with a later timestamp) are stale and skipped.
func (a *Aggregator) expire(now time.Duration) {
	cutoff := now - a.ttl
	for {
		it, ok := a.dataQ.peek()
		if !ok || it.at > cutoff {
			break
		}
		a.evictOldestData()
	}
	for {
		it, ok := a.listQ.peek()
		if !ok || it.at > cutoff {
			break
		}
		a.evictOldestStack(&a.listQ, a.pendingList, &a.listN, a.sink.ListUnanswered)
	}
	for {
		it, ok := a.trackerQ.peek()
		if !ok || it.at > cutoff {
			break
		}
		a.evictOldestStack(&a.trackerQ, a.pendingTracker, &a.trackerN, func(netip.Addr, time.Duration) {})
	}
}

// evictOldestData pops the data queue front and, if that request is still
// pending (live entry with a matching timestamp), counts it unanswered.
func (a *Aggregator) evictOldestData() {
	it, ok := a.dataQ.peek()
	if !ok {
		return
	}
	a.dataQ.pop()
	k := dataKey{it.peer, it.seq}
	if at, live := a.pendingData[k]; live && at == it.at {
		delete(a.pendingData, k)
		a.sink.DataUnanswered(it.peer, it.at)
	}
}

// evictOldestStack pops a list/tracker queue front and, if that request is
// still the oldest outstanding one to its peer, removes and reports it.
func (a *Aggregator) evictOldestStack(q *pendQueue, pending map[netip.Addr][]time.Duration, n *int, evicted func(netip.Addr, time.Duration)) {
	it, ok := q.peek()
	if !ok {
		return
	}
	q.pop()
	stack := pending[it.peer]
	if len(stack) > 0 && stack[0] == it.at {
		if len(stack) == 1 {
			delete(pending, it.peer)
		} else {
			pending[it.peer] = stack[1:]
		}
		*n--
		evicted(it.peer, it.at)
	}
}

// Close flushes every still-pending request as unanswered, in arrival order,
// and releases the pending state. Idempotent; Observe must not be called
// afterwards.
func (a *Aggregator) Close() {
	if a.closed {
		return
	}
	a.closed = true
	for {
		if _, ok := a.dataQ.peek(); !ok {
			break
		}
		a.evictOldestData()
	}
	for {
		if _, ok := a.listQ.peek(); !ok {
			break
		}
		a.evictOldestStack(&a.listQ, a.pendingList, &a.listN, a.sink.ListUnanswered)
	}
	a.pendingData = nil
	a.pendingList = nil
	a.pendingTracker = nil
	a.dataQ = pendQueue{}
	a.trackerQ = pendQueue{}
	a.listQ = pendQueue{}
}
