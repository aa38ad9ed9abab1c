package peer

import (
	"fmt"
	"slices"
	"time"

	"net/netip"

	"pplivesim/internal/node"
	"pplivesim/internal/stream"
	"pplivesim/internal/wire"
)

// session is one channel's worth of client state: the playback buffer, the
// neighbor set, discovery bookkeeping, the scheduler plan, and the tracker
// timers of the channel the client watches. A client holds one session at a
// time; switching channels tears it down and starts another while the client
// (address, uplink, config) persists.
type session struct {
	c   *Client
	env node.Env
	cfg *Config // shared protocol knobs (the client's config)

	// spec is this session's channel; cfg.Channel is only the initial one.
	spec stream.Spec

	phase    Phase
	trackers []netip.Addr
	// origins are the providers an urgent miss falls back to, in the order
	// it tries them: the playlink's CDN edges in the bootstrap's affinity
	// order for this client (same-ISP first), then the channel source. They
	// sit in the neighbors map, so replies and timeouts are tracked, but
	// never in sortedNbs, so the plan, gossip, referral and trim paths all
	// skip them. An edge is deleted once it fails failThreshold times in a
	// row; the source stays until shutdown. Pure-P2P deployments have the
	// source alone.
	origins []*neighbor
	// startedAt timestamps the join for the startup-delay metric (time from
	// first bootstrap contact to the steady-phase transition).
	startedAt time.Duration
	buffer    *stream.Buffer

	// The per-datagram maps are keyed by the packed IPv4 address (akey):
	// hashing a 4-byte integer is several times cheaper than the 24-byte
	// netip.Addr struct, and these maps sit on every message's path.
	neighbors map[uint32]*neighbor

	// pending tracks outstanding handshakes as a small ordered slice: it is
	// bounded by cfg.MaxPending, so linear membership scans beat a map, and
	// slice iteration keeps expiry order deterministic where map range order
	// would not be.
	pending []pendingShake

	// evictScratch collects eviction victims before dropping them (dropping
	// mutates the sorted order mid-iteration); reused across gossip rounds.
	evictScratch []netip.Addr

	// addrScratch holds a list of addresses while one handler works on it —
	// connectFromList's fresh candidates, the gossip and Have targets — so
	// joining and referral allocate nothing once warm. No two users are ever
	// live at once: a send never runs a handler before it returns.
	addrScratch []netip.Addr

	// hs is the session's one handshake. It is not a recycled message, so
	// every dial sends the same value.
	hs wire.Handshake

	// recent is the referral source: most recently connected peers first,
	// deduplicated, capped at cfg.ReferralSize.
	recent []netip.Addr

	// reqs is the request table: one slot per in-flight data request,
	// cfg.MaxOutstanding in all, made once on playlink. Each neighbor chains
	// its requests through the slots (neighbor.reqHead); reqFree heads the
	// chain of unused ones. schedulerTick books nothing once outstandingTotal
	// reaches MaxOutstanding, so the table never runs out.
	reqs             []pendingReq
	reqFree          int16
	outstandingTotal int
	// inflight indexes every outstanding sequence as a sliding-window bit set
	// so the want scan can mask whole words out at once (the request table
	// holds the timing detail). Created on playlink, sized to
	// the buffer window plus the span requests can outlive it by (timeout
	// drift), per BitRing's aliasing precondition.
	inflight *stream.BitRing

	// sortedNbs holds the connected mesh neighbors (no origins) in address
	// order, maintained incrementally on membership changes (binary
	// insert/remove) rather than re-sorted. Every path that walks or samples
	// the mesh reads it: the order keeps whole runs reproducible, where map
	// iteration order is randomized in Go.
	sortedNbs []*neighbor

	// nbSlots is the neighbor table: every neighbor of the session, mesh
	// peer or origin, is one of its slots, made once on playlink, and nbFree
	// stacks the unused ones. The protocol bounds the mesh at 2*MaxNeighbors
	// (handleHandshake accepts only below it; handleHandshakeAck adds below
	// MaxNeighbors or in place of the worst neighbor) and the origins at the
	// playlink's edges plus the source, so the table holds them all. Each
	// slot's buffer map owns a fixed run of one shared word array, so
	// setBuffer and learnHas refill it in place.
	nbSlots []neighbor
	nbFree  []*neighbor

	// Scheduler-tick scratch state, reused every SchedInterval so the hot
	// path stays allocation-free.
	wantScratch []uint64

	// rbits batches the scheduler's RNG draws (see randbits.go).
	rbits bitRand

	// Per-tick scheduler plan (see sched.go): transposed candidate masks for
	// the tick's want range, plus the eligibility mask that evolves as
	// requests are booked.
	planOrg    uint64
	planWords  int
	planGroups int
	planRows   []uint64 // gather scratch: per group, 64 rows × planWords
	planCand   []uint64 // candidate masks, indexed (g*planWords + w)*64 + b
	planElig   []uint64 // per-group eligibility masks
	planOrder  []uint64 // neighbor indices sorted by (score, index)

	// lastMapTo rate-limits decline-triggered buffer-map piggybacks.
	lastMapTo map[uint32]time.Duration

	cancels      []node.Cancel
	trackerTimer node.Cancel

	// Resilience state (see resilience.go); all of it stays zero — and every
	// code path reading it behaves exactly as before — unless cfg.Resilient.
	bootstrapStreak int
	trHealth        []trackerHealth
	srcFails        int // consecutive source request timeouts
	srcProbeCounter int
}

// newSession creates an un-started session for spec's channel.
func newSession(c *Client, spec stream.Spec) *session {
	return &session{
		c:     c,
		env:   c.env,
		cfg:   &c.cfg,
		spec:  spec,
		phase: PhaseBootstrap,
		hs:    wire.Handshake{Channel: spec.Channel},
	}
}

// start begins the join flow. The first session a client opens walks the full
// bootstrap exchange (channel list, then playlink); sessions opened by a
// channel switch already know the directory and request the playlink
// directly. Either way the contact is retried until the playlink resolves.
func (s *session) start(direct bool) {
	s.startedAt = s.env.Now()
	request := func() wire.Message {
		if direct {
			return &wire.PlaylinkRequest{Channel: s.spec.Channel}
		}
		return &wire.ChannelListRequest{}
	}
	s.env.Send(s.cfg.Bootstrap, request())
	// Resilient sessions retry with capped exponential backoff plus
	// deterministic jitter, so a bootstrap outage is not hammered in lockstep
	// by every joining peer; the legacy fixed 2s retry is kept bit-exact
	// otherwise.
	delay := func() time.Duration {
		if s.cfg.Resilient {
			s.bootstrapStreak++
			return backoffDelay(retryBackoff, retryBackoffMax, s.bootstrapStreak, akey(s.env.Addr()))
		}
		return 2 * time.Second
	}
	var retry func()
	retry = func() {
		if s.phase != PhaseBootstrap {
			return
		}
		s.env.Send(s.cfg.Bootstrap, request())
		s.cancels = append(s.cancels, s.env.After(delay(), retry))
	}
	s.cancels = append(s.cancels, s.env.After(delay(), retry))
}

// shutdown closes the session: withdraw tracker announcements, disarm every
// timer, and tear down the neighbor table (dropping in-flight request
// bookkeeping with it). Neighbors need no goodbye datagram — the protocol is
// silence-evicting, so departed peers age out of remote tables.
// announce=false is an abrupt crash (fault injection): no Leaving
// withdrawals go out, so tracker registrations linger until TTL and
// neighbors must discover the death themselves.
func (s *session) shutdown(announce bool) {
	if announce {
		for _, tr := range s.trackers {
			s.env.Send(tr, wire.NewTrackerAnnounce(s.spec.Channel, true))
		}
	}
	for _, cancel := range s.cancels {
		cancel()
	}
	s.cancels = nil
	if s.trackerTimer != nil {
		s.trackerTimer()
		s.trackerTimer = nil
	}
	for len(s.sortedNbs) > 0 {
		s.dropNeighbor(s.sortedNbs[len(s.sortedNbs)-1].addr)
	}
	for _, nb := range s.origins {
		s.dropNeighbor(nb.addr)
	}
	s.phase = PhaseStopped
}

// pendingIdx returns the index of key in the pending window, or -1.
func (s *session) pendingIdx(key uint32) int {
	for i := range s.pending {
		if s.pending[i].key == key {
			return i
		}
	}
	return -1
}

func (s *session) handleChannelList(m *wire.ChannelListResponse) {
	if s.phase != PhaseBootstrap || s.buffer != nil {
		return
	}
	// The user picks this session's channel from the list; verify it exists.
	for _, info := range m.Channels {
		if info.ID == s.spec.Channel {
			s.env.Send(s.cfg.Bootstrap, &wire.PlaylinkRequest{Channel: info.ID})
			return
		}
	}
}

func (s *session) handlePlaylink(m *wire.PlaylinkResponse) {
	if s.phase != PhaseBootstrap {
		return
	}
	buf, err := stream.NewBuffer(s.spec, s.env.Now(), s.cfg.StartupDelay, s.cfg.BufferWindow)
	if err != nil {
		// Config was validated in New; a failure here is a programming error.
		panic(fmt.Sprintf("peer: buffer: %v", err))
	}
	s.buffer = buf
	// In-flight sequences live between (playhead − timeout drift) and the
	// prefetch bound: expired requests linger up to RequestTimeout plus one
	// scheduler interval past the window, so size the ring for both
	// (Config.Validate holds the sum to maxInflightSpan).
	drift := int((s.cfg.RequestTimeout+s.cfg.SchedInterval).Seconds()*s.spec.Rate()) + 64
	s.inflight = stream.NewBitRing(s.cfg.BufferWindow + drift)
	s.reqs = make([]pendingReq, s.cfg.MaxOutstanding)
	for i := range s.reqs {
		s.reqs[i].next = int16(i + 1)
	}
	s.reqs[len(s.reqs)-1].next = -1
	// A slot for every mesh neighbor the protocol admits and every origin
	// (see nbSlots).
	s.makeNeighborTable(2*s.cfg.MaxNeighbors + len(m.Edges) + 1)
	s.trackers = append([]netip.Addr(nil), m.Trackers...)
	// Both lists stay at their bounds for the whole session: the handshake
	// window drops expired entries in place, and pushRecent inserts before
	// it trims.
	s.pending = make([]pendingShake, 0, s.cfg.MaxPending)
	s.recent = make([]netip.Addr, 0, s.cfg.ReferralSize+1)
	s.phase = PhaseStartup
	if s.cfg.Resilient {
		s.trHealth = make([]trackerHealth, len(s.trackers))
	}

	s.announceTrackers(false)
	s.queryTrackers()
	s.scheduleTrackerQueries(s.cfg.TrackerIntervalStartup)

	s.cancels = append(s.cancels,
		s.env.Every(s.cfg.AnnounceInterval, func() { s.announceTrackers(false) }),
		s.env.Every(s.cfg.GossipInterval, s.gossip),
		s.env.Every(s.cfg.BufferMapInterval, s.announceBufferMap),
		s.env.Every(s.cfg.SchedInterval, s.schedulerTick),
	)
	if s.cfg.Resilient {
		s.cancels = append(s.cancels, s.env.Every(keepaliveInterval, s.keepaliveTick))
	}

	// The source is always a data provider of last resort; CDN edges sit in
	// front of it in the urgent fallback order.
	s.origins = make([]*neighbor, 0, len(m.Edges)+1)
	for _, e := range m.Edges {
		s.addOrigin(e, originEdge)
	}
	s.addOrigin(m.Source, originSource)
}

// makeNeighborTable makes the session's neighbor table of n slots, the map
// that finds them by address and the mesh order. Every slot's buffer map gets
// room for the larger of an announced map and the knowledge window.
func (s *session) makeNeighborTable(n int) {
	words := (max(s.cfg.BufferWindow, knowledgeWindow) + 63) / 64
	backing := make([]uint64, n*words)
	s.nbSlots = make([]neighbor, n)
	s.nbFree = make([]*neighbor, n)
	for i := range s.nbSlots {
		nb := &s.nbSlots[i]
		nb.buffer.Words = backing[i*words : i*words : (i+1)*words]
		s.nbFree[i] = nb
	}
	s.neighbors = make(map[uint32]*neighbor, n)
	s.sortedNbs = make([]*neighbor, 0, 2*s.cfg.MaxNeighbors)
}

// scheduleTrackerQueries (re)installs the periodic tracker query at the given
// interval, replacing any previous schedule.
func (s *session) scheduleTrackerQueries(interval time.Duration) {
	if s.trackerTimer != nil {
		s.trackerTimer()
	}
	s.trackerTimer = s.env.Every(interval, func() {
		s.queryTrackers()
		// Once playback is satisfactory, back off to the steady period
		// (the paper measures five minutes).
		if s.phase == PhaseSteady {
			s.scheduleTrackerQueries(s.cfg.TrackerIntervalSteady)
		}
	})
}

func (s *session) announceTrackers(leaving bool) {
	for i, tr := range s.trackers {
		// Trackers in outage backoff are skipped (except for withdrawals,
		// which are fire-and-forget anyway and worth attempting).
		if !leaving && s.trHealth != nil && s.trHealth[i].backoffUntil > s.env.Now() {
			continue
		}
		s.env.Send(tr, wire.NewTrackerAnnounce(s.spec.Channel, leaving))
	}
}

func (s *session) queryTrackers() {
	now := s.env.Now()
	for i, tr := range s.trackers {
		if s.trHealth != nil {
			// Failure detection is query-paced: an answer should long precede
			// the next round, so a still-pending query means the tracker is
			// unreachable — back off exponentially until one gets through.
			h := &s.trHealth[i]
			if h.pending {
				h.pending = false
				h.failStreak++
				h.backoffUntil = now + backoffDelay(trackerBackoff, trackerBackoffMax, h.failStreak, akey(tr))
				s.c.stats.TrackerFailures++
			}
			if h.backoffUntil > now {
				continue
			}
			h.pending = true
		}
		s.c.stats.TrackerQueries++
		s.env.Send(tr, wire.NewTrackerQuery(s.spec.Channel))
	}
}

// gossipFanout is how many neighbors are queried per gossip round.
const gossipFanout = 10

// gossip queries up to gossipFanout random neighbors for their peer lists,
// enclosing our own list, per the measured 20-second cadence.
func (s *session) gossip() {
	if s.buffer == nil {
		return
	}
	// Housekeeping runs every round even when there is nobody to query:
	// silent-neighbor eviction, pending-handshake expiry, table trimming.
	s.evictSilent()
	s.trimNeighbors()
	s.maybeSteady()

	for _, addr := range s.sampleNeighbors(gossipFanout) {
		s.c.stats.GossipSent++
		s.env.Send(addr, s.peerListRequest())
	}
}

// trimNeighbors prunes the table back toward MaxNeighbors. With latency
// bias the highest-RTT neighbors go first — the steady-state counterpart of
// the handshake race, and the mechanism that concentrates the table on
// nearby (in practice same-ISP) peers. With the bias ablated, pruning is
// random.
func (s *session) trimNeighbors() {
	for len(s.sortedNbs) > s.cfg.MaxNeighbors {
		var victim *neighbor
		if s.cfg.LatencyBias {
			victim = s.worstNeighbor()
		} else {
			victim = s.sortedNbs[s.env.Rand().Intn(len(s.sortedNbs))]
		}
		if victim == nil {
			return
		}
		s.dropNeighbor(victim.addr)
	}
}

// peerListRequest returns a peer-list request enclosing the list the client
// maintains (its recent neighbors), as the paper describes.
func (s *session) peerListRequest() *wire.PeerListRequest {
	m := wire.NewPeerListRequest(s.spec.Channel)
	m.OwnPeers = append(m.OwnPeers, s.recent...)
	return m
}

// cmpNeighborAddr orders sortedNbs by address.
func cmpNeighborAddr(nb *neighbor, a netip.Addr) int { return nb.addr.Compare(a) }

// sortedRemove drops a neighbor from the maintained order.
func (s *session) sortedRemove(a netip.Addr) {
	if i, found := slices.BinarySearchFunc(s.sortedNbs, a, cmpNeighborAddr); found {
		s.sortedNbs = slices.Delete(s.sortedNbs, i, i+1)
	}
}

// sampleNeighbors picks up to k distinct connected mesh neighbors uniformly
// (gossip targets are regular peers), into addrScratch.
func (s *session) sampleNeighbors(k int) []netip.Addr {
	pool := s.addrScratch[:0]
	for _, nb := range s.sortedNbs {
		pool = append(pool, nb.addr)
	}
	s.addrScratch = pool
	rng := s.env.Rand()
	if len(pool) <= k {
		return pool
	}
	for i := 0; i < k; i++ {
		j := i + rng.Intn(len(pool)-i)
		pool[i], pool[j] = pool[j], pool[i]
	}
	return pool[:k]
}

// connectFromList implements "randomly selects a number of peers from the
// list and connects to them immediately": pick ConnectFanout random fresh
// addresses from the just-received list and handshake at once (or, with
// latency bias ablated, after a random defer).
func (s *session) connectFromList(addrs []netip.Addr) {
	if s.buffer == nil {
		return
	}
	fresh := s.addrScratch[:0]
	self := s.env.Addr()
	for _, a := range addrs {
		if a == self {
			continue
		}
		if _, connected := s.neighbors[akey(a)]; connected {
			continue
		}
		if s.pendingIdx(akey(a)) >= 0 {
			continue
		}
		fresh = append(fresh, a)
	}
	s.addrScratch = fresh
	rng := s.env.Rand()
	rng.Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })
	n := s.cfg.ConnectFanout
	for _, a := range fresh {
		if n == 0 {
			break
		}
		if len(s.pending) >= s.cfg.MaxPending {
			break
		}
		// Keep probing even at capacity: the ack race against the current
		// worst neighbor (see handleHandshakeAck) is what makes selection
		// latency-based over time.
		s.sendHandshake(a)
		n--
	}
}

func (s *session) sendHandshake(a netip.Addr) {
	if i := s.pendingIdx(akey(a)); i >= 0 {
		s.pending[i].at = s.env.Now()
	} else {
		s.pending = append(s.pending, pendingShake{key: akey(a), at: s.env.Now()})
	}
	s.c.stats.HandshakesSent++
	hs := &s.hs
	if s.cfg.LatencyBias {
		s.env.Send(a, hs)
		return
	}
	// Ablation: defer by a uniform random delay (0..2s) so slot acquisition
	// no longer correlates with proximity.
	delay := time.Duration(s.env.Rand().Int63n(int64(2 * time.Second)))
	s.cancels = append(s.cancels, s.env.After(delay, func() {
		if s.phase != PhaseStopped {
			s.env.Send(a, hs)
		}
	}))
}

func (s *session) handleTrackerResponse(from netip.Addr, m *wire.TrackerResponse) {
	if s.buffer == nil {
		return
	}
	if s.trHealth != nil {
		for i, tr := range s.trackers {
			if tr == from {
				s.trHealth[i] = trackerHealth{} // answered: healthy again
				break
			}
		}
	}
	s.c.stats.ListsReceived++
	s.c.stats.AddrsLearned += uint64(len(m.Peers))
	s.connectFromList(m.Peers)
}

func (s *session) handleHandshake(from netip.Addr, m *wire.Handshake) {
	if s.buffer == nil {
		return
	}
	// Accept inbound connections up to twice the outbound cap: PPLive peers
	// are generous acceptors, which is what makes clusters highly connected.
	accept := len(s.sortedNbs) < 2*s.cfg.MaxNeighbors
	ack := wire.NewHandshakeAck(s.spec.Channel, accept)
	if accept {
		ack.Buffer = s.buffer.SnapshotInto(ack.Buffer.Words)
		s.c.stats.InboundAccepted++
		s.addNeighbor(from, wire.BufferMap{})
	} else {
		s.c.stats.InboundRejected++
	}
	s.env.Send(from, ack)
}

func (s *session) handleHandshakeAck(from netip.Addr, m *wire.HandshakeAck) {
	i := s.pendingIdx(akey(from))
	if i < 0 {
		return
	}
	started := s.pending[i].at
	s.pending = slices.Delete(s.pending, i, i+1)
	if !m.Accepted || s.buffer == nil {
		s.c.stats.HandshakesRejected++
		return
	}
	rtt := s.env.Now() - started
	if len(s.sortedNbs) >= s.cfg.MaxNeighbors {
		// Table full: the newcomer must beat the slowest current neighbor
		// on measured latency, otherwise the race is lost. This rolling
		// replacement is what turns connect-on-list-arrival into
		// latency-based neighbor selection over a whole session.
		if !s.cfg.LatencyBias {
			s.c.stats.HandshakesRejected++
			return
		}
		worst := s.worstNeighbor()
		if worst == nil || rtt >= neighborRTTEstimate(worst) {
			s.c.stats.HandshakesRejected++
			return
		}
		s.dropNeighbor(worst.addr)
	}
	s.c.stats.HandshakesAccepted++
	nb := s.addNeighbor(from, m.Buffer)
	nb.minRTT = rtt
	nb.score = rtt
	// "Upon the establishment of a new connection, the client will first ask
	// the newly connected peer for its peer list ... then request video data."
	s.c.stats.GossipSent++
	s.env.Send(from, s.peerListRequest())
}

// addNeighbor registers (or refreshes) a connected mesh neighbor and records
// it as a recent connection for referral.
func (s *session) addNeighbor(a netip.Addr, bm wire.BufferMap) *neighbor {
	if nb, ok := s.neighbors[akey(a)]; ok {
		nb.lastHeard = s.env.Now()
		if bm.Words != nil {
			nb.setBuffer(bm, s.env.Now())
		}
		return nb
	}
	nb := s.newNeighbor(a, bm)
	i, _ := slices.BinarySearchFunc(s.sortedNbs, a, cmpNeighborAddr)
	s.sortedNbs = slices.Insert(s.sortedNbs, i, nb)
	s.pushRecent(a)
	return nb
}

// addOrigin registers a as the next origin in urgent-miss order.
func (s *session) addOrigin(a netip.Addr, kind originKind) {
	nb := s.newNeighbor(a, wire.BufferMap{})
	nb.origin = kind
	s.origins = append(s.origins, nb)
}

// newNeighbor enters a fresh neighbor for a into a free slot of the table:
// only the storage of the slot's buffer map carries over. The protocol never
// empties the table (see nbSlots); a neighbor added past it by hand is made
// fresh.
func (s *session) newNeighbor(a netip.Addr, bm wire.BufferMap) *neighbor {
	now := s.env.Now()
	var nb *neighbor
	if k := len(s.nbFree); k > 0 {
		nb = s.nbFree[k-1]
		s.nbFree = s.nbFree[:k-1]
	} else {
		nb = new(neighbor)
	}
	*nb = neighbor{
		addr:      a,
		connected: now,
		lastHeard: now,
		buffer:    wire.BufferMap{Words: nb.buffer.Words[:0]},
		reqHead:   -1,
		planIdx:   -1,
	}
	nb.setBuffer(bm, now)
	s.neighbors[akey(a)] = nb
	return nb
}

// worstNeighbor returns the mesh neighbor with the highest latency estimate,
// or nil if none.
func (s *session) worstNeighbor() *neighbor {
	var worst *neighbor
	for _, nb := range s.sortedNbs {
		if worst == nil || neighborRTTEstimate(nb) > neighborRTTEstimate(worst) {
			worst = nb
		}
	}
	return worst
}

// pushRecent records a as the most recent connection, deduplicating and
// capping at ReferralSize.
func (s *session) pushRecent(a netip.Addr) {
	for i, existing := range s.recent {
		if existing == a {
			copy(s.recent[1:i+1], s.recent[:i])
			s.recent[0] = a
			return
		}
	}
	s.recent = append(s.recent, netip.Addr{})
	copy(s.recent[1:], s.recent)
	s.recent[0] = a
	if len(s.recent) > s.cfg.ReferralSize {
		s.recent = s.recent[:s.cfg.ReferralSize]
	}
}

func (s *session) handlePeerListRequest(from netip.Addr, m *wire.PeerListRequest) {
	if s.buffer == nil {
		return
	}
	// The requester's enclosed list is free gossip: count it.
	s.c.stats.AddrsLearned += uint64(len(m.OwnPeers))
	if nb, ok := s.neighbors[akey(from)]; ok {
		nb.lastHeard = s.env.Now()
	}
	reply := wire.NewPeerListReply(s.spec.Channel)
	if s.cfg.ReferralEnabled {
		reply.Peers = s.appendReferrals(reply.Peers, from)
	}
	s.env.Send(from, reply)
}

// appendReferrals appends to out up to ReferralSize recently connected
// peers, excluding the requester itself. recent never contains this
// session's own address (pushRecent only records remote non-source
// neighbors) and keepalive eviction purges dead entries, so a referral can
// neither bounce the requester back to itself nor hand out a neighbor known
// to be gone. A configured selection policy then reorders/clamps the
// appended list — Refer is RNG-free, so shaping never perturbs the event
// trajectory.
func (s *session) appendReferrals(out []netip.Addr, requester netip.Addr) []netip.Addr {
	n := len(out)
	for _, a := range s.recent {
		if a == requester {
			continue
		}
		out = append(out, a)
	}
	if pol := s.cfg.Selection; pol != nil {
		out = out[:n+pol.Refer(out[n:], requester)]
	}
	return out
}

// forgetRecent purges a from the referral source — used when a is discovered
// dead (keepalive eviction) so it is never referred to other peers again.
func (s *session) forgetRecent(a netip.Addr) {
	for i, existing := range s.recent {
		if existing == a {
			s.recent = append(s.recent[:i], s.recent[i+1:]...)
			return
		}
	}
}

func (s *session) handlePeerListReply(from netip.Addr, m *wire.PeerListReply) {
	if s.buffer == nil {
		return
	}
	s.c.stats.GossipReplies++
	s.c.stats.ListsReceived++
	if nb, ok := s.neighbors[akey(from)]; ok {
		nb.lastHeard = s.env.Now()
	}
	s.c.stats.AddrsLearned += uint64(len(m.Peers))
	// "Once the client receives a peer list ... connects to them immediately."
	s.connectFromList(m.Peers)
}

func (s *session) handleBufferMap(from netip.Addr, m *wire.BufferMapAnnounce) {
	nb, ok := s.neighbors[akey(from)]
	if !ok {
		return
	}
	nb.setBuffer(m.Buffer, s.env.Now())
	nb.lastHeard = s.env.Now()
}

func (s *session) announceBufferMap() {
	if s.buffer == nil || len(s.sortedNbs) == 0 {
		return
	}
	// One announcement for every neighbour: receivers copy the map
	// (neighbor.setBuffer), each delivery releases it once, and the last
	// release recycles it.
	msg := wire.NewBufferMapAnnounce(s.spec.Channel)
	msg.Buffer = s.buffer.SnapshotInto(msg.Buffer.Words)
	msg.SetDeliveries(len(s.sortedNbs))
	for _, nb := range s.sortedNbs {
		s.env.Send(nb.addr, msg)
	}
}

// evictSilent drops neighbors not heard from within NeighborSilence and
// expires handshakes that never got an ack (departed peers, lost datagrams)
// so the pending window cannot clog permanently. Both scans walk
// deterministic slices — the maintained sorted order and the pending window
// — never map range order, so the victim sequence is identical across runs.
func (s *session) evictSilent() {
	now := s.env.Now()
	victims := s.evictScratch[:0]
	for _, nb := range s.sortedNbs {
		if now-nb.lastHeard > s.cfg.NeighborSilence {
			victims = append(victims, nb.addr)
		}
	}
	for _, a := range victims {
		s.dropNeighbor(a)
	}
	s.evictScratch = victims[:0]

	keep := s.pending[:0]
	for _, p := range s.pending {
		if now-p.at > s.cfg.HandshakeTimeout {
			s.c.stats.HandshakeTimeouts++
			continue
		}
		keep = append(keep, p)
	}
	s.pending = keep
}

func (s *session) dropNeighbor(a netip.Addr) {
	nb, ok := s.neighbors[akey(a)]
	if !ok {
		return
	}
	for nb.reqHead >= 0 {
		s.clearOutstanding(nb, -1, nb.reqHead)
	}
	// Invalidate the dropped neighbor's scheduler-plan row so a stale pointer
	// can never write eligibility bits for whoever inherits the row index.
	// The plan itself holds indices into sortedNbs, never pointers, and is
	// rebuilt every tick, so the struct is free for newNeighbor's next entry.
	nb.planIdx = -1
	delete(s.neighbors, akey(a))
	s.sortedRemove(a)
	// A neighbor made past the table joins the stack only while there is
	// room, so the stack never outgrows the table.
	if len(s.nbFree) < cap(s.nbFree) {
		s.nbFree = append(s.nbFree, nb)
	}
}

// maybeSteady transitions to the steady phase once playback is satisfactory:
// the buffer holds a healthy share of the pieces between playhead and edge.
func (s *session) maybeSteady() {
	if s.phase != PhaseStartup || s.buffer == nil {
		return
	}
	st := s.buffer.Stats()
	// Count real mesh neighbors only: the source and CDN edges sit in the
	// neighbors map too, but reaching steady phase means the swarm carries
	// playback, not the infrastructure. (Legacy equivalence: without edges,
	// len(neighbors) > 2 was exactly len(sortedNbs) >= 2.)
	if st.Received > uint64(s.cfg.BufferWindow/4) && len(s.sortedNbs) >= 2 {
		s.phase = PhaseSteady
		if !s.c.steadySeen {
			s.c.steadySeen = true
			s.c.timeToSteady = s.env.Now() - s.startedAt
		}
		s.scheduleTrackerQueries(s.cfg.TrackerIntervalSteady)
	}
}

// schedulerTick drives playback and the data request plane.
func (s *session) schedulerTick() {
	if s.buffer == nil {
		return
	}
	now := s.env.Now()
	s.buffer.AdvanceTo(now)
	s.expireRequests(now)

	if s.outstandingTotal >= s.cfg.MaxOutstanding {
		return
	}

	// Determine wanted sub-pieces, skipping those already in flight and
	// bounding prefetch to FetchLead ahead of the playhead (pieces newer
	// than that are too close to the live edge to be widely announced yet).
	budget := (s.cfg.MaxOutstanding - s.outstandingTotal) * s.cfg.BatchCount
	limit := s.buffer.Playhead() + uint64(s.cfg.FetchLead.Seconds()*s.spec.Rate())
	want := s.buffer.AppendWantRing(s.wantScratch[:0], now, budget, limit, s.inflight)
	s.wantScratch = want[:0]
	if len(want) == 0 {
		s.maybeSteady()
		return
	}

	// Precompute every neighbor's coverage of the want range while want is
	// still sorted (its ends bound the range); picks below are mask lookups.
	s.buildSchedPlan(want[0], want[len(want)-1], now)

	// Pieces within two seconds of their deadline are urgent: they go only
	// to proven holders or the source, never to extrapolated coverage. While
	// the source is suspect (consecutive timeouts) the urgent window widens,
	// pulling the mesh fallback forward so playback degrades gracefully
	// instead of stalling at the deadline.
	urgentSpan := uint64(2 * s.spec.Rate())
	if s.sourceSuspect() {
		urgentSpan *= urgentWidenFactor
	}
	urgentBound := s.buffer.Playhead() + urgentSpan

	// Keep urgent pieces in deadline order but randomize the rest, so that
	// peers wanting the same region fetch different pieces and can then
	// trade (sequential fetching would synchronize the whole swarm onto the
	// same few providers).
	split := len(want)
	for i, seq := range want {
		if seq >= urgentBound {
			split = i
			break
		}
	}
	s.shuffleBlocks(want[split:], s.cfg.BatchCount)

	// Assign wanted sequences to providers, batching contiguous runs the
	// chosen provider actually covers (up to BatchCount).
	for i := 0; i < len(want); {
		seq := want[i]
		target := s.pickProvider(seq, now, seq < urgentBound)
		if target == nil {
			i++
			continue
		}
		j := i + 1
		for j < len(want) && j-i < s.cfg.BatchCount && want[j] == want[j-1]+1 &&
			s.neighborCovers(target, want[j], now) {
			j++
		}
		s.sendDataRequest(target, seq, j-i, now)
		i = j
		if s.outstandingTotal >= s.cfg.MaxOutstanding {
			break
		}
	}
}

// shuffleBlocks randomizes the order of blockSize-sized contiguous blocks of
// seqs in place, preserving intra-block contiguity so batching still works.
// A trailing partial block stays in place (it holds the newest, least-spread
// sequences anyway), which lets the permutation run as allocation-free
// element swaps between equal-sized blocks.
func (s *session) shuffleBlocks(seqs []uint64, blockSize int) {
	rng := s.env.Rand()
	if blockSize == 1 {
		for i := len(seqs) - 1; i > 0; i-- {
			j := s.rbits.intn(rng, i+1)
			seqs[i], seqs[j] = seqs[j], seqs[i]
		}
		return
	}
	if blockSize < 1 || len(seqs) <= blockSize {
		return
	}
	n := len(seqs) / blockSize
	for i := n - 1; i > 0; i-- {
		j := s.rbits.intn(rng, i+1)
		if i == j {
			continue
		}
		a := seqs[i*blockSize : (i+1)*blockSize]
		b := seqs[j*blockSize : (j+1)*blockSize]
		for k := range a {
			a[k], b[k] = b[k], a[k]
		}
	}
}

// neighborCovers is covers() with the origins — the source, and CDN edges,
// whose out-of-band ingest tracks the live edge just like the source's
// encoder — treated as holding everything already emitted.
func (s *session) neighborCovers(nb *neighbor, seq uint64, now time.Duration) bool {
	if nb.origin != meshPeer {
		return seq <= s.spec.EdgeSeq(now)
	}
	return nb.covers(seq)
}

// inFlight reports whether seq is covered by any outstanding request.
func (s *session) inFlight(seq uint64) bool {
	return s.inflight != nil && s.inflight.Has(seq)
}

// expireRequests times out unanswered data requests, penalizing the
// neighbor's service score.
func (s *session) expireRequests(now time.Duration) {
	for _, nb := range s.sortedNbs {
		s.expireNeighbor(nb, now)
	}
	// Backwards — the source, then the edges in reverse affinity order:
	// expiring an edge can delete it from s.origins in place.
	for i := len(s.origins) - 1; i >= 0; i-- {
		s.expireNeighbor(s.origins[i], now)
	}
}

func (s *session) expireNeighbor(nb *neighbor, now time.Duration) {
	expired := false
	// The chain is in booking order and the clock only advances, so the
	// expired requests are a prefix.
	for nb.reqHead >= 0 && now-s.reqs[nb.reqHead].at > s.cfg.RequestTimeout {
		s.clearOutstanding(nb, -1, nb.reqHead)
		s.c.stats.RequestTimeouts++
		// A timeout is strong evidence of overload or departure.
		nb.score = ewma(nb.score, 2*s.cfg.RequestTimeout)
		expired = true
	}
	if !expired {
		return
	}
	// Edges back off and eventually purge regardless of cfg.Resilient: unlike
	// a mesh neighbor, an edge sits on the urgent path by standing
	// appointment, so a dead one must be walked past (next edge, then the
	// source) and, after a short streak, removed from the origins and the
	// neighbor table for good.
	if nb.origin == originEdge {
		nb.failStreak++
		nb.backoffUntil = now + backoffDelay(retryBackoff, retryBackoffMax, nb.failStreak, akey(nb.addr))
		if nb.failStreak >= failThreshold {
			i := slices.Index(s.origins, nb)
			s.origins = slices.Delete(s.origins, i, i+1)
			s.dropNeighbor(nb.addr)
		}
		return
	}
	if !s.cfg.Resilient {
		return
	}
	// The expired sequences re-enter the want set next tick (retransmission);
	// the failed provider is penalized with a capped exponential backoff so
	// retries go elsewhere while it is struggling. Source timeouts feed the
	// suspect counter instead — the source has no substitute to back off to.
	if nb.origin == originSource {
		s.srcFails++
		return
	}
	nb.failStreak++
	nb.backoffUntil = now + backoffDelay(retryBackoff, retryBackoffMax, nb.failStreak, akey(nb.addr))
}

// findOutstanding returns the slot of nb's request keyed by seq and the slot
// before it in nb's chain (-1 at the head), or i = -1 if there is none. A
// sequence starts at most one request of the session (the want scan skips
// in-flight ones), so the first match is the only one. Replies come back
// mostly in booking order, so the walk from the oldest is short.
func (s *session) findOutstanding(nb *neighbor, seq uint64) (prev, i int16) {
	for prev, i = -1, nb.reqHead; i >= 0; prev, i = i, s.reqs[i].next {
		if s.reqs[i].seq == seq {
			return prev, i
		}
	}
	return -1, -1
}

// clearOutstanding unlinks slot i, which follows prev in nb's chain (-1 when
// i is the head), returns it to the free chain and clears its inflight
// coverage.
func (s *session) clearOutstanding(nb *neighbor, prev, i int16) {
	req := &s.reqs[i]
	if prev < 0 {
		nb.reqHead = req.next
	} else {
		s.reqs[prev].next = req.next
	}
	if nb.reqTail == i {
		nb.reqTail = prev
	}
	req.next, s.reqFree = s.reqFree, i
	nb.reqCount--
	s.outstandingTotal--
	for k := uint64(0); k < uint64(req.count); k++ {
		s.inflight.Clear(req.seq + k)
	}
}

func (s *session) sendDataRequest(nb *neighbor, seq uint64, count int, now time.Duration) {
	slot := s.reqFree
	s.reqFree = s.reqs[slot].next
	s.reqs[slot] = pendingReq{seq: seq, at: now, next: -1, count: uint16(count)}
	if nb.reqHead < 0 {
		nb.reqHead = slot
	} else {
		s.reqs[nb.reqTail].next = slot
	}
	nb.reqTail = slot
	nb.reqCount++
	s.outstandingTotal++
	for i := 0; i < count; i++ {
		s.inflight.Set(seq + uint64(i))
	}
	s.planNoteSent(nb)
	nb.requests++
	s.c.stats.DataRequestsSent++
	if s.c.emitRequest != nil {
		s.c.emitRequest(nb.addr, seq, count)
		return
	}
	s.env.Send(nb.addr, wire.NewDataRequest(s.spec.Channel, seq, uint16(count)))
}

// mapPiggybackMin rate-limits, per requester, the buffer map piggybacked on
// a declined data request; flow members apply the same limit.
const mapPiggybackMin = time.Second

// handleDataRequest serves a neighbor's request with the prefix run of
// pieces we hold, unless our uplink is already overloaded.
func (s *session) handleDataRequest(from netip.Addr, m *wire.DataRequest) {
	if s.buffer == nil {
		return
	}
	if nb, ok := s.neighbors[akey(from)]; ok {
		nb.lastHeard = s.env.Now()
	}
	// An overloaded uplink sheds load with a tiny busy reply, redirecting
	// the requester quickly. Accepted requests still ride the growing
	// uplink queue — the application-layer queuing behind the paper's
	// load-dependent response times.
	if s.env.UplinkBacklog() > serveQueueLimit {
		s.c.stats.DataRequestsShed++
		s.env.Send(from, wire.NewDataReply(s.spec.Channel, m.Seq, 0, uint16(s.spec.SubPieceLen), true))
		return
	}
	count := int(m.Count)
	if count == 0 {
		count = 1
	}
	run := 0
	for run < count && s.buffer.Has(m.Seq+uint64(run)) {
		run++
	}
	if run == 0 {
		// Explicit no-have: a tiny reply (Count=0) so the requester can
		// reschedule immediately instead of burning a timeout. Piggyback a
		// fresh buffer map (rate-limited per peer) so the requester's stale
		// view of us gets corrected at exactly the moment it misfired.
		s.c.stats.DataRequestsDeclined++
		s.env.Send(from, wire.NewDataReply(s.spec.Channel, m.Seq, 0, uint16(s.spec.SubPieceLen), false))
		now := s.env.Now()
		if last, ok := s.lastMapTo[akey(from)]; !ok || now-last >= mapPiggybackMin {
			if s.lastMapTo == nil {
				s.lastMapTo = make(map[uint32]time.Duration)
			}
			s.lastMapTo[akey(from)] = now
			msg := wire.NewBufferMapAnnounce(s.spec.Channel)
			msg.Buffer = s.buffer.SnapshotInto(msg.Buffer.Words)
			s.env.Send(from, msg)
		}
		return
	}
	s.c.stats.DataRequestsServed++
	s.env.Send(from, wire.NewDataReply(s.spec.Channel, m.Seq, uint16(run), uint16(s.spec.SubPieceLen), false))
}

func (s *session) handleDataReply(from netip.Addr, m *wire.DataReply) {
	if s.buffer == nil {
		return
	}
	nb, ok := s.neighbors[akey(from)]
	if !ok {
		return
	}
	now := s.env.Now()
	nb.lastHeard = now
	// Any reply — data, busy, or no-have — proves the sender is alive: reset
	// its failure streak (and the source-suspect counter for the source).
	nb.failStreak, nb.backoffUntil = 0, 0
	if nb.origin == originSource {
		s.srcFails = 0
	}

	if m.Count == 0 {
		// Miss: clear the in-flight slot. For busy signals, penalize the
		// neighbor's service score so the scheduler spreads load away; for
		// no-haves, the piggybacked buffer map corrects our stale view.
		if prev, i := s.findOutstanding(nb, m.Seq); i >= 0 {
			s.clearOutstanding(nb, prev, i)
		}
		if m.Busy {
			s.c.stats.DataBusies++
			// Penalize proportionally: a busy signal means "currently about
			// twice as slow as usual", steering load away without burying
			// genuinely fast neighbors.
			nb.score = ewma(nb.score, 2*score(nb))
			// A shedding edge is held off for as long as the backlog that
			// triggered its shed, so the urgent fallback walks on to the
			// next edge (then the source) instead of re-hitting a saturated
			// cache.
			if nb.origin == originEdge {
				nb.backoffUntil = now + shedBacklog
			}
		} else {
			s.c.stats.DataNoHaves++
		}
		return
	}

	if prev, i := s.findOutstanding(nb, m.Seq); i >= 0 {
		rt := now - s.reqs[i].at
		s.clearOutstanding(nb, prev, i)
		nb.score = ewma(nb.score, rt)
		if nb.minRTT == 0 || rt < nb.minRTT {
			nb.minRTT = rt
		}
	}
	nb.replies++
	nb.bytes += uint64(m.PayloadLen())
	nb.learnHas(m.Seq, m.Seq+uint64(m.Count)-1, now)
	s.c.stats.DataRepliesGot++
	s.c.stats.DataBytesGot += uint64(m.PayloadLen())
	fresh := false
	for i := uint64(0); i < uint64(m.Count); i++ {
		if s.buffer.Mark(m.Seq + i) {
			fresh = true
		}
	}
	if fresh {
		s.gossipHave(m.Seq, m.Count, from)
	}
}

// gossipHave hints freshly acquired pieces to a few random neighbors,
// making piece availability spread exponentially through the mesh instead
// of waiting for periodic buffer-map rounds.
func (s *session) gossipHave(seq uint64, count uint16, from netip.Addr) {
	if s.cfg.HintFanout <= 0 {
		return
	}
	pool := s.sortedNbs
	if len(pool) == 0 {
		return
	}
	rng := s.env.Rand()
	targets := s.addrScratch[:0]
	for attempts := 0; len(targets) < s.cfg.HintFanout && attempts < 3*s.cfg.HintFanout; attempts++ {
		if a := pool[rng.Intn(len(pool))].addr; a != from {
			targets = append(targets, a)
		}
	}
	s.addrScratch = targets
	if len(targets) == 0 {
		return
	}
	// One message for every target: each delivery releases it once, and the
	// last release recycles it.
	m := wire.NewHave(s.spec.Channel, seq, count)
	m.SetDeliveries(len(targets))
	for _, a := range targets {
		s.env.Send(a, m)
	}
}

// handleHave records a neighbor's per-piece availability hint.
func (s *session) handleHave(from netip.Addr, m *wire.Have) {
	nb, ok := s.neighbors[akey(from)]
	if !ok || m.Count == 0 {
		return
	}
	nb.lastHeard = s.env.Now()
	nb.learnHas(m.Seq, m.Seq+uint64(m.Count)-1, s.env.Now())
}
