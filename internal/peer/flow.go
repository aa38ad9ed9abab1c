package peer

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"pplivesim/internal/selection"
	"pplivesim/internal/stream"
	"pplivesim/internal/wire"
)

// FlowPort is the boundary between a FlowSwarm and its environment. The core
// package implements it over one shard domain: member i's sends go out of
// that member's host, and Respawn schedules a replacement join on the owning
// domain's engine. Everything a swarm does flows through this interface, so
// the swarm itself holds no engine or network references.
type FlowPort interface {
	// Now is the owning domain's simulated clock.
	Now() time.Duration
	// Send transmits a message from member i's host.
	Send(i int, to netip.Addr, msg wire.Message)
	// UplinkBacklog is member i's host transmit-queue delay.
	UplinkBacklog(i int) time.Duration
	// Retire detaches member i's host from the network.
	Retire(i int)
	// Respawn schedules one replacement member to join after delay.
	Respawn(delay time.Duration)
}

// FlowConfig parameterizes a flow-fidelity swarm. The protocol surface is
// fixed by the flow constants below and the constants shared with Config's
// defaults (serveQueueLimit, mapPiggybackMin), so a probe cannot tell a flow
// member from a batched Client.
type FlowConfig struct {
	Spec stream.Spec

	// MeanSession, when positive, enables flow-level churn: the expected
	// departure count accrues at nAlive/MeanSession per unit time, and each
	// departure retires one random member and asks the port for a
	// replacement after an exponential ReplacementDelay.
	MeanSession      time.Duration
	ReplacementDelay time.Duration

	// Selection shapes referral replies, mirroring Config.Selection. nil is
	// the legacy pass-through; any policy's Refer is RNG-free, so shaping
	// never touches the swarm's deterministic draw stream.
	Selection selection.Policy
}

const (
	// flowWindow is how many consecutive sub-pieces back from its newest
	// held piece a member retains (the Client BufferWindow analog).
	flowWindow = 2048
	// flowMaxLag bounds how far (in sub-pieces) a member's newest held piece
	// trails the live edge; each member draws uniformly in [1, flowMaxLag].
	// Healthy full-fidelity peers prefetch to within a couple of seconds of
	// the edge, so it is small.
	flowMaxLag = 72

	// flowLinksPerMember and flowMaxLinks bound the probe-facing neighbor
	// links a swarm accepts (per member and in total). Links exist only
	// where a full-fidelity peer handshakes into the swarm; members never
	// link to each other.
	flowLinksPerMember = 4
	flowMaxLinks       = 4096

	// flowTrackerSample bounds how many members keep tracker registrations
	// alive (the full population announcing every minute would be pure
	// event-queue load; probes only ever consume a 50-peer sample anyway).
	flowTrackerSample = 256
)

// DefaultFlowConfig returns a flow swarm for spec without churn and with the
// pass-through referral policy.
func DefaultFlowConfig(spec stream.Spec) FlowConfig {
	return FlowConfig{Spec: spec}
}

// Validate checks the config for usability.
func (c *FlowConfig) Validate() error { return c.Spec.Validate() }

// flowNbrWidth is the per-member neighbor row width: the referral sample a
// member hands to a gossiping probe. Full clients refer up to ReferralSize
// neighbors; flow members keep a fixed narrow row so a million rows stay flat
// and small, and probes top up through trackers and further gossip.
const flowNbrWidth = 8

// flowLink is one probe-facing neighbor link. The table is bounded by
// flowMaxLinks and in practice holds a handful of entries per probe, so linear
// scans are cheaper than any per-member index.
type flowLink struct {
	member  int32
	addr    netip.Addr
	lastMap time.Duration
}

// FlowSwarm is the struct-of-arrays background population of one shard
// domain and channel at FidelityFlow. Per-member state is flat parallel
// arrays — no per-peer maps, pointers, timers, or RNGs — and the aggregate
// behaviour (bytes streamed, churn) advances in O(1) per Tick regardless of
// population size. Holdings are an arithmetic function of (live edge, lag,
// join edge): a member holds the contiguous sub-piece interval
// [max(joinSeq, hi-Window+1), hi] with hi = edge - lag, which is the SoA
// compression of the full client's buffer-map words — the wire BufferMap is
// materialized on demand only when a probe asks.
//
// A FlowSwarm is owned by one shard domain: every method runs on that
// domain's worker, so no synchronization is needed and churn draws come from
// one deterministic stream.
type FlowSwarm struct {
	cfg  FlowConfig
	port FlowPort
	rng  *rand.Rand

	// Per-member rows, index = member id. Rows are recycled through free on
	// departure, never released. addrs holds IPv4 addresses packed big-endian
	// (the address plan is IPv4-only): 4 bytes a row the collector never
	// scans, where a netip.Addr is 24 with a pointer in it.
	addrs   []uint32
	joinSeq []uint64 // live-edge sequence at join (holds nothing older)
	lag     []uint16 // newest held piece trails the live edge by this much
	alive   []bool
	nbr     []int32 // flat flowNbrWidth-wide referral rows
	free    []int32

	links []flowLink

	nAlive   int
	trackers []netip.Addr
	nextTrk  int

	lastTick     time.Duration
	carryBytes   float64 // fractional streamed bytes carried between ticks
	carryDepart  float64 // fractional expected departures carried between ticks
	pendingBytes uint64  // whole streamed bytes awaiting TakeBytes
}

// NewFlowSwarm creates an empty swarm sized for capacity members. rng drives
// lag/referral/churn draws and must belong to the owning domain's stream.
// trackers is where sampled members keep their registrations.
func NewFlowSwarm(cfg FlowConfig, port FlowPort, rng *rand.Rand, trackers []netip.Addr, capacity int) (*FlowSwarm, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if capacity <= 0 {
		return nil, fmt.Errorf("peer: flow swarm capacity %d invalid", capacity)
	}
	return &FlowSwarm{
		cfg:      cfg,
		port:     port,
		rng:      rng,
		addrs:    make([]uint32, 0, capacity),
		joinSeq:  make([]uint64, 0, capacity),
		lag:      make([]uint16, 0, capacity),
		alive:    make([]bool, 0, capacity),
		nbr:      make([]int32, 0, capacity*flowNbrWidth),
		links:    make([]flowLink, 0, 16),
		trackers: trackers,
	}, nil
}

// Len returns the number of member rows ever allocated (alive or not).
func (s *FlowSwarm) Len() int { return len(s.addrs) }

// Alive returns the live member count.
func (s *FlowSwarm) Alive() int { return s.nAlive }

// Addr returns the address member i joined at; it stays readable after the
// member departs, until the row is recycled.
func (s *FlowSwarm) Addr(i int) netip.Addr {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], s.addrs[i])
	return netip.AddrFrom4(b)
}

// Add joins a member at addr, which must be IPv4, and returns its row index.
// Departed rows are recycled before new ones are allocated.
func (s *FlowSwarm) Add(addr netip.Addr) int {
	b := addr.As4()
	packed := binary.BigEndian.Uint32(b[:])
	now := s.port.Now()
	var i int
	if n := len(s.free); n > 0 {
		i = int(s.free[n-1])
		s.free = s.free[:n-1]
		s.addrs[i] = packed
		s.joinSeq[i] = s.cfg.Spec.EdgeSeq(now)
		s.lag[i] = s.drawLag()
		s.alive[i] = true
	} else {
		i = len(s.addrs)
		s.addrs = append(s.addrs, packed)
		s.joinSeq = append(s.joinSeq, s.cfg.Spec.EdgeSeq(now))
		s.lag = append(s.lag, s.drawLag())
		s.alive = append(s.alive, true)
		s.nbr = append(s.nbr, make([]int32, flowNbrWidth)...)
	}
	// The referral row samples the swarm as of join; dead entries are
	// filtered at referral time, exactly as a full client's neighbor set
	// decays between gossip rounds.
	row := s.nbr[i*flowNbrWidth : (i+1)*flowNbrWidth]
	for k := range row {
		row[k] = int32(s.rng.Intn(len(s.addrs)))
	}
	s.nAlive++
	return i
}

func (s *FlowSwarm) drawLag() uint16 {
	return uint16(1 + s.rng.Intn(flowMaxLag))
}

// retire removes member i from the swarm and detaches its host. Links it was
// serving are dropped.
func (s *FlowSwarm) retire(i int) {
	if !s.alive[i] {
		return
	}
	s.alive[i] = false
	s.nAlive--
	s.free = append(s.free, int32(i))
	w := 0
	for _, l := range s.links {
		if l.member != int32(i) {
			s.links[w] = l
			w++
		}
	}
	s.links = s.links[:w]
	s.port.Retire(i)
}

// KillFraction abruptly retires each live member with probability frac, with
// no replacement — the flow-level analog of Client.Kill under a kill-churn
// fault. Draws come from the swarm's own (owning-domain) RNG stream, so the
// killed set is worker-count invariant. It returns the number killed.
func (s *FlowSwarm) KillFraction(frac float64) int {
	killed := 0
	for i := range s.alive {
		if !s.alive[i] {
			continue
		}
		if s.rng.Float64() < frac {
			s.retire(i)
			killed++
		}
	}
	return killed
}

// Tick advances the swarm's aggregate behaviour to now: streamed bytes
// accrue at nAlive×bitrate, and with churn enabled the expected departure
// count accrues at nAlive/MeanSession, retiring one random member (and
// requesting a replacement) per whole departure. It allocates nothing —
// the CI benchmark gate pins this at 0 allocs/op.
func (s *FlowSwarm) Tick(now time.Duration) {
	dt := now - s.lastTick
	s.lastTick = now
	if dt <= 0 || s.nAlive == 0 {
		return
	}
	sec := dt.Seconds()
	s.carryBytes += float64(s.nAlive) * float64(s.cfg.Spec.BitrateBps) * sec
	if whole := uint64(s.carryBytes); whole > 0 {
		s.carryBytes -= float64(whole)
		s.pendingBytes += whole
	}
	if s.cfg.MeanSession > 0 {
		s.carryDepart += float64(s.nAlive) * sec / s.cfg.MeanSession.Seconds()
		for s.carryDepart >= 1 && s.nAlive > 0 {
			s.carryDepart--
			s.retire(s.randomAlive())
			delay := time.Duration(s.rng.ExpFloat64() * float64(s.cfg.ReplacementDelay))
			s.port.Respawn(delay)
		}
	}
}

// TakeBytes drains the bytes streamed by the swarm since the last call. The
// core layer splits them across ISPs by the scenario's locality mix and
// feeds the per-domain analysis aggregates.
func (s *FlowSwarm) TakeBytes() uint64 {
	b := s.pendingBytes
	s.pendingBytes = 0
	return b
}

// randomAlive picks a uniformly random live member. Occupancy is high (kills
// excepted), so a few rejection draws nearly always suffice; the scan
// fallback keeps the worst case bounded.
func (s *FlowSwarm) randomAlive() int {
	n := len(s.addrs)
	for t := 0; t < 16; t++ {
		if i := s.rng.Intn(n); s.alive[i] {
			return i
		}
	}
	start := s.rng.Intn(n)
	for k := 0; k < n; k++ {
		if i := (start + k) % n; s.alive[i] {
			return i
		}
	}
	return -1
}

// AnnounceTrackers refreshes the swarm's tracker registrations: the first
// flowTrackerSample live members re-announce, rotating across the tracker set.
// Call on the full client's AnnounceInterval cadence.
func (s *FlowSwarm) AnnounceTrackers() {
	if len(s.trackers) == 0 {
		return
	}
	sent := 0
	for i := range s.alive {
		if sent >= flowTrackerSample {
			break
		}
		if !s.alive[i] {
			continue
		}
		trk := s.trackers[s.nextTrk%len(s.trackers)]
		s.nextTrk++
		s.port.Send(i, trk, wire.NewTrackerAnnounce(s.cfg.Spec.Channel, false))
		sent++
	}
}

// AnnounceLinks pushes a fresh buffer map over every live probe-facing link,
// mirroring the full client's periodic BufferMapAnnounce. Call on the
// BufferMapInterval cadence.
func (s *FlowSwarm) AnnounceLinks() {
	now := s.port.Now()
	for k := range s.links {
		l := &s.links[k]
		l.lastMap = now
		m := wire.NewBufferMapAnnounce(s.cfg.Spec.Channel)
		m.Buffer = s.bufferMapInto(m.Buffer.Words, int(l.member), now)
		s.port.Send(int(l.member), l.addr, m)
	}
}

// Handle processes a message delivered to member i. Flow members speak the
// probe-facing subset of the protocol with exactly the full client's
// semantics: handshake admission, referral gossip, and the three-way data
// reply (busy / decline-with-piggyback / serve).
func (s *FlowSwarm) Handle(i int, from netip.Addr, msg wire.Message) {
	if i < 0 || i >= len(s.alive) || !s.alive[i] {
		return
	}
	ch := s.cfg.Spec.Channel
	switch m := msg.(type) {
	case *wire.Handshake:
		if m.Channel != ch {
			return
		}
		now := s.port.Now()
		ack := wire.NewHandshakeAck(ch, false)
		if s.linkIndex(i, from) >= 0 || s.addLink(i, from, now) {
			ack.Accepted = true
			ack.Buffer = s.bufferMapInto(ack.Buffer.Words, i, now)
		}
		s.port.Send(i, from, ack)
	case *wire.PeerListRequest:
		if m.Channel != ch {
			return
		}
		reply := wire.NewPeerListReply(ch)
		reply.Peers = s.appendReferrals(reply.Peers, i, from)
		s.port.Send(i, from, reply)
	case *wire.DataRequest:
		if m.Channel != ch {
			return
		}
		s.handleDataRequest(i, from, m)
	case *wire.Ping:
		if m.Channel != ch {
			return
		}
		s.port.Send(i, from, wire.NewPong(ch, m.Nonce))
	}
	// TrackerResponse, BufferMapAnnounce, DataReply, and the rest are
	// ignored: flow members never fetch — their consumption is accounted at
	// flow level in Tick.
}

// linkIndex finds the link (member, addr), or -1.
func (s *FlowSwarm) linkIndex(i int, addr netip.Addr) int {
	for k := range s.links {
		if s.links[k].member == int32(i) && s.links[k].addr == addr {
			return k
		}
	}
	return -1
}

// addLink admits a probe-facing neighbor link if both the per-member and the
// global bound allow it.
func (s *FlowSwarm) addLink(i int, addr netip.Addr, now time.Duration) bool {
	if len(s.links) >= flowMaxLinks {
		return false
	}
	have := 0
	for k := range s.links {
		if s.links[k].member == int32(i) {
			have++
		}
	}
	if have >= flowLinksPerMember {
		return false
	}
	s.links = append(s.links, flowLink{member: int32(i), addr: addr, lastMap: now})
	return true
}

// appendReferrals appends member i's gossip reply to out: the live entries of
// its referral row, excluding the member's own row and the requester — a reply
// can never bounce the requester back to itself or hand out a departed
// member. A configured selection policy then reorders/clamps the appended
// survivors (RNG-free).
func (s *FlowSwarm) appendReferrals(out []netip.Addr, i int, requester netip.Addr) []netip.Addr {
	row := s.nbr[i*flowNbrWidth : (i+1)*flowNbrWidth]
	n := len(out)
	for _, j := range row {
		if int(j) == i || !s.alive[j] {
			continue
		}
		a := s.Addr(int(j))
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

// holdings returns the contiguous sub-piece interval member i holds at now.
func (s *FlowSwarm) holdings(i int, now time.Duration) (lo, hi uint64, ok bool) {
	edge := s.cfg.Spec.EdgeSeq(now)
	l := uint64(s.lag[i])
	if edge <= l {
		return 0, 0, false
	}
	hi = edge - l
	lo = 0
	if hi+1 > flowWindow {
		lo = hi + 1 - flowWindow
	}
	if j := s.joinSeq[i]; j > lo {
		lo = j
	}
	if lo > hi {
		return 0, 0, false
	}
	return lo, hi, true
}

// bufferMapInto materializes member i's holdings as a wire buffer map in
// words' storage (a recycled message's retained Words) when it is large
// enough. This is the only place the flat holdings become bitmap words, and
// it runs at probe-message cadence, not per member per tick.
func (s *FlowSwarm) bufferMapInto(words []uint64, i int, now time.Duration) wire.BufferMap {
	lo, hi, ok := s.holdings(i, now)
	if !ok {
		return wire.ResetBufferMap(words, s.cfg.Spec.EdgeSeq(now), 0)
	}
	bm := wire.ResetBufferMap(words, lo, int(hi-lo+1))
	bm.SetRange(lo, hi)
	return bm
}

// handleDataRequest mirrors the full client's serve path: shed under uplink
// backlog, decline misses with a rate-limited buffer-map piggyback, else
// serve the contiguous run from Seq capped at the requested count.
func (s *FlowSwarm) handleDataRequest(i int, from netip.Addr, m *wire.DataRequest) {
	ch := s.cfg.Spec.Channel
	pieceLen := uint16(s.cfg.Spec.SubPieceLen)
	if s.port.UplinkBacklog(i) > serveQueueLimit {
		s.port.Send(i, from, wire.NewDataReply(ch, m.Seq, 0, pieceLen, true))
		return
	}
	now := s.port.Now()
	lo, hi, ok := s.holdings(i, now)
	if !ok || m.Seq < lo || m.Seq > hi {
		s.port.Send(i, from, wire.NewDataReply(ch, m.Seq, 0, pieceLen, false))
		if k := s.linkIndex(i, from); k >= 0 && now-s.links[k].lastMap >= mapPiggybackMin {
			s.links[k].lastMap = now
			bm := wire.NewBufferMapAnnounce(ch)
			bm.Buffer = s.bufferMapInto(bm.Buffer.Words, i, now)
			s.port.Send(i, from, bm)
		}
		return
	}
	want := uint64(m.Count)
	if want == 0 {
		want = 1
	}
	run := hi - m.Seq + 1
	if run > want {
		run = want
	}
	s.port.Send(i, from, wire.NewDataReply(ch, m.Seq, uint16(run), pieceLen, false))
}
