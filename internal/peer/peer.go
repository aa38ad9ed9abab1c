// Package peer implements the PPLive-style live-streaming client whose
// emergent behaviour the paper measures, plus the channel's stream source.
//
// The client follows the protocol the paper reverse-engineered (§2):
//
//  1. Contact the bootstrap server for the channel list, then the chosen
//     channel's playlink and tracker set (one tracker per group).
//  2. Query trackers for active peers, pick a random subset of each returned
//     list, and connect immediately.
//  3. On every new connection, first ask the new neighbor for its peer list,
//     then request video data.
//  4. Gossip with connected neighbors every 20 seconds, enclosing its own
//     peer list; repliers return up to 60 recently connected peers.
//  5. Once playback is satisfactory, cut tracker queries to every 5 minutes;
//     discovery then flows almost entirely through neighbor referral.
//
// No topology information is used anywhere. Locality emerges from the
// decentralized latency-based referral dynamics, which is the paper's
// central finding.
//
// A client is a viewer, not a channel: all channel-scoped protocol state
// (buffer, neighbor table, scheduler plan, tracker timers) lives in a
// per-channel session (see session.go), and the client routes incoming
// messages to the owning session by wire.ChannelID. Switch tears one session
// down — withdrawing its tracker registrations — and joins the next channel
// directly, which is how the workload layer models the paper's
// channel-browsing viewers (§5).
package peer

import (
	"fmt"
	"math/bits"
	"net/netip"
	"slices"
	"time"

	"pplivesim/internal/node"
	"pplivesim/internal/stream"
	"pplivesim/internal/wire"
)

// Phase is the client lifecycle stage.
type Phase int

// Lifecycle stages.
const (
	PhaseInit      Phase = iota + 1 // created, not started
	PhaseBootstrap                  // resolving channel list / playlink
	PhaseStartup                    // joined, filling the buffer
	PhaseSteady                     // playback satisfactory
	PhaseStopped                    // left the channel
)

// String returns the phase name.
func (p Phase) String() string {
	switch p {
	case PhaseInit:
		return "init"
	case PhaseBootstrap:
		return "bootstrap"
	case PhaseStartup:
		return "startup"
	case PhaseSteady:
		return "steady"
	case PhaseStopped:
		return "stopped"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// neighbor tracks one connected peer.
type neighbor struct {
	addr      netip.Addr
	connected time.Duration // when the connection was established
	lastHeard time.Duration
	buffer    wire.BufferMap
	bufferAt  time.Duration // when the buffer map was received
	bufferMax uint64        // highest piece set in the map
	bufferAny bool          // whether the map had any piece at all

	// outstanding holds the in-flight requests to this neighbor. The count is
	// capped (MaxOutstandingPerNeighbor) and small, so a flat slice with
	// linear lookup beats a map on every path that touches it.
	outstanding []pendingReq

	// planIdx is this neighbor's row in the current scheduler plan (see
	// sched.go), -1 when not part of it (the source, or before any tick).
	planIdx int

	// Hardening state (cfg.Resilient): consecutive request timeouts, the
	// deadline before which the scheduler must not retry this neighbor, and
	// the last keepalive ping sent. All stay zero when resilience is off.
	failStreak   int
	backoffUntil time.Duration
	lastPing     time.Duration

	// Service quality estimation. score is an EWMA of data response times;
	// minRTT is the fastest application-level response observed, the same
	// estimator the paper's analysis uses for proximity.
	score    time.Duration
	minRTT   time.Duration
	requests uint64
	replies  uint64
	bytes    uint64
}

// pendingReq tracks one outstanding data request (a batch of count
// consecutive sub-pieces starting at seq).
type pendingReq struct {
	seq   uint64
	at    time.Duration
	count int
}

// findOutstanding returns the index of the request keyed by seq, or -1.
func (nb *neighbor) findOutstanding(seq uint64) int {
	for i := range nb.outstanding {
		if nb.outstanding[i].seq == seq {
			return i
		}
	}
	return -1
}

// setBuffer stores a freshly announced buffer map, precomputing the highest
// announced piece for live-edge extrapolation.
func (nb *neighbor) setBuffer(bm wire.BufferMap, at time.Duration) {
	// Copy the bitmap: announce messages are shared across receivers in the
	// simulated transport, and learnHas mutates our view. The backing array
	// is reused across announce rounds.
	nb.buffer = wire.BufferMap{
		Start:   bm.Start,
		Words:   append(nb.buffer.Words[:0], bm.Words...),
		ByteLen: bm.ByteLen,
	}
	nb.bufferAt = at
	nb.bufferAny = false
	nb.bufferMax = 0
	for i := len(bm.Words) - 1; i >= 0; i-- {
		w := bm.Words[i]
		if w == 0 {
			continue
		}
		nb.bufferMax = bm.Start + uint64(i*64+bits.Len64(w)-1)
		nb.bufferAny = true
		break
	}
}

// knowledgeWindow is the coverage span (in sub-pieces) we track per
// neighbor when proofs outrun the announced map.
const knowledgeWindow = 2048

// learnHas records proof (a data reply or Have hint) that the neighbor held
// pieces [lo, hi], marking them into our view of its map. If the proof falls
// beyond the tracked window — hints race ahead of periodic announcements on
// a live stream — the window is re-anchored around the new high-water mark,
// preserving whatever old knowledge still overlaps. The new window leaves
// slack above hi so the re-anchor amortizes: at the live edge every fresh
// Have lands past the window end, and without slack each one would trigger
// a full rebuild.
func (nb *neighbor) learnHas(lo, hi uint64, at time.Duration) {
	if nb.buffer.Words == nil || hi >= nb.buffer.Start+nb.buffer.Window() {
		const slack = knowledgeWindow / 4
		start := uint64(0)
		if hi+1+slack > knowledgeWindow {
			// Keep start byte-aligned: the wire format's window granularity,
			// so re-anchoring never shifts which sequences the window can
			// describe relative to an announced map.
			start = (hi + 1 + slack - knowledgeWindow) &^ 7
		}
		fresh := wire.MakeBufferMap(start, knowledgeWindow)
		if nb.buffer.Words != nil {
			for w := range fresh.Words {
				fresh.Words[w] = nb.buffer.WordAt(start + uint64(w)*64)
			}
		}
		nb.buffer = fresh
	}
	nb.buffer.SetRange(lo, hi)
	if !nb.bufferAny || hi > nb.bufferMax {
		nb.bufferMax = hi
		nb.bufferAny = true
		nb.bufferAt = at
	}
}

// covers reports whether the neighbor is known to hold sub-piece seq:
// announced in its last buffer map or proven by a data reply since. Assumed
// (extrapolated) coverage is deliberately absent — swarms with holes turn
// optimism into decline storms; knowledge here is only what the neighbor
// actually demonstrated.
func (nb *neighbor) covers(seq uint64) bool {
	return nb.buffer.Has(seq)
}

// akey packs an IPv4 address into the uint32 key used by the per-datagram
// maps. The simulation's address plan is IPv4-only; the zero Addr (source
// unset during bootstrap) folds to 0, which ipam never allocates.
func akey(a netip.Addr) uint32 {
	if !a.Is4() {
		return 0
	}
	b := a.As4()
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// Client is one PPLive-style viewer: a set of per-channel sessions plus the
// cross-channel identity (address, config, protocol counters).
type Client struct {
	env node.Env
	cfg Config

	// prefetch16 is cfg.SourcePrefetchProb quantized to the 16-bit scale the
	// scheduler's batched RNG consumes (see randbits.go).
	prefetch16 uint32

	// sessions holds one session per joined channel; order preserves join
	// order so every cross-session iteration is deterministic (map range
	// order is randomized in Go). active is the session currently being
	// watched — exactly one for a viewer, but Join allows background
	// sessions to coexist.
	sessions map[wire.ChannelID]*session
	order    []wire.ChannelID
	active   *session

	started    bool
	stopped    bool
	everJoined bool // at least one session completed bootstrap contact

	// closedStats accumulates playback counters from sessions already left,
	// so BufferStats spans the whole viewing history across switches.
	closedStats stream.Stats

	// emitRequest, when set, replaces the wire send for scheduled data
	// requests; benchmarks use it to measure scheduling cost without the
	// message-construction cost. All bookkeeping still runs.
	emitRequest func(to netip.Addr, seq uint64, count int)

	stats Stats

	// timeToSteady is the startup delay: elapsed simulated time from the
	// first session's bootstrap contact to the first steady-phase
	// transition. steadySeen latches it (channel switches don't overwrite).
	timeToSteady time.Duration
	steadySeen   bool

	// onStopped, if set, runs after Stop completes (used by orchestration).
	onStopped func()
}

// Stats counts client-side protocol activity across all sessions.
type Stats struct {
	TrackerQueries       uint64
	GossipSent           uint64
	GossipReplies        uint64
	ListsReceived        uint64
	AddrsLearned         uint64
	HandshakesSent       uint64
	HandshakesAccepted   uint64
	HandshakesRejected   uint64
	HandshakeTimeouts    uint64
	InboundAccepted      uint64
	InboundRejected      uint64
	DataRequestsSent     uint64
	DataRepliesGot       uint64
	DataNoHaves          uint64
	DataBusies           uint64
	DataBytesGot         uint64
	DataRequestsServed   uint64
	DataRequestsDeclined uint64
	DataRequestsShed     uint64
	RequestTimeouts      uint64
	ChannelSwitches      uint64
	PingsSent            uint64
	KeepaliveEvictions   uint64
	TrackerFailures      uint64
}

// New creates a client bound to env. Call Start to join the initial channel.
func New(env node.Env, cfg Config) (*Client, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Client{
		env:        env,
		cfg:        cfg,
		prefetch16: prob16(cfg.SourcePrefetchProb),
		sessions:   make(map[wire.ChannelID]*session),
	}, nil
}

// pendingShake is one outstanding handshake.
type pendingShake struct {
	key uint32
	at  time.Duration
}

var _ node.Handler = (*Client)(nil)

// Phase returns the current lifecycle stage of the active session.
func (c *Client) Phase() Phase {
	switch {
	case c.stopped:
		return PhaseStopped
	case c.active != nil:
		return c.active.phase
	case c.started:
		return PhaseBootstrap
	default:
		return PhaseInit
	}
}

// Addr returns the client's address.
func (c *Client) Addr() netip.Addr { return c.env.Addr() }

// Stats returns a snapshot of protocol counters.
func (c *Client) Stats() Stats { return c.stats }

// TimeToSteady reports the startup delay — simulated time from first
// bootstrap contact to the first steady-phase transition — and whether the
// client ever reached steady state.
func (c *Client) TimeToSteady() (time.Duration, bool) {
	return c.timeToSteady, c.steadySeen
}

// BufferStats returns playback buffer counters summed across every session
// the client has held, including channels already left.
func (c *Client) BufferStats() stream.Stats {
	out := c.closedStats
	for _, ch := range c.order {
		if s := c.sessions[ch]; s.buffer != nil {
			out = out.Add(s.buffer.Stats())
		}
	}
	return out
}

// NumNeighbors returns the connected neighbor count across sessions.
func (c *Client) NumNeighbors() int {
	n := 0
	for _, ch := range c.order {
		n += len(c.sessions[ch].neighbors)
	}
	return n
}

// Neighbors returns the connected neighbor addresses: per session in join
// order, the source first (if connected) then the maintained sorted order.
// Iterating the neighbor maps here would leak Go's randomized map order into
// caller behaviour.
func (c *Client) Neighbors() []netip.Addr {
	var out []netip.Addr
	for _, ch := range c.order {
		s := c.sessions[ch]
		if s.source.IsValid() {
			if nb, ok := s.neighbors[akey(s.source)]; ok {
				out = append(out, nb.addr)
			}
		}
		out = append(out, s.sortedCache...)
	}
	return out
}

// SetOnStopped registers a callback invoked after Stop.
func (c *Client) SetOnStopped(fn func()) { c.onStopped = fn }

// Start begins the join flow for the configured initial channel: contact the
// bootstrap server. In the real client this is preceded by DNS queries for
// the server addresses; the simulation provides the bootstrap address
// directly.
func (c *Client) Start() {
	if c.started || c.stopped {
		return
	}
	c.started = true
	c.join(c.cfg.Channel, false)
}

// Join opens a session on spec's channel (no-op if already joined) and makes
// it the active one. The first join walks the full bootstrap exchange; later
// joins request the playlink directly, as the real client does once it holds
// the channel directory.
func (c *Client) Join(spec stream.Spec) {
	if c.stopped {
		return
	}
	c.started = true
	c.join(spec, c.everJoined)
}

func (c *Client) join(spec stream.Spec, direct bool) {
	if s, ok := c.sessions[spec.Channel]; ok {
		c.active = s
		return
	}
	c.everJoined = true
	s := newSession(c, spec)
	c.sessions[spec.Channel] = s
	c.order = append(c.order, spec.Channel)
	c.active = s
	s.start(direct)
}

// Leave closes the session on ch: withdraw its tracker registrations, disarm
// its timers, and tear down its neighbor table. No-op if not joined.
func (c *Client) Leave(ch wire.ChannelID) { c.closeSession(ch, true) }

// closeSession tears down the session on ch and folds its playback counters
// into closedStats. announce=false is a crash: no Leaving withdrawals go out
// (see session.shutdown).
func (c *Client) closeSession(ch wire.ChannelID, announce bool) {
	s, ok := c.sessions[ch]
	if !ok {
		return
	}
	s.shutdown(announce)
	delete(c.sessions, ch)
	if i := slices.Index(c.order, ch); i >= 0 {
		c.order = slices.Delete(c.order, i, i+1)
	}
	if c.active == s {
		c.active = nil
	}
	if s.buffer != nil {
		c.closedStats = c.closedStats.Add(s.buffer.Stats())
	}
}

// Switch changes channels: leave the active session and join spec directly,
// skipping the channel-list exchange (the viewer already browsed the
// directory). No-op if spec is already the active channel.
func (c *Client) Switch(spec stream.Spec) {
	if c.stopped || !c.started {
		return
	}
	if c.active != nil {
		if c.active.spec.Channel == spec.Channel {
			return
		}
		c.Leave(c.active.spec.Channel)
	}
	c.stats.ChannelSwitches++
	c.join(spec, true)
}

// Stop leaves every channel and retires the client permanently.
func (c *Client) Stop() { c.retire(true) }

// Kill retires the client as an abrupt crash: every session is torn down
// locally — timers disarmed, neighbor state dropped — but nothing is sent, so
// trackers and neighbors only learn of the death through timeouts. This is
// the fault-injection analogue of Stop.
func (c *Client) Kill() { c.retire(false) }

func (c *Client) retire(announce bool) {
	if c.stopped {
		return
	}
	for _, ch := range slices.Clone(c.order) {
		c.closeSession(ch, announce)
	}
	c.stopped = true
	if c.onStopped != nil {
		c.onStopped()
	}
}

// HandleMessage implements node.Handler: route the message to the session
// owning its channel. Messages for channels the client has left (or never
// joined) are dropped, which is what makes Leave a clean de-registration —
// late replies and stale gossip from the old swarm cannot resurrect state.
// Message types a client has no handler for are dropped too.
func (c *Client) HandleMessage(from netip.Addr, msg wire.Message) {
	if c.stopped {
		return
	}
	switch m := msg.(type) {
	case *wire.ChannelListResponse: // the one channel-less message
		for _, ch := range c.order {
			c.sessions[ch].handleChannelList(m)
		}
	case *wire.PlaylinkResponse:
		if s := c.sessions[m.Channel]; s != nil {
			s.handlePlaylink(m)
		}
	case *wire.TrackerResponse:
		if s := c.sessions[m.Channel]; s != nil {
			s.handleTrackerResponse(from, m)
		}
	case *wire.Handshake:
		if s := c.sessions[m.Channel]; s != nil {
			s.handleHandshake(from, m)
		}
	case *wire.HandshakeAck:
		if s := c.sessions[m.Channel]; s != nil {
			s.handleHandshakeAck(from, m)
		}
	case *wire.PeerListRequest:
		if s := c.sessions[m.Channel]; s != nil {
			s.handlePeerListRequest(from, m)
		}
	case *wire.PeerListReply:
		if s := c.sessions[m.Channel]; s != nil {
			s.handlePeerListReply(from, m)
		}
	case *wire.BufferMapAnnounce:
		if s := c.sessions[m.Channel]; s != nil {
			s.handleBufferMap(from, m)
		}
	case *wire.DataRequest:
		if s := c.sessions[m.Channel]; s != nil {
			s.handleDataRequest(from, m)
		}
	case *wire.DataReply:
		if s := c.sessions[m.Channel]; s != nil {
			s.handleDataReply(from, m)
		}
	case *wire.Have:
		if s := c.sessions[m.Channel]; s != nil {
			s.handleHave(from, m)
		}
	case *wire.Ping:
		if s := c.sessions[m.Channel]; s != nil {
			s.handlePing(from, m)
		}
	case *wire.Pong:
		if s := c.sessions[m.Channel]; s != nil {
			s.handlePong(from, m)
		}
	}
}

// neighborRTTEstimate is the latency yardstick for replacement decisions:
// the measured minimum response time when available, otherwise a neutral
// default so unmeasured neighbors are replaceable but not free kills.
func neighborRTTEstimate(nb *neighbor) time.Duration {
	if nb.minRTT > 0 {
		return nb.minRTT
	}
	return 400 * time.Millisecond
}

// score orders neighbors by expected service time; never-measured neighbors
// rank in the middle so they get tried.
func score(nb *neighbor) time.Duration {
	if nb.score == 0 {
		return 500 * time.Millisecond
	}
	return nb.score
}

func ewma(old, sample time.Duration) time.Duration {
	if old == 0 {
		return sample
	}
	const alpha = 0.25
	return time.Duration((1-alpha)*float64(old) + alpha*float64(sample))
}
