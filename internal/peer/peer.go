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
// A client is a viewer, not a channel: it watches one channel at a time, and
// all channel-scoped protocol state (buffer, neighbor table, scheduler plan,
// tracker timers) lives in that channel's session (see session.go). Messages
// for any other channel are dropped. Switch tears the session down —
// withdrawing its tracker registrations — and joins the next channel
// directly, which is how the workload layer models the paper's
// channel-browsing viewers (§5).
package peer

import (
	"fmt"
	"math/bits"
	"net/netip"
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
	origin    originKind    // meshPeer, or which origin this entry is
	// reqHead and reqTail are the oldest and the newest of this neighbor's
	// in-flight requests, slots of its session's request table
	// (session.reqs); the chain between them runs through the slots' next
	// links in booking order. reqHead is -1 when there are none, and reqTail
	// is then stale. reqCount is the chain's length, capped at
	// MaxOutstandingPerNeighbor. All three sit in the padding after origin,
	// so the neighbor holds no request storage of its own.
	reqHead  int16
	reqTail  int16
	reqCount uint16

	// planIdx is this neighbor's row in the current scheduler plan (see
	// sched.go), -1 when not part of it (an origin, or before any tick).
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

// originKind tells a session's origins — the CDN edges and the channel
// source, in the neighbor table but never in the mesh order — from the mesh
// neighbors.
type originKind uint8

const (
	meshPeer     originKind = iota // a regular neighbor
	originEdge                     // a CDN edge cache
	originSource                   // the channel's source
)

// pendingReq tracks one outstanding data request (a batch of count
// consecutive sub-pieces starting at seq), as one slot of its session's
// request table. next links the slot into its neighbor's chain, or into the
// table's free chain, -1 at the end of either.
type pendingReq struct {
	seq   uint64
	at    time.Duration
	next  int16
	count uint16
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
		// The new words are gathered on the stack, so the map can take them
		// in its own storage.
		var fresh [knowledgeWindow / 64]uint64
		for w := range fresh {
			fresh[w] = nb.buffer.WordAt(start + uint64(w)*64)
		}
		nb.buffer = wire.ResetBufferMap(nb.buffer.Words, start, knowledgeWindow)
		copy(nb.buffer.Words, fresh[:])
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

// Client is one PPLive-style viewer: the session on the channel it watches,
// plus the identity that outlives channel switches (address, config, protocol
// counters).
type Client struct {
	env node.Env
	cfg Config

	// prefetch16 is cfg.SourcePrefetchProb quantized to the 16-bit scale the
	// scheduler's batched RNG consumes (see randbits.go).
	prefetch16 uint32

	// active is the session on the watched channel: nil before Start, set by
	// Start, replaced by Switch, nil again once stopped.
	active  *session
	stopped bool

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
	if c.active != nil && c.active.buffer != nil {
		out = out.Add(c.active.buffer.Stats())
	}
	return out
}

// NumNeighbors returns the size of the active session's neighbor table: the
// mesh neighbors plus the source and any CDN edges.
func (c *Client) NumNeighbors() int {
	if c.active == nil {
		return 0
	}
	return len(c.active.neighbors)
}

// SetOnStopped registers a callback invoked after Stop.
func (c *Client) SetOnStopped(fn func()) { c.onStopped = fn }

// Start begins the join flow for the configured initial channel: contact the
// bootstrap server. In the real client this is preceded by DNS queries for
// the server addresses; the simulation provides the bootstrap address
// directly.
func (c *Client) Start() {
	if c.active != nil || c.stopped {
		return
	}
	c.open(c.cfg.Channel, false)
}

// open makes a new session on spec's channel the active one and starts its
// join flow; direct skips the channel-list exchange.
func (c *Client) open(spec stream.Spec, direct bool) {
	c.active = newSession(c, spec)
	c.active.start(direct)
}

// closeActive tears down the active session and folds its playback counters
// into closedStats. announce=false is a crash: no Leaving withdrawals go out
// (see session.shutdown).
func (c *Client) closeActive(announce bool) {
	s := c.active
	if s == nil {
		return
	}
	s.shutdown(announce)
	c.active = nil
	if s.buffer != nil {
		c.closedStats = c.closedStats.Add(s.buffer.Stats())
	}
}

// Switch changes channels: leave the active session and join spec directly,
// skipping the channel-list exchange (the viewer already browsed the
// directory). No-op if spec is already the active channel, before Start, and
// after Stop.
func (c *Client) Switch(spec stream.Spec) {
	if c.active == nil || c.active.spec.Channel == spec.Channel {
		return
	}
	c.closeActive(true)
	c.stats.ChannelSwitches++
	c.open(spec, true)
}

// Stop leaves the channel and retires the client permanently.
func (c *Client) Stop() { c.retire(true) }

// Kill retires the client as an abrupt crash: the session is torn down
// locally — timers disarmed, neighbor state dropped — but nothing is sent, so
// trackers and neighbors only learn of the death through timeouts. This is
// the fault-injection analogue of Stop.
func (c *Client) Kill() { c.retire(false) }

func (c *Client) retire(announce bool) {
	if c.stopped {
		return
	}
	c.closeActive(announce)
	c.stopped = true
	if c.onStopped != nil {
		c.onStopped()
	}
}

// HandleMessage implements node.Handler: hand the message to the active
// session if it is for the session's channel. Messages for a channel the
// client has left (or never joined) are dropped, which is what makes leaving
// a clean de-registration — late replies and stale gossip from the old swarm
// cannot resurrect state. So is everything before Start or after Stop, and
// every message type a client has no handler for.
func (c *Client) HandleMessage(from netip.Addr, msg wire.Message) {
	s := c.active
	if s == nil {
		return
	}
	ch := s.spec.Channel
	switch m := msg.(type) {
	case *wire.ChannelListResponse: // the one channel-less message
		s.handleChannelList(m)
	case *wire.PlaylinkResponse:
		if m.Channel == ch {
			s.handlePlaylink(m)
		}
	case *wire.TrackerResponse:
		if m.Channel == ch {
			s.handleTrackerResponse(from, m)
		}
	case *wire.Handshake:
		if m.Channel == ch {
			s.handleHandshake(from, m)
		}
	case *wire.HandshakeAck:
		if m.Channel == ch {
			s.handleHandshakeAck(from, m)
		}
	case *wire.PeerListRequest:
		if m.Channel == ch {
			s.handlePeerListRequest(from, m)
		}
	case *wire.PeerListReply:
		if m.Channel == ch {
			s.handlePeerListReply(from, m)
		}
	case *wire.BufferMapAnnounce:
		if m.Channel == ch {
			s.handleBufferMap(from, m)
		}
	case *wire.DataRequest:
		if m.Channel == ch {
			s.handleDataRequest(from, m)
		}
	case *wire.DataReply:
		if m.Channel == ch {
			s.handleDataReply(from, m)
		}
	case *wire.Have:
		if m.Channel == ch {
			s.handleHave(from, m)
		}
	case *wire.Ping:
		if m.Channel == ch {
			s.handlePing(from, m)
		}
	case *wire.Pong:
		if m.Channel == ch {
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
