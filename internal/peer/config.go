package peer

import (
	"fmt"
	"math"
	"net/netip"
	"time"

	"pplivesim/internal/selection"
	"pplivesim/internal/stream"
)

// Config controls one client's protocol behaviour. Defaults mirror the
// protocol facts the paper reverse-engineered (§2): 20-second neighbor
// peer-list gossip, five-minute tracker re-query once playback is
// satisfactory, ≤60-entry referral lists, and connect-as-soon-as-a-list-
// arrives neighbor selection.
type Config struct {
	// Channel is the live channel to join.
	Channel stream.Spec
	// Bootstrap is the bootstrap/channel server address (obtained via DNS in
	// the real client; the simulation hands it over directly).
	Bootstrap netip.Addr

	// StartupDelay is the playback buffering delay after the playlink is
	// resolved.
	StartupDelay time.Duration
	// BufferWindow is the playback ring capacity in sub-pieces.
	BufferWindow int

	// GossipInterval is how often the client queries neighbors for fresh
	// peer lists (the paper measures 20 s).
	GossipInterval time.Duration

	// TrackerIntervalStartup is the tracker re-query period before playback
	// is satisfactory.
	TrackerIntervalStartup time.Duration
	// TrackerIntervalSteady is the reduced tracker re-query period once
	// playback is satisfactory (the paper measures five minutes).
	TrackerIntervalSteady time.Duration
	// AnnounceInterval is how often the client re-announces itself to
	// trackers so its entry does not expire.
	AnnounceInterval time.Duration

	// MaxNeighbors caps the connected neighbor set.
	MaxNeighbors int
	// ConnectFanout is how many peers the client tries to connect to,
	// selected at random, from each received peer list.
	ConnectFanout int
	// MaxPending caps in-flight handshakes.
	MaxPending int
	// HandshakeTimeout expires unanswered handshakes so the pending window
	// cannot clog with departed peers.
	HandshakeTimeout time.Duration
	// ReferralSize caps the peer list returned to a requesting neighbor.
	ReferralSize int

	// BufferMapInterval is how often the client advertises its buffer map.
	BufferMapInterval time.Duration
	// HintFanout is how many random neighbors receive a Have hint when new
	// pieces arrive (0 disables hinting).
	HintFanout int
	// SchedInterval is the data-scheduler tick period.
	SchedInterval time.Duration
	// FetchLead bounds prefetch: the scheduler requests pieces at most this
	// far (in stream time) ahead of the playhead.
	FetchLead time.Duration
	// BatchCount is how many consecutive sub-pieces one data request covers.
	// Probe peers use 1 (full per-sub-piece fidelity, as in the captured
	// traces); background peers may batch for simulation efficiency.
	BatchCount int
	// MaxOutstandingPerNeighbor caps pipelined data requests per neighbor.
	MaxOutstandingPerNeighbor int
	// MaxOutstanding caps total in-flight data requests.
	MaxOutstanding int
	// RequestTimeout expires unanswered data requests for rescheduling.
	RequestTimeout time.Duration
	// SourcePrefetchProb is the probability that a non-urgent piece with no
	// mesh holder is prefetched from the source (seeding fresh pieces into
	// the mesh). Urgent pieces always may use the source.
	SourcePrefetchProb float64

	// NeighborSilence evicts a neighbor not heard from for this long.
	NeighborSilence time.Duration

	// LatencyBias enables connect-on-list-arrival semantics: handshakes go
	// out the moment a list arrives and free slots are claimed by the
	// earliest acks (so nearby peers win the race). Disabling it (ablation)
	// defers each handshake by a uniform random delay, destroying the
	// correlation between proximity and slot acquisition.
	LatencyBias bool
	// ReferralEnabled answers neighbor peer-list requests with recently
	// connected peers. Disabling it (ablation) returns empty lists, leaving
	// tracker responses as the only discovery channel, as in
	// tracker-centric systems.
	ReferralEnabled bool
	// PreferFastNeighbors weights data-request scheduling toward neighbors
	// with faster observed service. Disabling it schedules uniformly.
	PreferFastNeighbors bool

	// Selection shapes referral replies (the ReferralEnabled path). nil is
	// the legacy behaviour — recency order passed through untouched, zero
	// RNG draws — which the pinned golden digests depend on. Referral
	// shaping is deterministic for every policy (selection.Policy.Refer
	// never draws), so a biased policy here stays worker-count invariant.
	Selection selection.Policy

	// Resilient enables the fault-tolerance protocol extensions (see
	// resilience.go for their constants). Off, the client's event and RNG
	// trajectory is bit-identical to a build without the machinery — the
	// pinned golden digests depend on that, so core only turns it on for
	// scenarios with a fault schedule.
	Resilient bool
}

// serveQueueLimit is the uplink backlog past which a peer, full client or
// flow member, declines data requests Busy.
const serveQueueLimit = 2500 * time.Millisecond

// maxInflightSpan bounds the span, in sub-pieces, of a session's in-flight
// ring (session.inflight), 128 KiB of bits: the buffer window plus what the
// channel emits over RequestTimeout and one SchedInterval. The defaults need
// about 2 200 at the paper's bitrates.
const maxInflightSpan = 1 << 20

// DefaultConfig returns full-fidelity (probe-grade) client settings.
func DefaultConfig(spec stream.Spec, bootstrap netip.Addr) Config {
	return Config{
		Channel:                   spec,
		Bootstrap:                 bootstrap,
		StartupDelay:              20 * time.Second,
		BufferWindow:              2048,
		GossipInterval:            20 * time.Second,
		TrackerIntervalStartup:    30 * time.Second,
		TrackerIntervalSteady:     5 * time.Minute,
		AnnounceInterval:          time.Minute,
		MaxNeighbors:              28,
		ConnectFanout:             5,
		MaxPending:                12,
		HandshakeTimeout:          8 * time.Second,
		ReferralSize:              60,
		BufferMapInterval:         5 * time.Second,
		HintFanout:                6,
		SchedInterval:             250 * time.Millisecond,
		FetchLead:                 18 * time.Second,
		BatchCount:                1,
		MaxOutstandingPerNeighbor: 16,
		MaxOutstanding:            120,
		RequestTimeout:            2500 * time.Millisecond,
		SourcePrefetchProb:        0.015,
		NeighborSilence:           45 * time.Second,
		LatencyBias:               true,
		ReferralEnabled:           true,
		PreferFastNeighbors:       true,
	}
}

// BackgroundConfig returns coarse-fidelity settings for swarm-population
// peers: identical protocol, but data requests batch BatchCount sub-pieces
// and the scheduler ticks less often, cutting event volume roughly 16× while
// leaving bandwidth and queuing loads unchanged.
func BackgroundConfig(spec stream.Spec, bootstrap netip.Addr) Config {
	cfg := DefaultConfig(spec, bootstrap)
	cfg.SchedInterval = time.Second
	cfg.BatchCount = 8
	cfg.MaxOutstandingPerNeighbor = 6
	cfg.MaxOutstanding = 24
	return cfg
}

// Validate checks the configuration for usability.
func (c *Config) Validate() error {
	if err := c.Channel.Validate(); err != nil {
		return err
	}
	if !c.Bootstrap.IsValid() {
		return fmt.Errorf("peer: bootstrap address unset")
	}
	if c.BufferWindow <= 8 {
		return fmt.Errorf("peer: buffer window %d too small", c.BufferWindow)
	}
	if c.GossipInterval <= 0 || c.SchedInterval <= 0 || c.BufferMapInterval <= 0 || c.FetchLead <= 0 {
		return fmt.Errorf("peer: non-positive protocol interval")
	}
	if c.TrackerIntervalStartup <= 0 || c.TrackerIntervalSteady <= 0 || c.AnnounceInterval <= 0 {
		return fmt.Errorf("peer: non-positive tracker interval")
	}
	if c.MaxNeighbors <= 0 || c.ConnectFanout <= 0 || c.MaxPending <= 0 {
		return fmt.Errorf("peer: non-positive neighbor limits")
	}
	// The scheduler packs neighbor indices into 10 bits of its score-order
	// keys (see buildSchedPlan); the table can hold up to 2*MaxNeighbors.
	if c.MaxNeighbors > 512 {
		return fmt.Errorf("peer: max neighbors %d out of range (limit 512)", c.MaxNeighbors)
	}
	if c.ReferralSize <= 0 || c.ReferralSize > 255 {
		return fmt.Errorf("peer: referral size %d out of range", c.ReferralSize)
	}
	if c.BatchCount <= 0 || c.BatchCount > 64 {
		return fmt.Errorf("peer: batch count %d out of range", c.BatchCount)
	}
	if c.MaxOutstanding <= 0 || c.MaxOutstandingPerNeighbor <= 0 {
		return fmt.Errorf("peer: non-positive outstanding limits")
	}
	// A session's request table links its MaxOutstanding slots by int16
	// index (see session.reqs).
	if c.MaxOutstanding > math.MaxInt16 {
		return fmt.Errorf("peer: max outstanding %d out of range (limit %d)", c.MaxOutstanding, math.MaxInt16)
	}
	if c.RequestTimeout <= 0 || c.NeighborSilence <= 0 || c.HandshakeTimeout <= 0 {
		return fmt.Errorf("peer: non-positive timeout")
	}
	// Summed as seconds, so two huge intervals cannot overflow a Duration.
	linger := c.RequestTimeout.Seconds() + c.SchedInterval.Seconds()
	if span := float64(c.BufferWindow) + 64 + linger*c.Channel.Rate(); span > maxInflightSpan {
		return fmt.Errorf("peer: buffer window %d plus request timeout %v and scheduler interval %v at %.1f sub-pieces/s need an in-flight ring of %.0f sub-pieces (limit %d)",
			c.BufferWindow, c.RequestTimeout, c.SchedInterval, c.Channel.Rate(), span, maxInflightSpan)
	}
	return nil
}
