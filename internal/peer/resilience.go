package peer

import (
	"net/netip"
	"time"

	"pplivesim/internal/wire"
)

// Hardening layer (cfg.Resilient): retry backoff, keepalive failure
// detection, tracker outage backoff, and source-failure degradation. Every
// path here is dormant unless cfg.Resilient — the benign trajectory (events
// sent, RNG draws, timers armed) must stay bit-identical to a build without
// this file, which the pinned golden digests enforce. Deliberate randomness
// (retry jitter) is hash-derived from stable keys, never drawn from the
// session RNG, so chaos runs stay worker-count invariant too.
//
// CDN edge failure handling (session.expireNeighbor) shares the retry
// backoff and the failure threshold, and runs whenever edges are deployed.
const (
	// retryBackoff is the first delay after a failure: an unanswered playlink
	// request, a timed-out data request to a neighbor or an edge. Repeated
	// failures double it up to retryBackoffMax, with deterministic jitter.
	retryBackoff    = 2 * time.Second
	retryBackoffMax = 30 * time.Second

	// keepaliveInterval is the ping cadence toward neighbors that have been
	// silent for keepaliveIdle; a neighbor silent for keepaliveDead despite
	// pings is evicted as failed (much faster than NeighborSilence).
	keepaliveInterval = 5 * time.Second
	keepaliveIdle     = 10 * time.Second
	keepaliveDead     = 15 * time.Second

	// trackerBackoff delays re-queries to a tracker whose last query went
	// unanswered, doubling per consecutive failure up to trackerBackoffMax.
	trackerBackoff    = 15 * time.Second
	trackerBackoffMax = 4 * time.Minute

	// failThreshold is how many consecutive request timeouts mark a provider
	// presumed dead: the source turns suspect, an edge is purged.
	failThreshold = 3
	// urgentWidenFactor widens the urgent window while the source is
	// suspect, re-enabling any-neighbor (inter-ISP) fallback for urgent
	// pieces instead of stalling on the dead source.
	urgentWidenFactor = 3
	// sourceProbeEvery is how often (in scheduler picks that would have gone
	// to the source) a suspect source is probed so recovery is noticed.
	sourceProbeEvery = 16

	// reannounceFloor triggers an immediate tracker re-query when keepalive
	// eviction shrinks the neighbor table below this many entries.
	reannounceFloor = 6
)

// trackerHealth tracks one tracker's query outcomes for outage backoff.
type trackerHealth struct {
	pending      bool // a query went out and no response has arrived
	failStreak   int
	backoffUntil time.Duration
}

// splitmix64 is the finalizer of the splitmix64 generator: a cheap stateless
// mix for deterministic jitter.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// backoffDelay returns the capped exponential delay for the given consecutive
// failure streak plus a deterministic jitter in [0, delay/4], derived from
// the (key, streak) pair so simultaneous failures across many peers do not
// retry in lockstep.
func backoffDelay(base, maxDelay time.Duration, streak int, key uint32) time.Duration {
	d := base
	for i := 1; i < streak && d < maxDelay; i++ {
		d *= 2
	}
	if d > maxDelay {
		d = maxDelay
	}
	j := splitmix64(uint64(key)<<32 | uint64(uint32(streak)))
	return d + time.Duration(j%uint64(d/4+1))
}

// keepaliveTick pings neighbors that have gone quiet and evicts the ones that
// stayed silent through the ping window — detecting crashed neighbors in
// ~keepaliveDead instead of the long gossip silence bound. Armed only for
// resilient sessions (handlePlaylink).
func (s *session) keepaliveTick() {
	if s.buffer == nil {
		return
	}
	now := s.env.Now()
	victims := s.evictScratch[:0]
	for _, nb := range s.sortedNbs {
		idle := now - nb.lastHeard
		if idle > keepaliveDead && nb.lastPing > nb.lastHeard {
			// Pinged since we last heard from it and still nothing: dead.
			victims = append(victims, nb.addr)
			continue
		}
		if idle >= keepaliveIdle && now-nb.lastPing >= keepaliveInterval {
			nb.lastPing = now
			s.c.stats.PingsSent++
			s.env.Send(nb.addr, wire.NewPing(s.spec.Channel, uint32(now/time.Millisecond)))
		}
	}
	for _, a := range victims {
		s.c.stats.KeepaliveEvictions++
		s.dropNeighbor(a)
		// A keepalive eviction is positive evidence of death, not mere
		// silence: purge the peer from the referral source too, so it is
		// never handed out in future peer-list replies.
		s.forgetRecent(a)
	}
	s.evictScratch = victims[:0]
	// A shrunken mesh cannot wait for the periodic tracker round: re-announce
	// and re-query immediately (per-tracker backoff still applies, so a dead
	// tracker is not hammered).
	if len(victims) > 0 && len(s.sortedNbs) < reannounceFloor {
		s.announceTrackers(false)
		s.queryTrackers()
	}
}

func (s *session) handlePing(from netip.Addr, m *wire.Ping) {
	if s.buffer == nil {
		return
	}
	if nb, ok := s.neighbors[akey(from)]; ok {
		nb.lastHeard = s.env.Now()
	}
	s.env.Send(from, wire.NewPong(m.Channel, m.Nonce))
}

func (s *session) handlePong(from netip.Addr, m *wire.Pong) {
	if nb, ok := s.neighbors[akey(from)]; ok {
		nb.lastHeard = s.env.Now()
	}
}

// sourceSuspect reports whether the source has missed enough consecutive
// requests to be presumed down.
func (s *session) sourceSuspect() bool {
	return s.cfg.Resilient && s.srcFails >= failThreshold
}

// optimisticFallback picks the best-scored available neighbor whose
// extrapolated live edge plausibly covers seq, ignoring the proven-coverage
// rule. Used only for urgent pieces while the source is suspect: a wrong
// guess costs a tiny no-have reply, stalling costs playback — and it re-opens
// inter-ISP paths that locality concentration had idled, which is exactly the
// degraded-mode behaviour the locality-vs-resilience experiments measure.
func (s *session) optimisticFallback(seq uint64, now time.Duration) *neighbor {
	rate := s.spec.Rate()
	for _, key := range s.planOrder {
		nb := s.sortedNbs[int(key&1023)]
		if int(nb.reqCount) >= s.cfg.MaxOutstandingPerNeighbor || nb.backoffUntil > now {
			continue
		}
		if !nb.bufferAny {
			continue
		}
		est := nb.bufferMax + uint64(float64(now-nb.bufferAt)*rate/float64(time.Second))
		if est >= seq {
			return nb
		}
	}
	return nil
}
