package peer

import (
	"net/netip"
	"time"

	"pplivesim/internal/node"
	"pplivesim/internal/stream"
	"pplivesim/internal/wire"
)

// Source is a channel's origin server: it holds every sub-piece up to the
// live edge and serves data requests (its Origin), acting as the injection
// point and the provider of last resort. Like PPLive's seed servers it also
// answers peer-list requests with its recently seen clients, which seeds the
// very first overlay edges of a young channel.
type Source struct {
	env    node.Env
	origin *Origin

	// recent tracks recently seen client addresses for referral.
	recent    []netip.Addr
	recentIdx map[netip.Addr]bool
	maxRecent int

	// down marks the source as crashed: every inbound datagram is dropped
	// (UDP-style — the process is gone, nothing answers). Fault injection
	// toggles it; the stream clock keeps running so the live edge is where it
	// should be when the process comes back.
	down bool
}

// NewSource creates a source for the channel, live since the current
// instant.
func NewSource(env node.Env, spec stream.Spec) (*Source, error) {
	origin, err := NewOrigin(env, spec)
	if err != nil {
		return nil, err
	}
	return &Source{
		env:       env,
		origin:    origin,
		recentIdx: make(map[netip.Addr]bool),
		maxRecent: wire.MaxPeerList,
	}, nil
}

var _ node.Handler = (*Source)(nil)

// Addr returns the source's address.
func (s *Source) Addr() netip.Addr { return s.env.Addr() }

// Spec returns the channel spec.
func (s *Source) Spec() stream.Spec { return s.origin.Spec() }

// Has reports whether the source can serve sub-piece seq at now.
func (s *Source) Has(seq uint64, now time.Duration) bool {
	return seq <= s.origin.Edge(now)
}

// Stats reports data requests served and payload bytes sent.
func (s *Source) Stats() (served, servedBytes uint64) {
	served, servedBytes, _ = s.origin.Stats()
	return served, servedBytes
}

// SetDown toggles the crashed state; while down the source drops all inbound
// traffic.
func (s *Source) SetDown(down bool) { s.down = down }

// note records a client contact for referral.
func (s *Source) note(a netip.Addr) {
	if s.recentIdx[a] {
		return
	}
	s.recentIdx[a] = true
	s.recent = append(s.recent, a)
	if len(s.recent) > s.maxRecent {
		evicted := s.recent[0]
		s.recent = s.recent[1:]
		delete(s.recentIdx, evicted)
	}
}

// HandleMessage implements node.Handler.
func (s *Source) HandleMessage(from netip.Addr, msg wire.Message) {
	if s.down {
		return
	}
	switch m := msg.(type) {
	case *wire.PeerListRequest:
		if m.Channel != s.origin.spec.Channel {
			return
		}
		s.note(from)
		reply := wire.NewPeerListReply(m.Channel)
		for _, a := range s.recent {
			if a != from {
				reply.Peers = append(reply.Peers, a)
			}
		}
		s.env.Send(from, reply)
	case *wire.Ping:
		// A keepalive is not a client contact: it earns no referral entry.
		s.origin.Serve(from, msg)
	default:
		if s.origin.Serve(from, msg) {
			s.note(from)
		}
	}
}
