// Package cdn implements the hybrid CDN+P2P layer: per-ISP edge caches with
// a finite uplink budget that absorb urgent-window misses the swarm would
// otherwise push onto the single channel source.
//
// An Edge runs the channel source's own data plane (peer.Origin) — it serves
// prefix runs up to the live edge and sheds with tiny Busy replies once its
// uplink backs up — so an overloaded edge degrades exactly like an overloaded
// origin and the peer-side fallback machinery (PR 1) needs no new message
// types. Unlike the source, one edge serves every channel of the deployment
// (a real edge cache is channel-agnostic), and its ingest is out of band: the
// edge's stream clock keeps advancing through a source crash, which is what
// makes edge takeover work.
package cdn

import (
	"fmt"
	"net/netip"
	"time"

	"pplivesim/internal/isp"
	"pplivesim/internal/node"
	"pplivesim/internal/peer"
	"pplivesim/internal/stream"
	"pplivesim/internal/wire"
)

// DefaultUplinkBps is the uplink budget of one edge cache when a placement
// does not specify one: 4 MB/s, roughly 30× a residential peer but far below
// the provisioned origin — enough that a flash crowd saturates it and the
// Busy-shedding path is exercised.
const DefaultUplinkBps = 4 << 20

// Placement provisions the edge caches of one ISP.
type Placement struct {
	ISP   isp.ISP
	Count int // number of edge caches in this ISP
	// UplinkBps is each edge's access uplink in bytes/sec; zero means
	// DefaultUplinkBps.
	UplinkBps float64
}

// Config describes a scenario's CDN deployment. The zero value (no
// placements) means no edges anywhere — legacy pure-P2P behavior.
type Config struct {
	Placements []Placement
}

// Enabled reports whether the deployment provisions at least one edge.
func (c *Config) Enabled() bool {
	if c == nil {
		return false
	}
	for _, p := range c.Placements {
		if p.Count > 0 {
			return true
		}
	}
	return false
}

// Validate checks the deployment description.
func (c *Config) Validate() error {
	if c == nil {
		return nil
	}
	seen := map[isp.ISP]bool{}
	for i, p := range c.Placements {
		if !p.ISP.Valid() {
			return fmt.Errorf("cdn: placement %d has invalid ISP %d", i, int(p.ISP))
		}
		if seen[p.ISP] {
			return fmt.Errorf("cdn: duplicate placement for %s", p.ISP)
		}
		seen[p.ISP] = true
		if p.Count < 0 {
			return fmt.Errorf("cdn: placement %s has negative count %d", p.ISP, p.Count)
		}
		if p.Count > 32 {
			return fmt.Errorf("cdn: placement %s count %d exceeds 32 edges per ISP", p.ISP, p.Count)
		}
		if p.UplinkBps < 0 {
			return fmt.Errorf("cdn: placement %s has negative uplink %f", p.ISP, p.UplinkBps)
		}
	}
	return nil
}

// Uplink returns the effective uplink of a placement's edges.
func (p Placement) Uplink() float64 {
	if p.UplinkBps > 0 {
		return p.UplinkBps
	}
	return DefaultUplinkBps
}

// Edge is one CDN edge cache. It holds the trailing window of every
// registered channel up to the live edge (ingest is modeled out of band —
// edges are fed by the CDN's private distribution tree, not the P2P overlay)
// and serves each through a peer.Origin of its own, whose clock starts when
// the edge began caching the channel.
type Edge struct {
	env      node.Env
	channels []*peer.Origin // in AddChannel order; a handful at most

	// down marks the edge as crashed: every inbound datagram is dropped.
	// Fault injection toggles it; the ingest clocks keep running so the
	// cache is warm again the instant the process comes back.
	down bool
}

// NewEdge creates an edge cache with no channels registered.
func NewEdge(env node.Env) *Edge {
	return &Edge{env: env}
}

var _ node.Handler = (*Edge)(nil)

// Addr returns the edge's address.
func (e *Edge) Addr() netip.Addr { return e.env.Addr() }

// AddChannel registers a channel feed at the edge, live (from the edge's
// point of view) since the current instant.
func (e *Edge) AddChannel(spec stream.Spec) error {
	o, err := peer.NewOrigin(e.env, spec)
	if err != nil {
		return err
	}
	if e.channel(spec.Channel) != nil {
		return fmt.Errorf("cdn: edge %s already carries channel %d", e.Addr(), spec.Channel)
	}
	e.channels = append(e.channels, o)
	return nil
}

// channel returns the server of a registered channel, or nil.
func (e *Edge) channel(ch wire.ChannelID) *peer.Origin {
	for _, o := range e.channels {
		if o.Spec().Channel == ch {
			return o
		}
	}
	return nil
}

// Stats reports data requests served, payload bytes sent, and requests shed
// with Busy replies, summed over the edge's channels.
func (e *Edge) Stats() (served, servedBytes, shed uint64) {
	for _, o := range e.channels {
		s, b, sh := o.Stats()
		served, servedBytes, shed = served+s, servedBytes+b, shed+sh
	}
	return served, servedBytes, shed
}

// SetDown toggles the crashed state; while down the edge drops all inbound
// traffic.
func (e *Edge) SetDown(down bool) { e.down = down }

// Has reports whether the edge can serve sub-piece seq of the channel at now.
func (e *Edge) Has(ch wire.ChannelID, seq uint64, now time.Duration) bool {
	o := e.channel(ch)
	return o != nil && seq <= o.Edge(now)
}

// HandleMessage implements node.Handler: the message goes to the channel it
// names; one for a channel the edge does not carry is dropped.
func (e *Edge) HandleMessage(from netip.Addr, msg wire.Message) {
	if e.down {
		return
	}
	for _, o := range e.channels {
		if o.Serve(from, msg) {
			return
		}
	}
}
