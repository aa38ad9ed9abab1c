// Package tracker implements the PPLive-style control servers: the
// bootstrap/channel server and the tracker servers.
//
// Per the paper (§2), the bootstrap server returns the active channel list
// and, for a chosen channel, the playlink plus one tracker address from each
// of five tracker groups deployed at different locations. Tracker servers
// store the active peers of each channel and answer queries with a random
// sample — they are "databases of active peers rather than for locality"
// (§3.2): no topology awareness whatsoever.
package tracker

import (
	"fmt"
	"net/netip"
	"sort"
	"time"

	"pplivesim/internal/isp"
	"pplivesim/internal/node"
	"pplivesim/internal/selection"
	"pplivesim/internal/wire"
)

// Groups is the number of tracker-server groups PPLive deploys (the paper
// observes five, at different locations in China).
const Groups = 5

// DefaultMaxReply bounds the peers returned per tracker response; the paper
// observes peer lists of at most 60 addresses.
const DefaultMaxReply = wire.MaxPeerList

// DefaultEntryTTL is how long an announced peer stays listed without a
// re-announce.
const DefaultEntryTTL = 2 * time.Minute

// channelPeers is one channel's registry: last-announce times keyed by peer,
// plus the same peers as an address-ordered slice. Queries and expiry walk
// the slice — never the map, whose range order is randomized per run and
// would leak nondeterminism into every served list.
type channelPeers struct {
	seen  map[netip.Addr]time.Duration // peer → last announce
	order []netip.Addr                 // peers in address order
}

func (cp *channelPeers) add(addr netip.Addr, now time.Duration) {
	if _, ok := cp.seen[addr]; !ok {
		i, _ := sort.Find(len(cp.order), func(i int) int { return addr.Compare(cp.order[i]) })
		cp.order = append(cp.order, netip.Addr{})
		copy(cp.order[i+1:], cp.order[i:])
		cp.order[i] = addr
	}
	cp.seen[addr] = now
}

func (cp *channelPeers) remove(addr netip.Addr) {
	if _, ok := cp.seen[addr]; !ok {
		return
	}
	delete(cp.seen, addr)
	i, found := sort.Find(len(cp.order), func(i int) int { return addr.Compare(cp.order[i]) })
	if found {
		cp.order = append(cp.order[:i], cp.order[i+1:]...)
	}
}

// expire drops every entry older than ttl, compacting the order in place.
func (cp *channelPeers) expire(now, ttl time.Duration) {
	keep := cp.order[:0]
	for _, addr := range cp.order {
		if now-cp.seen[addr] > ttl {
			delete(cp.seen, addr)
			continue
		}
		keep = append(keep, addr)
	}
	cp.order = keep
}

// Server is one tracker server: a per-channel registry of active peers.
type Server struct {
	env    node.Env
	policy selection.Policy

	channels map[wire.ChannelID]*channelPeers
	// candidates is handleQuery's scratch: one query's live peers, which the
	// policy permutes before the reply copies its sample out.
	candidates []netip.Addr

	// down marks the server as crashed: inbound datagrams are dropped before
	// any registry mutation or RNG draw, so an outage window perturbs nothing
	// but the clients waiting on responses.
	down bool

	// Stats.
	announces, queries, served uint64
}

// NewServer creates a tracker server bound to env and installs itself as the
// env's handler if env supports it (the caller typically does
// env.SetHandler(server) explicitly; Server only needs node.Env).
func NewServer(env node.Env) *Server {
	return &Server{
		env:      env,
		policy:   selection.Uniform{},
		channels: make(map[wire.ChannelID]*channelPeers),
	}
}

var _ node.Handler = (*Server)(nil)

// SetPolicy installs the reply-composition policy (selection.Uniform by
// default — the paper's locality-unaware random sample). The policy must be
// safe for shared use: one instance serves every tracker in the world.
func (s *Server) SetPolicy(p selection.Policy) {
	if p != nil {
		s.policy = p
	}
}

// ActivePeers returns the live (non-expired) peers of a channel in address
// order.
func (s *Server) ActivePeers(ch wire.ChannelID) []netip.Addr {
	cp := s.channels[ch]
	if cp == nil {
		return nil
	}
	now := s.env.Now()
	out := make([]netip.Addr, 0, len(cp.order))
	for _, addr := range cp.order {
		if now-cp.seen[addr] <= DefaultEntryTTL {
			out = append(out, addr)
		}
	}
	return out
}

// Stats reports cumulative counters: announces received, queries received,
// and peer addresses served.
func (s *Server) Stats() (announces, queries, served uint64) {
	return s.announces, s.queries, s.served
}

// SetDown toggles the crashed state; while down the server drops all inbound
// traffic.
func (s *Server) SetDown(down bool) { s.down = down }

// HandleMessage implements node.Handler.
func (s *Server) HandleMessage(from netip.Addr, msg wire.Message) {
	if s.down {
		return
	}
	switch m := msg.(type) {
	case *wire.TrackerAnnounce:
		s.handleAnnounce(from, m)
	case *wire.TrackerQuery:
		s.handleQuery(from, m)
	default:
		// Trackers ignore everything else, like a real server dropping
		// unexpected datagrams.
	}
}

func (s *Server) handleAnnounce(from netip.Addr, m *wire.TrackerAnnounce) {
	s.announces++
	cp, ok := s.channels[m.Channel]
	if !ok {
		if m.Leaving {
			return
		}
		cp = &channelPeers{seen: make(map[netip.Addr]time.Duration)}
		s.channels[m.Channel] = cp
	}
	if m.Leaving {
		cp.remove(from)
		return
	}
	cp.add(from, s.env.Now())
}

func (s *Server) handleQuery(from netip.Addr, m *wire.TrackerQuery) {
	s.queries++
	cp := s.channels[m.Channel]
	now := s.env.Now()

	// Expire stale entries, then copy the live ones (minus the requester)
	// from the maintained address order — already sorted, no per-query sort.
	candidates := s.candidates[:0]
	if cp != nil {
		cp.expire(now, DefaultEntryTTL)
		for _, addr := range cp.order {
			if addr != from {
				candidates = append(candidates, addr)
			}
		}
	}
	s.candidates = candidates

	// Reply composition is delegated to the selection policy; the default
	// Uniform policy reproduces the paper's locality-unaware partial
	// Fisher-Yates draw for draw. Even with no candidates an (empty)
	// response is sent — the client is waiting on it — and served counts
	// only addresses actually returned.
	k := s.policy.Sample(candidates, from, DefaultMaxReply, s.env.Rand())
	reply := wire.NewTrackerResponse(m.Channel)
	reply.Peers = append(reply.Peers, candidates[:k]...)
	s.served += uint64(k)

	s.env.Send(from, reply)
}

// ChannelDirectory describes one channel as known to the bootstrap server.
type ChannelDirectory struct {
	Info   wire.ChannelInfo
	Source netip.Addr
	// TrackerGroups holds the tracker addresses per group; a playlink
	// response samples one address from each group.
	TrackerGroups [Groups][]netip.Addr
}

// EdgeResolver maps a peer address to its ISP category; the bootstrap uses
// it to order CDN edges by affinity for the requester (asnmap.Registry
// implements it).
type EdgeResolver interface {
	ISPOf(addr netip.Addr) (isp.ISP, bool)
}

// edgeEntry is one registered CDN edge cache.
type edgeEntry struct {
	addr netip.Addr
	cat  isp.ISP
}

// Bootstrap is the bootstrap/channel server: first contact for every client.
type Bootstrap struct {
	env      node.Env
	channels map[wire.ChannelID]*ChannelDirectory
	order    []wire.ChannelID

	// edges lists the deployment's CDN edge caches in registration order;
	// resolver maps requesters to ISPs so playlink replies can list same-ISP
	// edges first (the sim's stand-in for CDN DNS request routing).
	edges    []edgeEntry
	resolver EdgeResolver

	// Stats.
	listRequests, playlinkRequests uint64
}

// NewBootstrap creates an empty bootstrap server bound to env.
func NewBootstrap(env node.Env) *Bootstrap {
	return &Bootstrap{
		env:      env,
		channels: make(map[wire.ChannelID]*ChannelDirectory),
	}
}

var _ node.Handler = (*Bootstrap)(nil)

// SetEdgeResolver installs the requester→ISP resolver used for edge
// affinity ordering. Without one, edges are listed in registration order for
// every requester.
func (b *Bootstrap) SetEdgeResolver(r EdgeResolver) { b.resolver = r }

// AddEdge registers a CDN edge cache located in cat. Edges are global — one
// cache serves every channel — so registration is not per-channel.
func (b *Bootstrap) AddEdge(addr netip.Addr, cat isp.ISP) error {
	if !addr.IsValid() {
		return fmt.Errorf("tracker: edge address invalid")
	}
	if !cat.Valid() {
		return fmt.Errorf("tracker: edge %s has invalid ISP %d", addr, int(cat))
	}
	for _, e := range b.edges {
		if e.addr == addr {
			return fmt.Errorf("tracker: edge %s already registered", addr)
		}
	}
	b.edges = append(b.edges, edgeEntry{addr: addr, cat: cat})
	return nil
}

// edgesFor returns the deployment's edges ordered for one requester:
// same-ISP edges first, then the rest, registration order within each tier.
// The ordering is a pure function of (edges, requester ISP) — no RNG draws —
// so playlink replies stay deterministic and the bootstrap's random stream
// is identical with and without a CDN deployment.
func (b *Bootstrap) edgesFor(from netip.Addr) []netip.Addr {
	if len(b.edges) == 0 {
		return nil
	}
	var cat isp.ISP
	if b.resolver != nil {
		cat, _ = b.resolver.ISPOf(from)
	}
	out := make([]netip.Addr, 0, len(b.edges))
	for _, e := range b.edges {
		if e.cat == cat {
			out = append(out, e.addr)
		}
	}
	for _, e := range b.edges {
		if e.cat != cat {
			out = append(out, e.addr)
		}
	}
	return out
}

// AddChannel registers a channel directory entry.
func (b *Bootstrap) AddChannel(dir ChannelDirectory) error {
	if _, ok := b.channels[dir.Info.ID]; ok {
		return fmt.Errorf("tracker: channel %d already registered", dir.Info.ID)
	}
	for g, addrs := range dir.TrackerGroups {
		if len(addrs) == 0 {
			return fmt.Errorf("tracker: channel %d: tracker group %d empty", dir.Info.ID, g)
		}
	}
	cp := dir
	b.channels[dir.Info.ID] = &cp
	b.order = append(b.order, dir.Info.ID)
	return nil
}

// Stats reports request counters.
func (b *Bootstrap) Stats() (listRequests, playlinkRequests uint64) {
	return b.listRequests, b.playlinkRequests
}

// HandleMessage implements node.Handler.
func (b *Bootstrap) HandleMessage(from netip.Addr, msg wire.Message) {
	switch m := msg.(type) {
	case *wire.ChannelListRequest:
		b.listRequests++
		infos := make([]wire.ChannelInfo, 0, len(b.order))
		for _, id := range b.order {
			infos = append(infos, b.channels[id].Info)
		}
		b.env.Send(from, &wire.ChannelListResponse{Channels: infos})
	case *wire.PlaylinkRequest:
		b.playlinkRequests++
		dir, ok := b.channels[m.Channel]
		if !ok {
			return // unknown channel: silently dropped, client will retry
		}
		rng := b.env.Rand()
		trackers := make([]netip.Addr, 0, Groups)
		for _, group := range dir.TrackerGroups {
			trackers = append(trackers, group[rng.Intn(len(group))])
		}
		b.env.Send(from, &wire.PlaylinkResponse{
			Channel:  m.Channel,
			Source:   dir.Source,
			Trackers: trackers,
			Edges:    b.edgesFor(from),
		})
	default:
	}
}
