package layers

import (
	"fmt"
	"net/netip"
	"time"

	"pplivesim/internal/peer"
	"pplivesim/internal/stream"
	"pplivesim/internal/wire"
	"pplivesim/internal/workload"
)

// harnessNeighbors is the neighbour count the harness builds: a full
// DefaultConfig table.
const harnessNeighbors = 28

// PeerHarness owns one real peer.Client on a StubEnv and plays everybody
// else: the bootstrap server, a tracker, the channel source and a table of
// neighbours that hold the stream up to a small per-neighbour lag. It walks
// the client through the join flow with exported API only (Start, then
// HandleMessage for every reply a real swarm would send) and then keeps it
// in steady playback one scheduler interval at a time.
type PeerHarness struct {
	Env    *StubEnv
	Client *peer.Client
	Spec   stream.Spec
	cfg    peer.Config

	Bootstrap netip.Addr
	Tracker   netip.Addr
	Source    netip.Addr
	Neighbors []netip.Addr

	tick func() // the client's scheduler-tick callback, captured from Every
	// served is the highest sequence a stub neighbour has delivered.
	served uint64
}

func harnessAddr(block, i int) netip.Addr {
	return netip.AddrFrom4([4]byte{10, byte(block), byte(i >> 8), byte(i)})
}

// NewPeerHarness builds a client with config(spec, bootstrap) and brings it
// to peer.PhaseSteady with harnessNeighbors connected neighbours.
func NewPeerHarness(config func(stream.Spec, netip.Addr) peer.Config) (*PeerHarness, error) {
	h := &PeerHarness{
		Spec:      workload.PopularSpec(),
		Bootstrap: harnessAddr(1, 1),
		Tracker:   harnessAddr(1, 2),
		Source:    harnessAddr(1, 3),
	}
	for i := 0; i < harnessNeighbors; i++ {
		h.Neighbors = append(h.Neighbors, harnessAddr(2, i+1))
	}
	h.cfg = config(h.Spec, h.Bootstrap)
	h.Env = NewStubEnv(harnessAddr(3, 1), 11)
	// The channel has been live for ten minutes when the client joins.
	h.Env.Advance(10 * time.Minute)

	client, err := peer.New(h.Env, h.cfg)
	if err != nil {
		return nil, err
	}
	h.Client = client
	ch := h.Spec.Channel

	// Bootstrap: channel list, then playlink (source + one tracker).
	client.Start()
	client.HandleMessage(h.Bootstrap, &wire.ChannelListResponse{Channels: []wire.ChannelInfo{h.Spec.Info()}})
	client.HandleMessage(h.Bootstrap, &wire.PlaylinkResponse{Channel: ch, Source: h.Source, Trackers: []netip.Addr{h.Tracker}})
	if client.Phase() != peer.PhaseStartup {
		return nil, fmt.Errorf("layers: client in phase %v after playlink, want startup", client.Phase())
	}
	h.tick = h.Env.Periodic(h.cfg.SchedInterval)
	if h.tick == nil {
		return nil, fmt.Errorf("layers: client registered no scheduler tick")
	}
	h.Env.TakeSent()

	// Tracker replies and handshakes: every tracker list makes the client
	// handshake ConnectFanout fresh peers; accept each 20 ms later, until the
	// table is full. The +1 is the source, always a neighbour of last resort.
	for round := 0; client.NumNeighbors() < harnessNeighbors+1; round++ {
		if round > 4*harnessNeighbors {
			return nil, fmt.Errorf("layers: stuck at %d neighbours", client.NumNeighbors())
		}
		client.HandleMessage(h.Tracker, &wire.TrackerResponse{Channel: ch, Peers: h.Neighbors})
		h.Env.Advance(20 * time.Millisecond)
		for _, s := range h.Env.TakeSent() {
			if _, ok := s.Msg.(*wire.Handshake); ok {
				client.HandleMessage(s.To, &wire.HandshakeAck{Channel: ch, Accepted: true, Buffer: h.neighborMap(s.To)})
			}
		}
		h.Env.TakeSent() // the client's peer-list requests to new neighbours
	}

	// Playback: run scheduler intervals until a quarter of the buffer window
	// has arrived, then a gossip round promotes the session to steady.
	for i := 0; client.BufferStats().Received <= uint64(h.cfg.BufferWindow/4); i++ {
		if i > 4000 {
			return nil, fmt.Errorf("layers: buffer stuck at %d pieces", client.BufferStats().Received)
		}
		h.Step()
	}
	gossip := h.Env.Periodic(h.cfg.GossipInterval)
	if gossip == nil {
		return nil, fmt.Errorf("layers: client registered no gossip round")
	}
	gossip()
	h.Env.TakeSent()
	if client.Phase() != peer.PhaseSteady {
		return nil, fmt.Errorf("layers: client in phase %v after playback, want steady", client.Phase())
	}
	return h, nil
}

// edge is the newest sequence the source has emitted.
func (h *PeerHarness) edge() uint64 { return h.Spec.EdgeSeq(h.Env.Now()) }

// lag is how far (in sub-pieces) neighbour a trails the live edge: up to
// three seconds across the table, so coverage near the edge is partial as
// in a real mesh.
func (h *PeerHarness) lag(a netip.Addr) uint64 {
	for i, n := range h.Neighbors {
		if n == a {
			return uint64(i * 4)
		}
	}
	return 0
}

// neighborMap is the buffer map neighbour a would announce now.
func (h *PeerHarness) neighborMap(a netip.Addr) wire.BufferMap {
	const window = 2048
	hi := h.edge()
	if l := h.lag(a); hi > l {
		hi -= l
	}
	start := uint64(0)
	if hi+1 > window {
		start = (hi + 1 - window) &^ 7
	}
	bm := wire.MakeBufferMap(start, window)
	bm.SetRange(start, hi)
	return bm
}

// Advance moves the clock one scheduler interval and refreshes every
// neighbour's announced map, which is what Have hints and buffer-map rounds
// do between two ticks of a real session.
func (h *PeerHarness) Advance() {
	h.Env.Advance(h.cfg.SchedInterval)
	ch := h.Spec.Channel
	for _, a := range h.Neighbors {
		h.Client.HandleMessage(a, &wire.BufferMapAnnounce{Channel: ch, Buffer: h.neighborMap(a)})
	}
}

// Tick fires the client's scheduler tick and returns the data requests it
// emitted.
func (h *PeerHarness) Tick() []Sent {
	h.Env.TakeSent()
	h.tick()
	var reqs []Sent
	for _, s := range h.Env.TakeSent() {
		if _, ok := s.Msg.(*wire.DataRequest); ok {
			reqs = append(reqs, s)
		}
	}
	return reqs
}

// Reply builds the data reply a holder sends for req.
func (h *PeerHarness) Reply(req Sent) *wire.DataReply {
	r := req.Msg.(*wire.DataRequest)
	count := r.Count
	if count == 0 {
		count = 1
	}
	if hi := r.Seq + uint64(count) - 1; hi > h.served {
		h.served = hi
	}
	return &wire.DataReply{Channel: r.Channel, Seq: r.Seq, Count: count, PieceLen: uint16(h.Spec.SubPieceLen)}
}

// Step is one full scheduler interval: advance, tick, answer every request.
func (h *PeerHarness) Step() {
	h.Advance()
	for _, req := range h.Tick() {
		h.Client.HandleMessage(req.To, h.Reply(req))
	}
	h.Env.TakeSent() // Have hints
}

// HeldSeq returns a sequence the client holds, varying with i: one of the
// 256 pieces below the newest delivered one (the playback history keeps
// them).
func (h *PeerHarness) HeldSeq(i int) uint64 {
	return h.served - 8 - uint64(i%256)
}
