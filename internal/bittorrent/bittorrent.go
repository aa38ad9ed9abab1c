// Package bittorrent implements the baseline the paper contrasts PPLive
// against: a BitTorrent-style swarm with tracker-only peer discovery,
// random neighbor selection, tit-for-tat choking, and rarest-first piece
// scheduling (§1, §4). Peers learn about each other exclusively through the
// tracker — no neighbor referral, no latency bias anywhere — so the overlay
// is blind to the underlay and cross-ISP traffic is expected to dominate.
//
// A Peer is a node.Handler that speaks wire messages, and RunLocality runs
// the swarm on a simnet world with a tracker.Server and measures its probe
// with analysis.Instrument: the same world, tracker and instrument as the
// streaming system, so the two sides of the locality comparison come out of
// the same analysis.Report code.
package bittorrent

import (
	"math/bits"
	"net/netip"
	"slices"
	"sort"
	"time"

	"pplivesim/internal/node"
	"pplivesim/internal/wire"
)

// channel is the swarm's one channel: its tracker entries and message tags.
const channel wire.ChannelID = 0xB7

// The swarm's protocol constants: a classic small-swarm configuration.
const (
	numPieces      = 1200             // the file's pieces
	pieceLen       = 16 << 10         // bytes per piece
	maxNeighbors   = 30               // a peer dials until it holds this many
	maxInbound     = 2 * maxNeighbors // and accepts handshakes up to this
	announcePeriod = 60 * time.Second // tracker announce and query
	rechokePeriod  = 10 * time.Second
	unchokeSlots   = 4 + 1           // reciprocal slots plus one optimistic
	pipeline       = 6               // outstanding requests per neighbor
	requestTimeout = 8 * time.Second // also bounds a dial's wait for its answer
)

// request is one outstanding piece request to a neighbor.
type request struct {
	piece uint64
	at    time.Duration
}

// neighbor tracks one BT neighbor relationship.
type neighbor struct {
	addr netip.Addr
	// field is the neighbor's bitfield, from its handshake answer or
	// announce plus every Have; empty until the first of them arrives.
	field       wire.BufferMap
	dialing     bool // our handshake is not yet answered
	choked      bool // we choke them
	chokingUs   bool // they choke us
	outstanding []request

	downloaded uint64 // bytes we got from them (tit-for-tat currency)
}

// Peer is one BT leecher or seed.
type Peer struct {
	env     node.Env
	tracker netip.Addr

	have      wire.BufferMap
	remaining int
	neighbors []*neighbor // address order
	byAddr    map[netip.Addr]*neighbor
}

var _ node.Handler = (*Peer)(nil)

// bitfield returns an empty map of the file's pieces.
func bitfield() wire.BufferMap { return wire.MakeBufferMap(0, numPieces) }

// NewPeer makes a peer on env that discovers the swarm through the tracker
// at tracker; a seed starts with the whole file. Install it as env's
// handler, then Start it.
func NewPeer(env node.Env, tracker netip.Addr, seed bool) *Peer {
	p := &Peer{
		env:       env,
		tracker:   tracker,
		have:      bitfield(),
		remaining: numPieces,
		byAddr:    make(map[netip.Addr]*neighbor),
	}
	if seed {
		p.have.SetRange(0, numPieces-1)
		p.remaining = 0
	}
	return p
}

// Start announces the peer to the tracker and arms its timers.
func (p *Peer) Start() {
	p.announce()
	p.env.Every(announcePeriod, p.announce)
	p.env.Every(rechokePeriod, p.rechoke)
	p.env.Every(time.Second, p.schedule)
}

// Addr returns the peer's address.
func (p *Peer) Addr() netip.Addr { return p.env.Addr() }

// Done reports whether the peer holds the whole file.
func (p *Peer) Done() bool { return p.remaining == 0 }

// Progress returns the fraction of pieces held.
func (p *Peer) Progress() float64 {
	return float64(numPieces-p.remaining) / numPieces
}

// announce registers the peer with the tracker and asks it for peers.
func (p *Peer) announce() {
	p.env.Send(p.tracker, &wire.TrackerAnnounce{Channel: channel})
	p.env.Send(p.tracker, &wire.TrackerQuery{Channel: channel})
}

// snapshot copies the peer's bitfield for a message: a sent message must not
// change, and the peer's own map does.
func (p *Peer) snapshot() wire.BufferMap {
	bm := p.have
	bm.Words = append([]uint64(nil), bm.Words...)
	return bm
}

// add makes addr a neighbor, choked both ways.
func (p *Peer) add(addr netip.Addr) *neighbor {
	nb := &neighbor{addr: addr, field: bitfield(), choked: true, chokingUs: true}
	i, _ := slices.BinarySearchFunc(p.neighbors, addr, func(nb *neighbor, a netip.Addr) int { return nb.addr.Compare(a) })
	p.neighbors = slices.Insert(p.neighbors, i, nb)
	p.byAddr[addr] = nb
	return nb
}

// merge ORs news of nb's pieces into its bitfield. A bitfield only ever
// gains pieces, so news that arrives out of order never erases one.
func (nb *neighbor) merge(bm *wire.BufferMap) {
	for i, w := range bm.Words {
		nb.field.Words[i] |= w
	}
}

// HandleMessage implements node.Handler.
func (p *Peer) HandleMessage(from netip.Addr, msg wire.Message) {
	switch m := msg.(type) {
	case *wire.TrackerResponse:
		p.dial(m.Peers)
		return
	case *wire.Handshake:
		p.accept(from)
		return
	case *wire.HandshakeAck:
		p.answered(from, m)
		return
	}
	nb := p.byAddr[from]
	if nb == nil {
		// Not a neighbor: strangers get nothing but a reset, so that a peer
		// still holding us as its neighbor drops us too.
		p.env.Send(from, &wire.HandshakeAck{Channel: channel})
		return
	}
	switch m := msg.(type) {
	case *wire.BufferMapAnnounce:
		nb.merge(&m.Buffer)
	case *wire.Have:
		nb.field.Set(m.Seq)
	case *wire.Choke:
		nb.chokingUs = m.Choked
	case *wire.DataRequest:
		if !nb.choked && p.have.Has(m.Seq) {
			p.env.Send(from, wire.NewDataReply(channel, m.Seq, 1, pieceLen, false))
		}
	case *wire.DataReply:
		p.receive(nb, m.Seq)
	}
}

// dial opens neighbor relationships with listed peers until full — random
// neighbor selection, no latency consideration of any kind.
func (p *Peer) dial(peers []netip.Addr) {
	for _, a := range peers {
		if len(p.neighbors) >= maxNeighbors {
			break
		}
		if a == p.env.Addr() || p.byAddr[a] != nil {
			continue
		}
		nb := p.add(a)
		nb.dialing = true
		p.env.Send(a, &wire.Handshake{Channel: channel})
		// A dial whose handshake or answer is lost or late frees its slot too.
		p.env.After(requestTimeout, func() {
			if nb.dialing {
				p.drop(nb)
			}
		})
	}
}

// answered handles the answer to a dial. A rejection, or a reset from a peer
// that no longer holds us, ends the relationship. An acceptance makes the
// neighbor live and sends it our bitfield: it holds us by now, so the
// announce is not dropped as a stranger's. An acceptance that comes after the
// dial timed out is taken up again if a slot is free, and reset otherwise.
func (p *Peer) answered(from netip.Addr, m *wire.HandshakeAck) {
	nb := p.byAddr[from]
	switch {
	case !m.Accepted:
		if nb != nil {
			p.drop(nb)
		}
		return
	case nb == nil && len(p.neighbors) >= maxNeighbors:
		p.env.Send(from, &wire.HandshakeAck{Channel: channel})
		return
	case nb == nil:
		nb = p.add(from)
	}
	nb.dialing = false
	nb.merge(&m.Buffer)
	p.env.Send(from, &wire.BufferMapAnnounce{Channel: channel, Buffer: p.snapshot()})
}

// drop ends the relationship with nb, freeing its slot for the next
// tracker reply to fill.
func (p *Peer) drop(nb *neighbor) {
	if p.byAddr[nb.addr] != nb {
		return
	}
	delete(p.byAddr, nb.addr)
	i := slices.Index(p.neighbors, nb)
	p.neighbors = slices.Delete(p.neighbors, i, i+1)
}

// accept answers an inbound handshake with the peer's bitfield, or rejects
// it when the peer already holds maxInbound neighbors.
func (p *Peer) accept(from netip.Addr) {
	nb := p.byAddr[from]
	if nb == nil {
		if len(p.neighbors) >= maxInbound {
			p.env.Send(from, &wire.HandshakeAck{Channel: channel})
			return
		}
		nb = p.add(from)
	}
	nb.dialing = false
	p.env.Send(from, &wire.HandshakeAck{Channel: channel, Accepted: true, Buffer: p.snapshot()})
}

// receive books a piece from nb and advertises a new one to every live
// neighbor, per protocol, with one Have shared across the fan-out. A dial
// still unanswered learns of the piece from the announce that follows the
// answer.
func (p *Peer) receive(nb *neighbor, piece uint64) {
	if i := slices.IndexFunc(nb.outstanding, func(r request) bool { return r.piece == piece }); i >= 0 {
		nb.outstanding = slices.Delete(nb.outstanding, i, i+1)
	}
	nb.downloaded += pieceLen
	if piece >= numPieces || p.have.Has(piece) {
		return
	}
	p.have.Set(piece)
	p.remaining--
	have := &wire.Have{Channel: channel, Seq: piece, Count: 1}
	for _, other := range p.neighbors {
		if !other.dialing {
			p.env.Send(other.addr, have)
		}
	}
}

// lacks reports whether field misses a piece have holds.
func lacks(field, have *wire.BufferMap) bool {
	for i, w := range have.Words {
		if w&^field.Words[i] != 0 {
			return true
		}
	}
	return false
}

// rechoke implements tit-for-tat: unchoke the top downloaders among the
// neighbors that lack a piece we hold, one of the slots being the optimistic
// one; seeds unchoke round-robin by the same mechanism (download ties broken
// randomly). Every other neighbor is choked.
func (p *Peer) rechoke() {
	var interested []*neighbor
	for _, nb := range p.neighbors {
		nb.downloaded /= 2 // decay the reciprocation window
		if !nb.dialing && lacks(&nb.field, &p.have) {
			interested = append(interested, nb)
		} else {
			p.choke(nb, true)
		}
	}
	rng := p.env.Rand()
	rng.Shuffle(len(interested), func(i, j int) { interested[i], interested[j] = interested[j], interested[i] })
	sort.SliceStable(interested, func(i, j int) bool {
		return interested[i].downloaded > interested[j].downloaded
	})
	for i, nb := range interested {
		p.choke(nb, i >= unchokeSlots)
	}
}

// choke tells nb when its choke state changes.
func (p *Peer) choke(nb *neighbor, choked bool) {
	if nb.choked == choked {
		return
	}
	nb.choked = choked
	p.env.Send(nb.addr, &wire.Choke{Channel: channel, Choked: choked})
}

// schedule issues rarest-first requests to unchoking neighbors.
func (p *Peer) schedule() {
	if p.Done() {
		return
	}
	now := p.env.Now()
	// Expire stale requests, and count each piece's holders.
	inFlight := bitfield()
	counts := make([]int, numPieces)
	for _, nb := range p.neighbors {
		live := nb.outstanding[:0]
		for _, r := range nb.outstanding {
			if now-r.at <= requestTimeout {
				live = append(live, r)
				inFlight.Set(r.piece)
			}
		}
		nb.outstanding = live
		for w, word := range nb.field.Words {
			for ; word != 0; word &= word - 1 {
				counts[w*64+bits.TrailingZeros64(word)]++
			}
		}
	}

	var cands []uint64
	for i := uint64(0); i < numPieces; i++ {
		if counts[i] > 0 && !p.have.Has(i) && !inFlight.Has(i) {
			cands = append(cands, i)
		}
	}
	rng := p.env.Rand()
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	sort.SliceStable(cands, func(i, j int) bool { return counts[cands[i]] < counts[cands[j]] })

	for _, c := range cands {
		var best *neighbor
		for _, nb := range p.neighbors {
			if nb.chokingUs || len(nb.outstanding) >= pipeline || !nb.field.Has(c) {
				continue
			}
			// Random provider among eligible holders.
			if best == nil || rng.Intn(2) == 0 {
				best = nb
			}
		}
		if best == nil {
			continue
		}
		best.outstanding = append(best.outstanding, request{piece: c, at: now})
		p.env.Send(best.addr, wire.NewDataRequest(channel, c, 1))
	}
}
