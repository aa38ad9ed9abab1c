package wire

import (
	"sync"
	"sync/atomic"
)

// Every message a streaming session sends on a periodic or per-receipt path
// recycles:
//   - the data plane: DataRequest, DataReply and Have;
//   - the buffer-map announcement, BufferMapAnnounce;
//   - the tracker exchange: TrackerAnnounce, TrackerQuery and TrackerResponse;
//   - the join and referral path: HandshakeAck, PeerListRequest and
//     PeerListReply;
//   - the keepalive: Ping and Pong.
//
// A sender takes one from its constructor, and the transport that delivered
// it (or dropped it) hands it back with Release once the receiver has
// returned. A constructor-made message carries a flag, in the struct's
// padding where it has any (TrackerQuery, Ping and Pong grow by four bytes),
// so the codec is that of a literal, and Release takes back nothing else: a
// literal a caller keeps and sends again is never recycled under it.
// Of what a session sends, only the join-time messages (the channel list and
// the playlink) and its one handshake stay literals.
//
// The messages with a slice keep its storage across uses: Release truncates
// Buffer.Words, OwnPeers and Peers to length zero, and the next sender
// appends into the retained capacity. A receiver that keeps any of their
// contents must copy it.
//
// A Have or a BufferMapAnnounce may go to several destinations: SetDeliveries
// sets how many releases it waits for, and the last one recycles it. The count
// sits in the struct's padding too, and is decremented atomically, because a
// fan-out's cross-domain deliveries run on other workers. A BufferMapAnnounce
// has room for the count alone, so a count above zero is its flag.
//
// sync.Pool, not a free list per shard domain: a message crossing domains is
// made on one worker and released on another, and the pool balances that and
// drops what it holds at GC.
var (
	requestPool     = sync.Pool{New: func() any { return new(DataRequest) }}
	replyPool       = sync.Pool{New: func() any { return new(DataReply) }}
	havePool        = sync.Pool{New: func() any { return new(Have) }}
	ackPool         = sync.Pool{New: func() any { return new(HandshakeAck) }}
	listRequestPool = sync.Pool{New: func() any { return new(PeerListRequest) }}
	listReplyPool   = sync.Pool{New: func() any { return new(PeerListReply) }}
	mapPool         = sync.Pool{New: func() any { return new(BufferMapAnnounce) }}
	announcePool    = sync.Pool{New: func() any { return new(TrackerAnnounce) }}
	queryPool       = sync.Pool{New: func() any { return new(TrackerQuery) }}
	responsePool    = sync.Pool{New: func() any { return new(TrackerResponse) }}
	pingPool        = sync.Pool{New: func() any { return new(Ping) }}
	pongPool        = sync.Pool{New: func() any { return new(Pong) }}
)

// NewDataRequest returns a recycled DataRequest for count sub-pieces from
// seq. It belongs to the transport from Send on (see node.Env.Send).
func NewDataRequest(ch ChannelID, seq uint64, count uint16) *DataRequest {
	m := requestPool.Get().(*DataRequest)
	*m = DataRequest{Channel: ch, Seq: seq, Count: count, pooled: true}
	return m
}

// NewDataReply returns a recycled DataReply: count sub-pieces of pieceLen
// bytes from seq, or with count 0 a miss that busy marks as a shed. It
// belongs to the transport from Send on (see node.Env.Send).
func NewDataReply(ch ChannelID, seq uint64, count, pieceLen uint16, busy bool) *DataReply {
	m := replyPool.Get().(*DataReply)
	*m = DataReply{Channel: ch, Seq: seq, Count: count, PieceLen: pieceLen, Busy: busy, pooled: true}
	return m
}

// NewHave returns a recycled Have hint for count sub-pieces from seq, for one
// destination unless SetDeliveries says otherwise. It belongs to the
// transport from Send on (see node.Env.Send).
func NewHave(ch ChannelID, seq uint64, count uint16) *Have {
	m := havePool.Get().(*Have)
	*m = Have{Channel: ch, Seq: seq, Count: count, pooled: true, pending: 1}
	return m
}

// SetDeliveries declares that m, made by NewHave, goes to n destinations:
// Release recycles it at the n-th call. The sender calls it before the first
// Send and then sends m exactly n times.
func (m *Have) SetDeliveries(n int) { m.pending = int32(n) }

// NewHandshakeAck returns a recycled HandshakeAck. Its Buffer is empty, with
// Words keeping the storage of earlier uses for the sender to fill (see
// stream.Buffer.SnapshotInto). It belongs to the transport from Send on.
func NewHandshakeAck(ch ChannelID, accepted bool) *HandshakeAck {
	m := ackPool.Get().(*HandshakeAck)
	m.Channel, m.Accepted, m.pooled = ch, accepted, true
	return m
}

// NewPeerListRequest returns a recycled PeerListRequest with an empty
// OwnPeers that keeps the storage of earlier uses: the sender appends its
// list. It belongs to the transport from Send on.
func NewPeerListRequest(ch ChannelID) *PeerListRequest {
	m := listRequestPool.Get().(*PeerListRequest)
	m.Channel, m.pooled = ch, true
	return m
}

// NewPeerListReply returns a recycled PeerListReply with an empty Peers that
// keeps the storage of earlier uses: the sender appends its list. It belongs
// to the transport from Send on.
func NewPeerListReply(ch ChannelID) *PeerListReply {
	m := listReplyPool.Get().(*PeerListReply)
	m.Channel, m.pooled = ch, true
	return m
}

// NewBufferMapAnnounce returns a recycled BufferMapAnnounce for one
// destination unless SetDeliveries says otherwise. Its Buffer is empty, with
// Words keeping the storage of earlier uses for the sender to fill (see
// stream.Buffer.SnapshotInto). It belongs to the transport from Send on.
func NewBufferMapAnnounce(ch ChannelID) *BufferMapAnnounce {
	m := mapPool.Get().(*BufferMapAnnounce)
	m.Channel, m.pending = ch, 1
	return m
}

// SetDeliveries declares that m, made by NewBufferMapAnnounce, goes to n > 0
// destinations: Release recycles it at the n-th call. The sender calls it
// before the first Send and then sends m exactly n times.
func (m *BufferMapAnnounce) SetDeliveries(n int) { m.pending = int32(n) }

// NewTrackerAnnounce returns a recycled TrackerAnnounce, a withdrawal if
// leaving. It belongs to the transport from Send on.
func NewTrackerAnnounce(ch ChannelID, leaving bool) *TrackerAnnounce {
	m := announcePool.Get().(*TrackerAnnounce)
	*m = TrackerAnnounce{Channel: ch, Leaving: leaving, pooled: true}
	return m
}

// NewTrackerQuery returns a recycled TrackerQuery. It belongs to the
// transport from Send on.
func NewTrackerQuery(ch ChannelID) *TrackerQuery {
	m := queryPool.Get().(*TrackerQuery)
	*m = TrackerQuery{Channel: ch, pooled: true}
	return m
}

// NewTrackerResponse returns a recycled TrackerResponse with an empty Peers
// that keeps the storage of earlier uses: the tracker appends its sample. It
// belongs to the transport from Send on.
func NewTrackerResponse(ch ChannelID) *TrackerResponse {
	m := responsePool.Get().(*TrackerResponse)
	m.Channel, m.pooled = ch, true
	return m
}

// NewPing returns a recycled keepalive Ping. It belongs to the transport from
// Send on.
func NewPing(ch ChannelID, nonce uint32) *Ping {
	m := pingPool.Get().(*Ping)
	*m = Ping{Channel: ch, Nonce: nonce, pooled: true}
	return m
}

// NewPong returns a recycled Pong echoing nonce. It belongs to the transport
// from Send on.
func NewPong(ch ChannelID, nonce uint32) *Pong {
	m := pongPool.Get().(*Pong)
	*m = Pong{Channel: ch, Nonce: nonce, pooled: true}
	return m
}

// Release recycles a message made by one of the constructors above and
// ignores every other message. Only the transport calls it, once per
// destination, when the message's receiver has returned or the datagram was
// dropped; nothing may touch m after its last release. Release zeroes the
// flag with the rest, so releasing m again before a constructor hands it out
// anew does nothing.
func Release(m Message) {
	switch m := m.(type) {
	case *DataRequest:
		if m.pooled {
			*m = DataRequest{}
			requestPool.Put(m)
		}
	case *DataReply:
		if m.pooled {
			*m = DataReply{}
			replyPool.Put(m)
		}
	case *Have:
		if m.pooled && atomic.AddInt32(&m.pending, -1) == 0 {
			*m = Have{}
			havePool.Put(m)
		}
	case *HandshakeAck:
		if m.pooled {
			*m = HandshakeAck{Buffer: BufferMap{Words: m.Buffer.Words[:0]}}
			ackPool.Put(m)
		}
	case *PeerListRequest:
		if m.pooled {
			*m = PeerListRequest{OwnPeers: m.OwnPeers[:0]}
			listRequestPool.Put(m)
		}
	case *PeerListReply:
		if m.pooled {
			*m = PeerListReply{Peers: m.Peers[:0]}
			listReplyPool.Put(m)
		}
	case *BufferMapAnnounce:
		if atomic.LoadInt32(&m.pending) > 0 && atomic.AddInt32(&m.pending, -1) == 0 {
			*m = BufferMapAnnounce{Buffer: BufferMap{Words: m.Buffer.Words[:0]}}
			mapPool.Put(m)
		}
	case *TrackerAnnounce:
		if m.pooled {
			*m = TrackerAnnounce{}
			announcePool.Put(m)
		}
	case *TrackerQuery:
		if m.pooled {
			*m = TrackerQuery{}
			queryPool.Put(m)
		}
	case *TrackerResponse:
		if m.pooled {
			*m = TrackerResponse{Peers: m.Peers[:0]}
			responsePool.Put(m)
		}
	case *Ping:
		if m.pooled {
			*m = Ping{}
			pingPool.Put(m)
		}
	case *Pong:
		if m.pooled {
			*m = Pong{}
			pongPool.Put(m)
		}
	}
}
