package wire

import (
	"sync"
	"sync/atomic"
)

// The messages a streaming session sends most recycle: the three per-piece
// messages — DataRequest, DataReply and Have — and the control plane's
// HandshakeAck, PeerListRequest and PeerListReply. A sender takes one from
// its constructor, and the transport that delivered it (or dropped it) hands
// it back with Release once the receiver has returned. A constructor-made
// message carries a flag in the struct's padding, so the size and the codec
// are those of a literal, and Release takes back nothing else: a literal a
// caller keeps and sends again is never recycled under it.
//
// The control-plane messages keep their slices' storage across uses: Release
// truncates Buffer.Words, OwnPeers and Peers to length zero, and the next
// sender appends into the retained capacity. A receiver that keeps any of
// their contents must copy it.
//
// A Have may go to several destinations: SetDeliveries sets how many
// releases it waits for, and the last one recycles it. The count sits in the
// struct's padding too, and is decremented atomically, because a fan-out's
// cross-domain deliveries run on other workers.
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
	}
}
