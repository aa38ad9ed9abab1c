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
	requests     = newPool[DataRequest]()
	replies      = newPool[DataReply]()
	haves        = newPool[Have]()
	acks         = newPool[HandshakeAck]()
	listRequests = newPool[PeerListRequest]()
	listReplies  = newPool[PeerListReply]()
	maps         = newPool[BufferMapAnnounce]()
	announces    = newPool[TrackerAnnounce]()
	queries      = newPool[TrackerQuery]()
	responses    = newPool[TrackerResponse]()
	pings        = newPool[Ping]()
	pongs        = newPool[Pong]()
)

// pool recycles one message type.
type pool[T any] struct{ p sync.Pool }

// newPool returns an empty pool that makes a zero T when it has none.
func newPool[T any]() *pool[T] {
	return &pool[T]{sync.Pool{New: func() any { return new(T) }}}
}

// get returns a released message, or a new zero one.
func (p *pool[T]) get() *T { return p.p.Get().(*T) }

// fill returns a recycled message set to v.
func (p *pool[T]) fill(v T) *T {
	m := p.get()
	*m = v
	return m
}

// put recycles m, reset to zero, when last reports that a constructor made m
// and this is its last release. zero is the type's zero value, or for the
// messages with a slice, that value keeping the slice's storage.
func (p *pool[T]) put(m *T, last bool, zero T) {
	if last {
		*m = zero
		p.p.Put(m)
	}
}

// NewDataRequest returns a recycled DataRequest for count sub-pieces from
// seq. It belongs to the transport from Send on (see node.Env.Send).
func NewDataRequest(ch ChannelID, seq uint64, count uint16) *DataRequest {
	return requests.fill(DataRequest{Channel: ch, Seq: seq, Count: count, pooled: true})
}

// NewDataReply returns a recycled DataReply: count sub-pieces of pieceLen
// bytes from seq, or with count 0 a miss that busy marks as a shed. It
// belongs to the transport from Send on (see node.Env.Send).
func NewDataReply(ch ChannelID, seq uint64, count, pieceLen uint16, busy bool) *DataReply {
	return replies.fill(DataReply{Channel: ch, Seq: seq, Count: count, PieceLen: pieceLen, Busy: busy, pooled: true})
}

// NewHave returns a recycled Have hint for count sub-pieces from seq, for one
// destination unless SetDeliveries says otherwise. It belongs to the
// transport from Send on (see node.Env.Send).
func NewHave(ch ChannelID, seq uint64, count uint16) *Have {
	return haves.fill(Have{Channel: ch, Seq: seq, Count: count, pooled: true, pending: 1})
}

// SetDeliveries declares that m, made by NewHave, goes to n destinations:
// Release recycles it at the n-th call. The sender calls it before the first
// Send and then sends m exactly n times.
func (m *Have) SetDeliveries(n int) { m.pending = int32(n) }

// NewHandshakeAck returns a recycled HandshakeAck. Its Buffer is empty, with
// Words keeping the storage of earlier uses for the sender to fill (see
// stream.Buffer.SnapshotInto). It belongs to the transport from Send on.
func NewHandshakeAck(ch ChannelID, accepted bool) *HandshakeAck {
	m := acks.get()
	m.Channel, m.Accepted, m.pooled = ch, accepted, true
	return m
}

// NewPeerListRequest returns a recycled PeerListRequest with an empty
// OwnPeers that keeps the storage of earlier uses: the sender appends its
// list. It belongs to the transport from Send on.
func NewPeerListRequest(ch ChannelID) *PeerListRequest {
	m := listRequests.get()
	m.Channel, m.pooled = ch, true
	return m
}

// NewPeerListReply returns a recycled PeerListReply with an empty Peers that
// keeps the storage of earlier uses: the sender appends its list. It belongs
// to the transport from Send on.
func NewPeerListReply(ch ChannelID) *PeerListReply {
	m := listReplies.get()
	m.Channel, m.pooled = ch, true
	return m
}

// NewBufferMapAnnounce returns a recycled BufferMapAnnounce for one
// destination unless SetDeliveries says otherwise. Its Buffer is empty, with
// Words keeping the storage of earlier uses for the sender to fill (see
// stream.Buffer.SnapshotInto). It belongs to the transport from Send on.
func NewBufferMapAnnounce(ch ChannelID) *BufferMapAnnounce {
	m := maps.get()
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
	return announces.fill(TrackerAnnounce{Channel: ch, Leaving: leaving, pooled: true})
}

// NewTrackerQuery returns a recycled TrackerQuery. It belongs to the
// transport from Send on.
func NewTrackerQuery(ch ChannelID) *TrackerQuery {
	return queries.fill(TrackerQuery{Channel: ch, pooled: true})
}

// NewTrackerResponse returns a recycled TrackerResponse with an empty Peers
// that keeps the storage of earlier uses: the tracker appends its sample. It
// belongs to the transport from Send on.
func NewTrackerResponse(ch ChannelID) *TrackerResponse {
	m := responses.get()
	m.Channel, m.pooled = ch, true
	return m
}

// NewPing returns a recycled keepalive Ping. It belongs to the transport from
// Send on.
func NewPing(ch ChannelID, nonce uint32) *Ping {
	return pings.fill(Ping{Channel: ch, Nonce: nonce, pooled: true})
}

// NewPong returns a recycled Pong echoing nonce. It belongs to the transport
// from Send on.
func NewPong(ch ChannelID, nonce uint32) *Pong {
	return pongs.fill(Pong{Channel: ch, Nonce: nonce, pooled: true})
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
		requests.put(m, m.pooled, DataRequest{})
	case *DataReply:
		replies.put(m, m.pooled, DataReply{})
	case *Have:
		haves.put(m, m.pooled && atomic.AddInt32(&m.pending, -1) == 0, Have{})
	case *HandshakeAck:
		acks.put(m, m.pooled, HandshakeAck{Buffer: BufferMap{Words: m.Buffer.Words[:0]}})
	case *PeerListRequest:
		listRequests.put(m, m.pooled, PeerListRequest{OwnPeers: m.OwnPeers[:0]})
	case *PeerListReply:
		listReplies.put(m, m.pooled, PeerListReply{Peers: m.Peers[:0]})
	case *BufferMapAnnounce:
		last := atomic.LoadInt32(&m.pending) > 0 && atomic.AddInt32(&m.pending, -1) == 0
		maps.put(m, last, BufferMapAnnounce{Buffer: BufferMap{Words: m.Buffer.Words[:0]}})
	case *TrackerAnnounce:
		announces.put(m, m.pooled, TrackerAnnounce{})
	case *TrackerQuery:
		queries.put(m, m.pooled, TrackerQuery{})
	case *TrackerResponse:
		responses.put(m, m.pooled, TrackerResponse{Peers: m.Peers[:0]})
	case *Ping:
		pings.put(m, m.pooled, Ping{})
	case *Pong:
		pongs.put(m, m.pooled, Pong{})
	}
}
