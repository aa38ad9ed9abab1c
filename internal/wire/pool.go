package wire

import "sync"

// The three per-piece messages — DataRequest, DataReply and Have — are most
// of the datagrams a streaming run exchanges, so the data plane recycles
// them: a sender takes one from its constructor, and the transport that
// delivered it hands it back with Release once the receiver has returned.
// A constructor-made message carries a flag in the struct's padding, so the
// size and the codec are those of a literal, and Release takes back nothing
// else: a literal a caller keeps and sends again is never recycled under it.
//
// sync.Pool, not a free list per shard domain: a message crossing domains is
// made on one worker and released on another, and the pool balances that and
// drops what it holds at GC.
var (
	requestPool = sync.Pool{New: func() any { return new(DataRequest) }}
	replyPool   = sync.Pool{New: func() any { return new(DataReply) }}
	havePool    = sync.Pool{New: func() any { return new(Have) }}
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

// NewHave returns a recycled Have hint for count sub-pieces from seq. It
// belongs to the transport from Send on (see node.Env.Send).
func NewHave(ch ChannelID, seq uint64, count uint16) *Have {
	m := havePool.Get().(*Have)
	*m = Have{Channel: ch, Seq: seq, Count: count, pooled: true}
	return m
}

// Release recycles a message made by NewDataRequest, NewDataReply or NewHave
// and ignores every other message. Only the transport calls it, once the
// message's receiver has returned; nothing may touch m afterwards. Release
// zeroes the flag with the rest, so releasing m again before a constructor
// hands it out anew does nothing.
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
		if m.pooled {
			*m = Have{}
			havePool.Put(m)
		}
	}
}
