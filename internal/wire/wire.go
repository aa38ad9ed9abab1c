// Package wire defines the PPLive-style datagram protocol spoken by every
// component: bootstrap/channel server, tracker servers, and peers.
//
// The message set follows the protocol behaviour the paper reverse-engineered
// (§2): channel-list and playlink exchanges with the bootstrap server,
// tracker peer-list queries, neighbor peer-list exchange where the requester
// encloses its own list and the replier returns up to 60 addresses, buffer-
// map announcements, and sub-piece data request/reply carrying transmission
// sequence numbers (which the paper's trace matching keys on).
//
// Messages marshal to a compact binary format: a fixed header (magic,
// version, type, body length) followed by the body and a CRC32 trailer.
// The same encoding drives both the simulated underlay (which only needs
// WireSize) and the real-UDP transport used by examples/realnet.
//
// A message is declared in two places: its struct with Kind and body, where
// body walks the fields in wire order through the coder's primitives, and
// its row of the kinds table. Size, AppendMarshal and Unmarshal are the same
// walk in three passes, so the layout is stated once.
package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"net/netip"
)

// Protocol constants.
const (
	Version byte = 1

	// MaxPeerList is the maximum number of addresses in any peer list; the
	// paper observes lists of no more than 60 addresses.
	MaxPeerList = 60

	// SubPieceSize and SubPieceSizeSmall are the two sub-piece payload sizes
	// the paper reports (1380 and 690 bytes).
	SubPieceSize      = 1380
	SubPieceSizeSmall = 690

	headerLen  = 2 + 1 + 1 + 4 // magic, version, type, body length
	trailerLen = 4             // crc32
)

// Type identifies a message kind.
type Type byte

// Message kinds.
const (
	TChannelListRequest Type = iota + 1
	TChannelListResponse
	TPlaylinkRequest
	TPlaylinkResponse
	TTrackerAnnounce
	TTrackerQuery
	TTrackerResponse
	THandshake
	THandshakeAck
	TPeerListRequest
	TPeerListReply
	TBufferMap
	TDataRequest
	TDataReply
	THave
	TAsnQuery
	TAsnResponse
	TPing
	TPong
	TChoke
	maxType
)

// kinds holds every message type's name and constructor, indexed by Type.
var kinds = [maxType]struct {
	name string
	new  func() Message
}{
	TChannelListRequest:  {"ChannelListRequest", func() Message { return new(ChannelListRequest) }},
	TChannelListResponse: {"ChannelListResponse", func() Message { return new(ChannelListResponse) }},
	TPlaylinkRequest:     {"PlaylinkRequest", func() Message { return new(PlaylinkRequest) }},
	TPlaylinkResponse:    {"PlaylinkResponse", func() Message { return new(PlaylinkResponse) }},
	TTrackerAnnounce:     {"TrackerAnnounce", func() Message { return new(TrackerAnnounce) }},
	TTrackerQuery:        {"TrackerQuery", func() Message { return new(TrackerQuery) }},
	TTrackerResponse:     {"TrackerResponse", func() Message { return new(TrackerResponse) }},
	THandshake:           {"Handshake", func() Message { return new(Handshake) }},
	THandshakeAck:        {"HandshakeAck", func() Message { return new(HandshakeAck) }},
	TPeerListRequest:     {"PeerListRequest", func() Message { return new(PeerListRequest) }},
	TPeerListReply:       {"PeerListReply", func() Message { return new(PeerListReply) }},
	TBufferMap:           {"BufferMap", func() Message { return new(BufferMapAnnounce) }},
	TDataRequest:         {"DataRequest", func() Message { return new(DataRequest) }},
	TDataReply:           {"DataReply", func() Message { return new(DataReply) }},
	THave:                {"Have", func() Message { return new(Have) }},
	TAsnQuery:            {"AsnQuery", func() Message { return new(AsnQuery) }},
	TAsnResponse:         {"AsnResponse", func() Message { return new(AsnResponse) }},
	TPing:                {"Ping", func() Message { return new(Ping) }},
	TPong:                {"Pong", func() Message { return new(Pong) }},
	TChoke:               {"Choke", func() Message { return new(Choke) }},
}

// String returns a short name for the type.
func (t Type) String() string {
	if t < maxType && kinds[t].name != "" {
		return kinds[t].name
	}
	return fmt.Sprintf("Type(%d)", byte(t))
}

// Decoding errors.
var (
	ErrShort       = errors.New("wire: datagram too short")
	ErrBadMagic    = errors.New("wire: bad magic")
	ErrBadVersion  = errors.New("wire: unsupported version")
	ErrBadType     = errors.New("wire: unknown message type")
	ErrBadChecksum = errors.New("wire: checksum mismatch")
	ErrTruncated   = errors.New("wire: truncated body")
	// ErrNonCanonical rejects a body Marshal never produces: Unmarshal
	// accepts only what re-encodes to the same bytes.
	ErrNonCanonical = errors.New("wire: non-canonical encoding")
)

// Message is implemented by every protocol message.
type Message interface {
	// Kind returns the message type tag.
	Kind() Type
	// body walks the message's fields in wire order through c's primitives
	// and returns the advanced coder.
	body(c coder) coder
}

// ChannelID identifies a live channel.
type ChannelID uint32

// ChannelInfo is one entry of the bootstrap server's channel list.
type ChannelInfo struct {
	ID     ChannelID
	Rating uint32 // access-count based popularity rating
	Name   string
}

// minChannelInfo is the shortest encoded ChannelInfo: ID, Rating and the
// length byte of an empty Name.
const minChannelInfo = 4 + 4 + 1

// ChannelListRequest asks the bootstrap server for the active channel list.
type ChannelListRequest struct{}

// Kind implements Message.
func (*ChannelListRequest) Kind() Type         { return TChannelListRequest }
func (*ChannelListRequest) body(c coder) coder { return c }

// ChannelListResponse carries the active channel list.
type ChannelListResponse struct {
	Channels []ChannelInfo
}

// Kind implements Message.
func (*ChannelListResponse) Kind() Type { return TChannelListResponse }

func (m *ChannelListResponse) body(c coder) coder {
	n := uint16(len(m.Channels))
	c = c.u16(&n)
	if c.op == opRead {
		// Size the list by what the body can hold, not by what it claims.
		if len(c.b) < int(n)*minChannelInfo {
			return c.fail(opTruncated)
		}
		m.Channels = make([]ChannelInfo, n)
	}
	for i := range m.Channels {
		ch := &m.Channels[i]
		c = c.channel(&ch.ID).u32(&ch.Rating).str(&ch.Name)
	}
	return c
}

// PlaylinkRequest asks the bootstrap server for a channel's playlink and
// tracker set.
type PlaylinkRequest struct {
	Channel ChannelID
}

// Kind implements Message.
func (*PlaylinkRequest) Kind() Type           { return TPlaylinkRequest }
func (m *PlaylinkRequest) body(c coder) coder { return c.channel(&m.Channel) }

// PlaylinkResponse returns the channel source and one tracker address per
// tracker group (the paper observes five groups). Deployments with CDN edge
// caches additionally list the edges serving this channel, ordered by the
// bootstrap's affinity for the requester (same-ISP edges first); the list is
// a trailing optional field so deployments without edges keep the legacy
// encoding byte for byte.
type PlaylinkResponse struct {
	Channel  ChannelID
	Source   netip.Addr   // the channel's stream source
	Trackers []netip.Addr // one address per tracker group
	Edges    []netip.Addr // CDN edge caches, requester-affinity order (optional)
}

// Kind implements Message.
func (*PlaylinkResponse) Kind() Type { return TPlaylinkResponse }

func (m *PlaylinkResponse) body(c coder) coder {
	c = c.channel(&m.Channel).addr(&m.Source).addrs(&m.Trackers)
	present := len(m.Edges) > 0
	if c.op == opRead {
		present = len(c.b) > 0
	}
	if !present {
		return c
	}
	c = c.addrs(&m.Edges)
	if c.op == opRead && len(m.Edges) == 0 {
		return c.fail(opNonCanonical) // an empty list is encoded by leaving it out
	}
	return c
}

// TrackerAnnounce registers (or withdraws) the sender as an active peer of a
// channel with a tracker server.
type TrackerAnnounce struct {
	Channel ChannelID
	Leaving bool
	pooled  bool // made by NewTrackerAnnounce; see Release
}

// Kind implements Message.
func (*TrackerAnnounce) Kind() Type           { return TTrackerAnnounce }
func (m *TrackerAnnounce) body(c coder) coder { return c.channel(&m.Channel).flag(&m.Leaving) }

// TrackerQuery asks a tracker server for active peers of a channel.
type TrackerQuery struct {
	Channel ChannelID
	pooled  bool // made by NewTrackerQuery; see Release
}

// Kind implements Message.
func (*TrackerQuery) Kind() Type           { return TTrackerQuery }
func (m *TrackerQuery) body(c coder) coder { return c.channel(&m.Channel) }

// TrackerResponse carries a tracker's peer list.
type TrackerResponse struct {
	Channel ChannelID
	pooled  bool // made by NewTrackerResponse; see Release
	Peers   []netip.Addr
}

// Kind implements Message.
func (*TrackerResponse) Kind() Type           { return TTrackerResponse }
func (m *TrackerResponse) body(c coder) coder { return c.channel(&m.Channel).addrs(&m.Peers) }

// Handshake opens a neighbor relationship for a channel.
type Handshake struct {
	Channel ChannelID
}

// Kind implements Message.
func (*Handshake) Kind() Type           { return THandshake }
func (m *Handshake) body(c coder) coder { return c.channel(&m.Channel) }

// HandshakeAck accepts or rejects a handshake; on accept it carries the
// responder's current buffer map so the new neighbor can schedule requests
// immediately.
type HandshakeAck struct {
	Channel  ChannelID
	Accepted bool
	pooled   bool // made by NewHandshakeAck; see Release
	Buffer   BufferMap
}

// Kind implements Message.
func (*HandshakeAck) Kind() Type { return THandshakeAck }

func (m *HandshakeAck) body(c coder) coder {
	return c.channel(&m.Channel).flag(&m.Accepted).bufferMap(&m.Buffer)
}

// PeerListRequest asks a neighbor for its peer list; per the paper the
// requester encloses the peer list it maintains itself.
type PeerListRequest struct {
	Channel  ChannelID
	pooled   bool // made by NewPeerListRequest; see Release
	OwnPeers []netip.Addr
}

// Kind implements Message.
func (*PeerListRequest) Kind() Type           { return TPeerListRequest }
func (m *PeerListRequest) body(c coder) coder { return c.channel(&m.Channel).addrs(&m.OwnPeers) }

// PeerListReply returns a neighbor's recently connected peers (≤60).
type PeerListReply struct {
	Channel ChannelID
	pooled  bool // made by NewPeerListReply; see Release
	Peers   []netip.Addr
}

// Kind implements Message.
func (*PeerListReply) Kind() Type           { return TPeerListReply }
func (m *PeerListReply) body(c coder) coder { return c.channel(&m.Channel).addrs(&m.Peers) }

// BufferMap describes which sub-pieces a peer holds: a window starting at
// Start with one bit per sub-piece. Coverage is stored as 64-bit words so
// membership tests are a shift+mask and schedulers can intersect whole words;
// the wire encoding is byte-granular and unchanged (bit i of encoded byte j
// covers Start+8j+i, i.e. words serialize little-endian).
type BufferMap struct {
	Start uint64 // first sub-piece sequence covered
	// Words is the coverage bitmap: bit i of Words[w] covers Start+64w+i.
	// Bits at or beyond ByteLen*8 are always zero.
	Words []uint64
	// ByteLen is the window length in bytes as encoded on the wire.
	ByteLen int
}

// MakeBufferMap returns an all-zero map covering window sub-pieces from start.
func MakeBufferMap(start uint64, window int) BufferMap { return ResetBufferMap(nil, start, window) }

// ResetBufferMap is MakeBufferMap in words' storage, cleared, when it is
// large enough, and in a new array otherwise.
func ResetBufferMap(words []uint64, start uint64, window int) BufferMap {
	nbytes := (window + 7) / 8
	if n := (nbytes + 7) / 8; words == nil || cap(words) < n {
		words = make([]uint64, n)
	} else {
		words = words[:n]
		clear(words)
	}
	return BufferMap{Start: start, Words: words, ByteLen: nbytes}
}

// Bytes returns the byte-granular bitmap encoding (nil for an empty map).
func (bm *BufferMap) Bytes() []byte {
	if bm.ByteLen == 0 {
		return nil
	}
	return bm.appendBits(make([]byte, 0, bm.ByteLen))
}

// Has reports whether the map covers sub-piece seq.
func (bm *BufferMap) Has(seq uint64) bool {
	if seq < bm.Start {
		return false
	}
	i := seq - bm.Start
	if i >= uint64(bm.ByteLen)*8 {
		return false
	}
	return bm.Words[i/64]>>(i%64)&1 != 0
}

// Set marks sub-piece seq as held; out-of-window seqs are ignored.
func (bm *BufferMap) Set(seq uint64) {
	if seq < bm.Start {
		return
	}
	i := seq - bm.Start
	if i >= uint64(bm.ByteLen)*8 {
		return
	}
	bm.Words[i/64] |= 1 << (i % 64)
}

// SetRange marks sub-pieces [lo, hi] as held, clamped to the window.
func (bm *BufferMap) SetRange(lo, hi uint64) {
	if hi < bm.Start || bm.ByteLen == 0 {
		return
	}
	if lo < bm.Start {
		lo = bm.Start
	}
	end := bm.Start + uint64(bm.ByteLen)*8
	if lo >= end {
		return
	}
	if hi >= end {
		hi = end - 1
	}
	lw, hw := (lo-bm.Start)/64, (hi-bm.Start)/64
	loMask := ^uint64(0) << ((lo - bm.Start) % 64)
	hiMask := ^uint64(0) >> (63 - (hi-bm.Start)%64)
	if lw == hw {
		bm.Words[lw] |= loMask & hiMask
		return
	}
	bm.Words[lw] |= loMask
	for w := lw + 1; w < hw; w++ {
		bm.Words[w] = ^uint64(0)
	}
	bm.Words[hw] |= hiMask
}

// WordAt returns the 64-bit coverage word for sequences [seq, seq+64): bit i
// is set iff Has(seq+i). seq need not be aligned to the map's Start.
func (bm *BufferMap) WordAt(seq uint64) uint64 {
	if len(bm.Words) == 0 {
		return 0
	}
	if seq < bm.Start {
		gap := bm.Start - seq
		if gap >= 64 {
			return 0
		}
		return bm.Words[0] << gap
	}
	off := seq - bm.Start
	if off >= uint64(bm.ByteLen)*8 {
		return 0
	}
	w, b := off/64, off%64
	v := bm.Words[w] >> b
	if b != 0 && w+1 < uint64(len(bm.Words)) {
		v |= bm.Words[w+1] << (64 - b)
	}
	return v
}

// Window returns the number of sub-pieces covered by the map.
func (bm *BufferMap) Window() uint64 { return uint64(bm.ByteLen) * 8 }

// appendBits appends the byte-granular encoding of the coverage bitmap.
func (bm *BufferMap) appendBits(b []byte) []byte {
	full := bm.ByteLen / 8
	for w := 0; w < full; w++ {
		b = binary.LittleEndian.AppendUint64(b, bm.Words[w])
	}
	for k := full * 8; k < bm.ByteLen; k++ {
		b = append(b, byte(bm.Words[k/8]>>(8*(k%8))))
	}
	return b
}

// bytesToWords decodes the byte-granular bitmap into words appended to dst.
func bytesToWords(dst []uint64, bits []byte) []uint64 {
	full := len(bits) / 8
	for w := 0; w < full; w++ {
		dst = append(dst, binary.LittleEndian.Uint64(bits[w*8:]))
	}
	if tail := bits[full*8:]; len(tail) > 0 {
		var v uint64
		for k, c := range tail {
			v |= uint64(c) << (8 * k)
		}
		dst = append(dst, v)
	}
	return dst
}

func (bm *BufferMap) append(b []byte) []byte {
	b = binary.BigEndian.AppendUint64(b, bm.Start)
	b = binary.BigEndian.AppendUint16(b, uint16(bm.ByteLen))
	return bm.appendBits(b)
}

func (bm *BufferMap) size() int { return 8 + 2 + bm.ByteLen }

func (bm *BufferMap) read(b []byte) ([]byte, error) {
	if len(b) < 10 {
		return nil, ErrTruncated
	}
	bm.Start = binary.BigEndian.Uint64(b)
	n := int(binary.BigEndian.Uint16(b[8:]))
	b = b[10:]
	if len(b) < n {
		return nil, ErrTruncated
	}
	bm.ByteLen = n
	bm.Words = nil
	if n > 0 {
		bm.Words = bytesToWords(make([]uint64, 0, (n+7)/8), b[:n])
	}
	return b[n:], nil
}

// BufferMapAnnounce advertises the sender's buffer map to a neighbor.
type BufferMapAnnounce struct {
	Channel ChannelID
	pending int32 // made by NewBufferMapAnnounce: deliveries not yet released; see Release
	Buffer  BufferMap
}

// Kind implements Message.
func (*BufferMapAnnounce) Kind() Type           { return TBufferMap }
func (m *BufferMapAnnounce) body(c coder) coder { return c.channel(&m.Channel).bufferMap(&m.Buffer) }

// DataRequest asks a neighbor for Count consecutive sub-pieces starting at
// transmission sequence Seq. Full-fidelity probe peers always use Count=1
// (one datagram per sub-piece, the shape the paper's traces have); coarse
// background peers batch. The paper's trace matching pairs requests and
// replies on (peer address, sequence number).
type DataRequest struct {
	Channel ChannelID
	Seq     uint64
	Count   uint16
	pooled  bool // made by NewDataRequest; see Release
}

// Kind implements Message.
func (*DataRequest) Kind() Type           { return TDataRequest }
func (m *DataRequest) body(c coder) coder { return c.channel(&m.Channel).u64(&m.Seq).u16(&m.Count) }

// DataReply carries Count consecutive sub-pieces of PieceLen bytes each,
// starting at Seq. The codec emits Count*PieceLen filler bytes so
// on-the-wire sizes are faithful without shipping real video. Count=0
// signals a miss: Busy distinguishes "overloaded, try elsewhere" from
// "don't have it".
type DataReply struct {
	Channel  ChannelID
	Seq      uint64
	Count    uint16
	PieceLen uint16
	Busy     bool
	pooled   bool // made by NewDataReply; see Release
}

// PayloadLen returns the total video payload carried.
func (m *DataReply) PayloadLen() int { return int(m.Count) * int(m.PieceLen) }

// Kind implements Message.
func (*DataReply) Kind() Type { return TDataReply }

func (m *DataReply) body(c coder) coder {
	c = c.channel(&m.Channel).u64(&m.Seq).u16(&m.Count).u16(&m.PieceLen).flag(&m.Busy)
	return c.filler(m.PayloadLen()) // after the read pass has filled Count and PieceLen
}

// Have is a per-piece availability hint: the sender just acquired Count
// consecutive sub-pieces starting at Seq. Gossiping these to a few random
// neighbors makes piece propagation exponential instead of waiting for the
// next periodic buffer-map announcement — the swarming behaviour mesh-pull
// streaming systems rely on.
type Have struct {
	Channel ChannelID
	Seq     uint64
	Count   uint16
	pooled  bool  // made by NewHave; see Release
	pending int32 // deliveries not yet released; see SetDeliveries
}

// Kind implements Message.
func (*Have) Kind() Type           { return THave }
func (m *Have) body(c coder) coder { return c.channel(&m.Channel).u64(&m.Seq).u16(&m.Count) }

// AsnQuery asks the IP→ASN mapping service (the simulation's Team Cymru
// equivalent) to resolve an address.
type AsnQuery struct {
	Addr netip.Addr
}

// Kind implements Message.
func (*AsnQuery) Kind() Type           { return TAsnQuery }
func (m *AsnQuery) body(c coder) coder { return c.addr(&m.Addr) }

// AsnResponse resolves an address to its origin AS. Found=false means the
// address is outside every registered prefix.
type AsnResponse struct {
	Addr  netip.Addr
	Found bool
	ASN   uint32
	ISP   byte // isp.ISP value
	Name  string
}

// Kind implements Message.
func (*AsnResponse) Kind() Type { return TAsnResponse }

func (m *AsnResponse) body(c coder) coder {
	return c.addr(&m.Addr).flag(&m.Found).u32(&m.ASN).u8(&m.ISP).str(&m.Name)
}

// Ping is a neighbor keepalive probe: a peer that has heard nothing from a
// neighbor for a while sends one and expects a Pong echoing the nonce. A
// crashed neighbor never answers, so missed pongs drive failure detection far
// faster than the long gossip silence bound.
type Ping struct {
	Channel ChannelID
	Nonce   uint32
	pooled  bool // made by NewPing; see Release
}

// Kind implements Message.
func (*Ping) Kind() Type           { return TPing }
func (m *Ping) body(c coder) coder { return c.channel(&m.Channel).u32(&m.Nonce) }

// Pong answers a Ping, echoing its nonce.
type Pong struct {
	Channel ChannelID
	Nonce   uint32
	pooled  bool // made by NewPong; see Release
}

// Kind implements Message.
func (*Pong) Kind() Type           { return TPong }
func (m *Pong) body(c coder) coder { return c.channel(&m.Channel).u32(&m.Nonce) }

// Choke is BitTorrent's choke (Choked) or unchoke: whether the sender now
// refuses or serves the receiver's data requests. Only the tracker-only
// baseline swarm (internal/bittorrent) sends it.
type Choke struct {
	Channel ChannelID
	Choked  bool
}

// Kind implements Message.
func (*Choke) Kind() Type           { return TChoke }
func (m *Choke) body(c coder) coder { return c.channel(&m.Channel).flag(&m.Choked) }

// Marshal encodes a message into a self-delimiting datagram.
func Marshal(m Message) []byte {
	return AppendMarshal(make([]byte, 0, Size(m)), m)
}

// AppendMarshal appends the encoded datagram to dst and returns the extended
// slice. Transports that reuse send buffers call this to marshal without a
// per-datagram allocation.
func AppendMarshal(dst []byte, m Message) []byte {
	start := len(dst)
	dst = binary.BigEndian.AppendUint16(dst, magicValue)
	dst = append(dst, Version, byte(m.Kind()), 0, 0, 0, 0) // body length, known after the walk
	dst = m.body(coder{b: dst, op: opAppend}).b
	binary.BigEndian.PutUint32(dst[start+4:], uint32(len(dst)-start-headerLen))
	sum := crc32.ChecksumIEEE(dst[start:])
	return binary.BigEndian.AppendUint32(dst, sum)
}

// Size returns the wire size of a message without encoding it. It equals
// len(Marshal(m)) and never allocates — the simulated underlay calls it for
// every datagram.
func Size(m Message) int {
	return headerLen + int(m.body(coder{op: opSize}).n) + trailerLen
}

// Unmarshal decodes one datagram produced by Marshal; anything Marshal could
// not have produced is an error.
func Unmarshal(b []byte) (Message, error) {
	if len(b) < headerLen+trailerLen {
		return nil, ErrShort
	}
	if binary.BigEndian.Uint16(b) != magicValue {
		return nil, ErrBadMagic
	}
	if b[2] != Version {
		return nil, ErrBadVersion
	}
	t := Type(b[3])
	bodyLen := int(binary.BigEndian.Uint32(b[4:]))
	if len(b) != headerLen+bodyLen+trailerLen {
		return nil, ErrTruncated
	}
	wantSum := binary.BigEndian.Uint32(b[headerLen+bodyLen:])
	if crc32.ChecksumIEEE(b[:headerLen+bodyLen]) != wantSum {
		return nil, ErrBadChecksum
	}
	if t >= maxType || kinds[t].new == nil {
		return nil, fmt.Errorf("%w: %d", ErrBadType, byte(t))
	}
	m := kinds[t].new()
	c := m.body(coder{b: b[headerLen : headerLen+bodyLen], op: opRead})
	if err := failures[c.op]; err != nil {
		return nil, fmt.Errorf("decode %s: %w", t, err)
	}
	if len(c.b) != 0 {
		return nil, fmt.Errorf("decode %s: %d trailing body bytes", t, len(c.b))
	}
	return m, nil
}

// magicValue identifies protocol datagrams ("PL" for P2P Live).
const magicValue uint16 = 0x504C

// coder is one pass over a message body. It travels by value through
// Message.body — a *coder passed through the interface would escape and cost
// an allocation per Size — and stays at four words so the compiler keeps it
// in registers.
type coder struct {
	b  []byte // opAppend: the datagram so far; opRead: the body still unread
	n  uint32 // opSize: body bytes so far
	op uint32
}

// The passes. A read that fails turns into the op naming why, which every
// primitive then skips.
const (
	opSize uint32 = iota
	opAppend
	opRead
	opTruncated
	opNonCanonical
)

// failures maps a finished read's op to Unmarshal's error.
var failures = [...]error{opTruncated: ErrTruncated, opNonCanonical: ErrNonCanonical}

func (c coder) fail(op uint32) coder {
	c.op = op
	return c
}

func (c coder) u8(v *byte) coder {
	switch c.op {
	case opSize:
		c.n++
	case opAppend:
		c.b = append(c.b, *v)
	case opRead:
		if len(c.b) < 1 {
			return c.fail(opTruncated)
		}
		*v, c.b = c.b[0], c.b[1:]
	}
	return c
}

func (c coder) u16(v *uint16) coder {
	switch c.op {
	case opSize:
		c.n += 2
	case opAppend:
		c.b = binary.BigEndian.AppendUint16(c.b, *v)
	case opRead:
		if len(c.b) < 2 {
			return c.fail(opTruncated)
		}
		*v, c.b = binary.BigEndian.Uint16(c.b), c.b[2:]
	}
	return c
}

func (c coder) u32(v *uint32) coder {
	switch c.op {
	case opSize:
		c.n += 4
	case opAppend:
		c.b = binary.BigEndian.AppendUint32(c.b, *v)
	case opRead:
		if len(c.b) < 4 {
			return c.fail(opTruncated)
		}
		*v, c.b = binary.BigEndian.Uint32(c.b), c.b[4:]
	}
	return c
}

func (c coder) u64(v *uint64) coder {
	switch c.op {
	case opSize:
		c.n += 8
	case opAppend:
		c.b = binary.BigEndian.AppendUint64(c.b, *v)
	case opRead:
		if len(c.b) < 8 {
			return c.fail(opTruncated)
		}
		*v, c.b = binary.BigEndian.Uint64(c.b), c.b[8:]
	}
	return c
}

func (c coder) channel(v *ChannelID) coder { return c.u32((*uint32)(v)) }

// flag is a bool as one byte, 0 or 1 and nothing else.
func (c coder) flag(v *bool) coder {
	var b byte
	if *v {
		b = 1
	}
	c = c.u8(&b)
	if c.op == opRead {
		if b > 1 {
			return c.fail(opNonCanonical)
		}
		*v = b == 1
	}
	return c
}

func (c coder) addr(v *netip.Addr) coder {
	switch c.op {
	case opSize:
		c.n += 4
	case opAppend:
		a := v.As4()
		c.b = append(c.b, a[:]...)
	case opRead:
		if len(c.b) < 4 {
			return c.fail(opTruncated)
		}
		*v, c.b = netip.AddrFrom4([4]byte(c.b)), c.b[4:]
	}
	return c
}

// addrs is a count byte and that many addresses; a longer list is cut to 255.
// It loops per pass rather than through addr: a 60-address list is the
// longest walk the codec does.
func (c coder) addrs(v *[]netip.Addr) coder {
	n := byte(min(len(*v), 255))
	c = c.u8(&n)
	switch c.op {
	case opSize:
		c.n += 4 * uint32(n)
	case opAppend:
		for _, a := range (*v)[:n] {
			a4 := a.As4()
			c.b = append(c.b, a4[:]...)
		}
	case opRead:
		if len(c.b) < 4*int(n) {
			return c.fail(opTruncated)
		}
		list := make([]netip.Addr, n)
		for i := range list {
			list[i], c.b = netip.AddrFrom4([4]byte(c.b)), c.b[4:]
		}
		*v = list
	}
	return c
}

// str is a length byte and that many bytes; a longer string is cut to 255.
func (c coder) str(v *string) coder {
	n := byte(min(len(*v), 255))
	c = c.u8(&n)
	switch c.op {
	case opSize:
		c.n += uint32(n)
	case opAppend:
		c.b = append(c.b, (*v)[:n]...)
	case opRead:
		if len(c.b) < int(n) {
			return c.fail(opTruncated)
		}
		*v, c.b = string(c.b[:n]), c.b[n:]
	}
	return c
}

func (c coder) bufferMap(bm *BufferMap) coder {
	switch c.op {
	case opSize:
		c.n += uint32(bm.size())
	case opAppend:
		c.b = bm.append(c.b)
	case opRead:
		rest, err := bm.read(c.b)
		if err != nil {
			return c.fail(opTruncated)
		}
		c.b = rest
	}
	return c
}

// zeroChunk is the filler: appended without a scratch slice per datagram,
// and what a decoded payload must equal.
var zeroChunk [4096]byte

// filler is n zero bytes standing in for video payload.
func (c coder) filler(n int) coder {
	switch c.op {
	case opSize:
		c.n += uint32(n)
	case opAppend:
		for ; n > 0; n -= min(n, len(zeroChunk)) {
			c.b = append(c.b, zeroChunk[:min(n, len(zeroChunk))]...)
		}
	case opRead:
		if len(c.b) < n {
			return c.fail(opTruncated)
		}
		for n > 0 {
			k := min(n, len(zeroChunk))
			if !bytes.Equal(c.b[:k], zeroChunk[:k]) {
				return c.fail(opNonCanonical)
			}
			c.b, n = c.b[k:], n-k
		}
	}
	return c
}
