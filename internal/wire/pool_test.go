package wire

import (
	"bytes"
	"net/netip"
	"testing"
	"unsafe"
)

// TestPooledMessageSizes pins the size of every recycled struct: the pooled
// flag and the delivery count live in padding, so recycling must not grow a
// message that a fan-out or a full link carries by the thousand.
func TestPooledMessageSizes(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"DataRequest", unsafe.Sizeof(DataRequest{}), 24},
		{"DataReply", unsafe.Sizeof(DataReply{}), 24},
		{"Have", unsafe.Sizeof(Have{}), 24},
		{"HandshakeAck", unsafe.Sizeof(HandshakeAck{}), 48},
		{"PeerListRequest", unsafe.Sizeof(PeerListRequest{}), 32},
		{"PeerListReply", unsafe.Sizeof(PeerListReply{}), 32},
		{"BufferMapAnnounce", unsafe.Sizeof(BufferMapAnnounce{}), 48},
		{"TrackerAnnounce", unsafe.Sizeof(TrackerAnnounce{}), 8},
		{"TrackerQuery", unsafe.Sizeof(TrackerQuery{}), 8},
		{"TrackerResponse", unsafe.Sizeof(TrackerResponse{}), 32},
		{"Ping", unsafe.Sizeof(Ping{}), 12},
		{"Pong", unsafe.Sizeof(Pong{}), 12},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d bytes, want %d", c.name, c.got, c.want)
		}
	}
}

// TestRecycledMessages: a constructor-made message encodes exactly like the
// literal with the same fields, Release zeroes it, and Release leaves every
// message no constructor made untouched.
func TestRecycledMessages(t *testing.T) {
	for _, c := range []struct {
		made, literal Message
	}{
		{NewDataRequest(3, 1<<40, 8), &DataRequest{Channel: 3, Seq: 1 << 40, Count: 8}},
		{NewDataReply(3, 77, 2, SubPieceSize, false), &DataReply{Channel: 3, Seq: 77, Count: 2, PieceLen: SubPieceSize}},
		{NewDataReply(3, 77, 0, SubPieceSize, true), &DataReply{Channel: 3, Seq: 77, PieceLen: SubPieceSize, Busy: true}},
		{NewHave(3, 9, 1), &Have{Channel: 3, Seq: 9, Count: 1}},
		{NewHandshakeAck(3, false), &HandshakeAck{Channel: 3}},
		{NewPeerListRequest(3), &PeerListRequest{Channel: 3}},
		{NewPeerListReply(3), &PeerListReply{Channel: 3}},
		{NewBufferMapAnnounce(3), &BufferMapAnnounce{Channel: 3}},
		{NewTrackerAnnounce(3, false), &TrackerAnnounce{Channel: 3}},
		{NewTrackerAnnounce(3, true), &TrackerAnnounce{Channel: 3, Leaving: true}},
		{NewTrackerQuery(3), &TrackerQuery{Channel: 3}},
		{NewTrackerResponse(3), &TrackerResponse{Channel: 3}},
		{NewPing(3, 41), &Ping{Channel: 3, Nonce: 41}},
		{NewPong(3, 41), &Pong{Channel: 3, Nonce: 41}},
	} {
		if got, want := Marshal(c.made), Marshal(c.literal); !bytes.Equal(got, want) {
			t.Errorf("%s: constructor encodes %x, literal %x", c.made.Kind(), got, want)
		}
		before := Marshal(c.literal)
		Release(c.literal)
		if after := Marshal(c.literal); !bytes.Equal(after, before) {
			t.Errorf("%s: Release changed a literal", c.literal.Kind())
		}
		kind := c.made.Kind()
		Release(c.made)
		if zero := kinds[kind].new(); !bytes.Equal(Marshal(c.made), Marshal(zero)) {
			t.Errorf("%s: Release left the message non-zero", kind)
		}
	}
	// The flag is the constructor's alone: a decoded copy is a literal.
	decoded, err := Unmarshal(Marshal(NewHave(1, 2, 3)))
	if err != nil {
		t.Fatal(err)
	}
	if decoded.(*Have).pooled {
		t.Error("Unmarshal returned a message Release would recycle")
	}
	decoded, err = Unmarshal(Marshal(NewBufferMapAnnounce(1)))
	if err != nil {
		t.Fatal(err)
	}
	if decoded.(*BufferMapAnnounce).pending != 0 {
		t.Error("Unmarshal returned a BufferMapAnnounce Release would recycle")
	}
}

// TestRecycledControlMessages: the control-plane constructors hand out
// messages whose slices are empty but keep the storage of the previous use,
// so a sender's append reuses it, and a filled message encodes like the
// literal with the same contents.
func TestRecycledControlMessages(t *testing.T) {
	a, b := netip.MustParseAddr("58.32.0.1"), netip.MustParseAddr("60.0.0.1")
	ack := NewHandshakeAck(3, true)
	ack.Buffer = ResetBufferMap(ack.Buffer.Words, 64, 2048)
	ack.Buffer.SetRange(70, 90)
	want := &HandshakeAck{Channel: 3, Accepted: true, Buffer: MakeBufferMap(64, 2048)}
	want.Buffer.SetRange(70, 90)
	request := NewPeerListRequest(3)
	request.OwnPeers = append(request.OwnPeers, a, b)
	reply := NewPeerListReply(3)
	reply.Peers = append(reply.Peers, b)
	announce := NewBufferMapAnnounce(3)
	announce.Buffer = ResetBufferMap(announce.Buffer.Words, 128, 1024)
	announce.Buffer.SetRange(130, 700)
	wantMap := &BufferMapAnnounce{Channel: 3, Buffer: MakeBufferMap(128, 1024)}
	wantMap.Buffer.SetRange(130, 700)
	response := NewTrackerResponse(3)
	response.Peers = append(response.Peers, a, b)
	for _, c := range []struct{ made, literal Message }{
		{ack, want},
		{request, &PeerListRequest{Channel: 3, OwnPeers: []netip.Addr{a, b}}},
		{reply, &PeerListReply{Channel: 3, Peers: []netip.Addr{b}}},
		{announce, wantMap},
		{response, &TrackerResponse{Channel: 3, Peers: []netip.Addr{a, b}}},
	} {
		if got, want := Marshal(c.made), Marshal(c.literal); !bytes.Equal(got, want) {
			t.Errorf("%s: constructor encodes %x, literal %x", c.made.Kind(), got, want)
		}
		Release(c.made)
	}
	for name, c := range map[string]struct{ len, cap int }{
		"HandshakeAck.Buffer.Words":      {len(ack.Buffer.Words), cap(ack.Buffer.Words)},
		"PeerListRequest.OwnPeers":       {len(request.OwnPeers), cap(request.OwnPeers)},
		"PeerListReply.Peers":            {len(reply.Peers), cap(reply.Peers)},
		"BufferMapAnnounce.Buffer.Words": {len(announce.Buffer.Words), cap(announce.Buffer.Words)},
		"TrackerResponse.Peers":          {len(response.Peers), cap(response.Peers)},
	} {
		if c.len != 0 || c.cap == 0 {
			t.Errorf("released %s has length %d, capacity %d; want 0 and the storage kept", name, c.len, c.cap)
		}
	}
	if ack.Accepted || ack.Buffer.ByteLen != 0 || request.Channel != 0 || reply.Channel != 0 ||
		announce.Channel != 0 || announce.Buffer.Start != 0 || announce.Buffer.ByteLen != 0 || response.Channel != 0 {
		t.Error("Release left a control message's scalars set")
	}
}

// TestCountedHave: a Have sent to n destinations goes back to the pool at
// the n-th release and not before.
func TestCountedHave(t *testing.T) {
	m := NewHave(3, 9, 1)
	m.SetDeliveries(3)
	Release(m)
	Release(m)
	if m.Seq != 9 {
		t.Fatal("a Have with one delivery outstanding was recycled")
	}
	Release(m)
	if m.Seq != 0 || m.pooled {
		t.Fatal("the last delivery did not recycle the Have")
	}
}

// TestCountedBufferMapAnnounce: an announce sent to n destinations keeps its
// map through n-1 releases and is recycled, words kept, at the n-th; a
// further release of the recycled message does nothing.
func TestCountedBufferMapAnnounce(t *testing.T) {
	for _, n := range []int{1, 2, 6} {
		m := NewBufferMapAnnounce(3)
		m.Buffer = ResetBufferMap(m.Buffer.Words, 64, 512)
		m.Buffer.SetRange(64, 200)
		m.SetDeliveries(n)
		for i := 1; i < n; i++ {
			Release(m)
			if m.Channel != 3 || !m.Buffer.Has(200) {
				t.Fatalf("an announce to %d destinations was recycled at release %d", n, i)
			}
		}
		words := m.Buffer.Words
		Release(m)
		if m.Channel != 0 || m.pending != 0 || len(m.Buffer.Words) != 0 || cap(m.Buffer.Words) != cap(words) {
			t.Fatalf("release %d of %d left channel %d, %d pending, %d of %d words", n, n, m.Channel, m.pending, len(m.Buffer.Words), cap(m.Buffer.Words))
		}
		Release(m)
		if m.pending != 0 {
			t.Fatalf("releasing a recycled announce set its count to %d", m.pending)
		}
	}
}
