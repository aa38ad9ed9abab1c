package wire

import (
	"bytes"
	"net/netip"
	"testing"
)

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
	for _, c := range []struct{ made, literal Message }{
		{ack, want},
		{request, &PeerListRequest{Channel: 3, OwnPeers: []netip.Addr{a, b}}},
		{reply, &PeerListReply{Channel: 3, Peers: []netip.Addr{b}}},
	} {
		if got, want := Marshal(c.made), Marshal(c.literal); !bytes.Equal(got, want) {
			t.Errorf("%s: constructor encodes %x, literal %x", c.made.Kind(), got, want)
		}
		Release(c.made)
	}
	for name, c := range map[string]struct{ len, cap int }{
		"HandshakeAck.Buffer.Words": {len(ack.Buffer.Words), cap(ack.Buffer.Words)},
		"PeerListRequest.OwnPeers":  {len(request.OwnPeers), cap(request.OwnPeers)},
		"PeerListReply.Peers":       {len(reply.Peers), cap(reply.Peers)},
	} {
		if c.len != 0 || c.cap == 0 {
			t.Errorf("released %s has length %d, capacity %d; want 0 and the storage kept", name, c.len, c.cap)
		}
	}
	if ack.Accepted || ack.Buffer.ByteLen != 0 || request.Channel != 0 || reply.Channel != 0 {
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
