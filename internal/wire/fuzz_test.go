package wire

import (
	"net/netip"
	"testing"
)

// FuzzUnmarshal drives the decoder with arbitrary datagrams; it must never
// panic, and anything it accepts must re-encode canonically.
func FuzzUnmarshal(f *testing.F) {
	for _, m := range fuzzSeeds() {
		f.Add(Marshal(m))
	}
	f.Add([]byte{})
	f.Add([]byte{0x50, 0x4C, 1, 1, 0, 0, 0, 0})
	// What the fuzzer cannot reach by mutation, because it cannot repair the
	// checksum: well-framed bodies that are not canonical.
	for _, d := range nonCanonicalDatagrams() {
		f.Add(d.data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := Unmarshal(data)
		if err != nil {
			return
		}
		// Accepted datagrams must re-encode to exactly the input
		// (canonical encoding) — modulo nothing: header, body, CRC.
		again := Marshal(msg)
		if string(again) != string(data) {
			t.Fatalf("non-canonical accept:\n in  %x\n out %x", data, again)
		}
	})
}

// fuzzSeeds is the in-code seed list: one small message per shape, then the
// golden-trace-shaped ones.
func fuzzSeeds() []Message {
	seeds := []Message{
		&ChannelListRequest{},
		&ChannelListResponse{Channels: []ChannelInfo{{ID: 1, Rating: 5, Name: "ch"}}},
		&PlaylinkResponse{Channel: 1, Source: netip.MustParseAddr("1.2.3.4"),
			Trackers: []netip.Addr{netip.MustParseAddr("5.6.7.8")}},
		&TrackerResponse{Channel: 1, Peers: []netip.Addr{netip.MustParseAddr("9.9.9.9")}},
		&HandshakeAck{Channel: 1, Accepted: true, Buffer: BufferMapFromBytes(10, []byte{0xff})},
		&PeerListRequest{Channel: 1, OwnPeers: []netip.Addr{netip.MustParseAddr("2.2.2.2")}},
		&DataRequest{Channel: 1, Seq: 99, Count: 4},
		&DataReply{Channel: 1, Seq: 99, Count: 1, PieceLen: 690},
		&Have{Channel: 1, Seq: 5, Count: 2},
		&AsnQuery{Addr: netip.MustParseAddr("58.32.0.1")},
		&AsnResponse{Addr: netip.MustParseAddr("58.32.0.1"), Found: true, ASN: 4134, ISP: 1, Name: "CHINANET"},
		&Ping{Channel: 1, Nonce: 0xDEADBEEF},
		&Pong{Channel: 1, Nonce: 0xDEADBEEF},
		&Choke{Channel: 1, Choked: true},
		&PlaylinkRequest{Channel: 1},
		&PlaylinkResponse{Channel: 1, Source: netip.MustParseAddr("1.2.3.4"),
			Trackers: []netip.Addr{netip.MustParseAddr("5.6.7.8")},
			Edges:    []netip.Addr{netip.MustParseAddr("61.200.0.1")}},
	}
	// The baseline swarm's bitfield: a 1200-piece map from 0, half held.
	bitfield := MakeBufferMap(0, 1200)
	bitfield.SetRange(0, 599)
	seeds = append(seeds, &BufferMapAnnounce{Channel: 1, Buffer: bitfield})
	// Golden-trace-shaped seeds: the shapes the simulator actually puts on
	// the wire (2048-sub-piece buffer windows, full 60-entry tracker
	// replies), mirrored by the committed corpus in testdata/fuzz.
	return append(seeds, goldenShapedSeeds()...)
}

// goldenShapedSeeds builds messages with the dimensions of the pinned golden
// scenarios: a DefaultConfig peer announces a 2048-sub-piece (256-byte)
// buffer map around a mid-stream playhead, and trackers return up to
// MaxPeerList addresses drawn from the simulation's ISP address blocks.
func goldenShapedSeeds() []Message {
	bm := MakeBufferMap(481000, 2048)
	bm.SetRange(481000, 482023)
	bm.Set(482100)
	bm.Set(482741)
	peers := make([]netip.Addr, MaxPeerList)
	for i := range peers {
		// Cycle through the scenario address plan's leading octets.
		first := []byte{58, 60, 59, 121, 129}[i%5]
		peers[i] = netip.AddrFrom4([4]byte{first, 32, byte(i >> 8), byte(i)})
	}
	return []Message{
		&BufferMapAnnounce{Channel: 1, Buffer: bm},
		&HandshakeAck{Channel: 1, Accepted: true, Buffer: bm},
		&TrackerResponse{Channel: 1, Peers: peers},
		&PeerListReply{Channel: 1, Peers: peers[:20]},
	}
}
