package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"
)

func addr(s string) netip.Addr { return netip.MustParseAddr(s) }

func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	b := Marshal(m)
	if len(b) != Size(m) {
		t.Errorf("%s: Size() = %d, marshaled length = %d", m.Kind(), Size(m), len(b))
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatalf("%s: Unmarshal: %v", m.Kind(), err)
	}
	if got.Kind() != m.Kind() {
		t.Fatalf("round trip changed type: %s → %s", m.Kind(), got.Kind())
	}
	return got
}

func TestRoundTripAllTypes(t *testing.T) {
	msgs := []Message{
		&ChannelListRequest{},
		&ChannelListResponse{Channels: []ChannelInfo{
			{ID: 1, Rating: 990000, Name: "CCTV-5"},
			{ID: 2, Rating: 12, Name: "niche channel"},
		}},
		&PlaylinkRequest{Channel: 7},
		&PlaylinkResponse{
			Channel:  7,
			Source:   addr("58.32.0.9"),
			Trackers: []netip.Addr{addr("61.128.0.1"), addr("60.0.0.1"), addr("59.64.0.1"), addr("61.129.0.1"), addr("60.1.0.1")},
		},
		&PlaylinkResponse{
			Channel:  7,
			Source:   addr("58.32.0.9"),
			Trackers: []netip.Addr{addr("61.128.0.1"), addr("60.0.0.1"), addr("59.64.0.1"), addr("61.129.0.1"), addr("60.1.0.1")},
			Edges:    []netip.Addr{addr("61.200.0.1"), addr("60.200.0.1")},
		},
		&TrackerAnnounce{Channel: 7, Leaving: true},
		&TrackerQuery{Channel: 7},
		&TrackerResponse{Channel: 7, Peers: []netip.Addr{addr("1.2.3.4"), addr("5.6.7.8")}},
		&Handshake{Channel: 7},
		&HandshakeAck{Channel: 7, Accepted: true, Buffer: BufferMapFromBytes(100, []byte{0xff, 0x01})},
		&PeerListRequest{Channel: 7, OwnPeers: []netip.Addr{addr("9.9.9.9")}},
		&PeerListReply{Channel: 7, Peers: []netip.Addr{addr("2.2.2.2"), addr("3.3.3.3")}},
		&BufferMapAnnounce{Channel: 7, Buffer: BufferMapFromBytes(42, []byte{0x0f})},
		&DataRequest{Channel: 7, Seq: 123456789, Count: 1},
		&DataReply{Channel: 7, Seq: 123456789, Count: 1, PieceLen: SubPieceSize},
		&DataReply{Channel: 7, Seq: 42, Count: 16, PieceLen: SubPieceSize},
		&Have{Channel: 7, Seq: 987654, Count: 3},
		&AsnQuery{Addr: addr("202.96.0.1")},
		&AsnResponse{Addr: addr("202.96.0.1"), Found: true, ASN: 4134, ISP: 1, Name: "CHINANET"},
	}
	for _, m := range msgs {
		got := roundTrip(t, m)
		if !reflect.DeepEqual(normalize(got), normalize(m)) {
			t.Errorf("%s round trip mismatch:\n got %#v\nwant %#v", m.Kind(), got, m)
		}
	}
}

// normalize maps nil and empty slices to a canonical form for DeepEqual.
func normalize(m Message) Message {
	switch v := m.(type) {
	case *TrackerResponse:
		if len(v.Peers) == 0 {
			v.Peers = nil
		}
	case *PeerListRequest:
		if len(v.OwnPeers) == 0 {
			v.OwnPeers = nil
		}
	case *PeerListReply:
		if len(v.Peers) == 0 {
			v.Peers = nil
		}
	case *PlaylinkResponse:
		if len(v.Trackers) == 0 {
			v.Trackers = nil
		}
		if len(v.Edges) == 0 {
			v.Edges = nil
		}
	case *ChannelListResponse:
		if len(v.Channels) == 0 {
			v.Channels = nil
		}
	}
	return m
}

// TestPlaylinkEdgesEncodingCompat pins the backward compatibility of the
// Edges extension: a response without edges must encode to exactly the
// pre-extension byte layout (the golden digests hash record sizes, so even
// one extra length byte would shift them), and the edge list rides as a
// strictly appended trailing section.
func TestPlaylinkEdgesEncodingCompat(t *testing.T) {
	base := &PlaylinkResponse{
		Channel:  7,
		Source:   addr("58.32.0.9"),
		Trackers: []netip.Addr{addr("61.128.0.1"), addr("60.0.0.1")},
	}
	edges := []netip.Addr{addr("61.200.0.1"), addr("60.200.0.1")}
	plain := Marshal(base)
	withEdges := Marshal(&PlaylinkResponse{Channel: base.Channel, Source: base.Source, Trackers: base.Trackers, Edges: edges})

	if want := len(plain) + 1 + 4*len(edges); len(withEdges) != want {
		t.Errorf("with-edges encoding is %d bytes, want %d (legacy + 1 count byte + 4 per edge)", len(withEdges), want)
	}
	// Bodies: the legacy body must be a strict prefix of the extended one
	// (the 8-byte header's length field and the CRC trailer differ, of
	// course). The datagram layout is header | body | crc32.
	const header, trailer = 8, 4
	plainBody := plain[header : len(plain)-trailer]
	extBody := withEdges[header : len(withEdges)-trailer]
	for i := range plainBody {
		if extBody[i] != plainBody[i] {
			t.Fatalf("body byte %d differs: edges must be appended, never reshuffle the legacy layout", i)
		}
	}

	// Legacy bytes (no trailing section) decode to a nil edge list.
	got, err := Unmarshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	if resp := got.(*PlaylinkResponse); len(resp.Edges) != 0 {
		t.Errorf("legacy encoding decoded with edges %v", resp.Edges)
	}
}

func TestDataReplyWireSizeIncludesPayload(t *testing.T) {
	small := Size(&DataReply{Count: 0, PieceLen: SubPieceSize})
	one := Size(&DataReply{Count: 1, PieceLen: SubPieceSize})
	batch := Size(&DataReply{Count: 16, PieceLen: SubPieceSize})
	if one-small != SubPieceSize {
		t.Errorf("single payload delta = %d, want %d", one-small, SubPieceSize)
	}
	if batch-small != 16*SubPieceSize {
		t.Errorf("batch payload delta = %d, want %d", batch-small, 16*SubPieceSize)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	valid := Marshal(&Handshake{Channel: 3})

	t.Run("short", func(t *testing.T) {
		if _, err := Unmarshal(valid[:5]); err != ErrShort {
			t.Errorf("err = %v, want ErrShort", err)
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		b := append([]byte(nil), valid...)
		b[0] ^= 0xff
		if _, err := Unmarshal(b); err != ErrBadMagic {
			t.Errorf("err = %v, want ErrBadMagic", err)
		}
	})
	t.Run("bad version", func(t *testing.T) {
		b := append([]byte(nil), valid...)
		b[2] = 99
		if _, err := Unmarshal(b); err != ErrBadVersion {
			t.Errorf("err = %v, want ErrBadVersion", err)
		}
	})
	t.Run("corrupt body", func(t *testing.T) {
		b := append([]byte(nil), valid...)
		b[len(b)-6] ^= 0xff // inside body
		if _, err := Unmarshal(b); err != ErrBadChecksum {
			t.Errorf("err = %v, want ErrBadChecksum", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		b := append([]byte(nil), valid...)
		if _, err := Unmarshal(b[:len(b)-1]); err != ErrTruncated {
			t.Errorf("err = %v, want ErrTruncated", err)
		}
	})
	t.Run("unknown type", func(t *testing.T) {
		if _, err := Unmarshal(frame(maxType+10, nil)); !errors.Is(err, ErrBadType) {
			t.Errorf("err = %v, want ErrBadType", err)
		}
	})
}

// frame wraps a hand-built body in a valid header and checksum, so a test
// reaches the body decoder with bytes Marshal would never produce.
func frame(t Type, body []byte) []byte {
	b := binary.BigEndian.AppendUint16(nil, magicValue)
	b = append(b, Version, byte(t))
	b = binary.BigEndian.AppendUint32(b, uint32(len(body)))
	b = append(b, body...)
	return binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

func TestBufferMapHasSet(t *testing.T) {
	bm := MakeBufferMap(100, 32) // covers 100..131
	for _, seq := range []uint64{100, 101, 115, 131} {
		if bm.Has(seq) {
			t.Errorf("fresh map Has(%d) = true", seq)
		}
		bm.Set(seq)
		if !bm.Has(seq) {
			t.Errorf("after Set, Has(%d) = false", seq)
		}
	}
	// Out of window: ignored, no panic.
	bm.Set(99)
	bm.Set(132)
	if bm.Has(99) || bm.Has(132) {
		t.Error("out-of-window seq reported as held")
	}
	if bm.Window() != 32 {
		t.Errorf("Window() = %d, want 32", bm.Window())
	}
}

func TestPeerListTruncationAt255(t *testing.T) {
	peers := make([]netip.Addr, 300)
	for i := range peers {
		peers[i] = netip.AddrFrom4([4]byte{10, 0, byte(i / 256), byte(i % 256)})
	}
	m := &PeerListReply{Channel: 1, Peers: peers}
	got, err := Unmarshal(Marshal(m))
	if err != nil {
		t.Fatal(err)
	}
	reply, ok := got.(*PeerListReply)
	if !ok {
		t.Fatalf("decoded %T", got)
	}
	if len(reply.Peers) != 255 {
		t.Errorf("decoded %d peers, want truncation to 255", len(reply.Peers))
	}
}

// Property: DataRequest round-trips for arbitrary channel/seq.
func TestPropertyDataRequestRoundTrip(t *testing.T) {
	f := func(ch uint32, seq uint64, count uint16) bool {
		m := &DataRequest{Channel: ChannelID(ch), Seq: seq, Count: count}
		got, err := Unmarshal(Marshal(m))
		if err != nil {
			return false
		}
		g, ok := got.(*DataRequest)
		return ok && g.Channel == m.Channel && g.Seq == m.Seq && g.Count == m.Count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Error(err)
	}
}

// Property: peer lists of arbitrary IPv4 addresses round-trip.
func TestPropertyPeerListRoundTrip(t *testing.T) {
	f := func(raw [][4]byte) bool {
		if len(raw) > 60 {
			raw = raw[:60]
		}
		peers := make([]netip.Addr, len(raw))
		for i, b := range raw {
			peers[i] = netip.AddrFrom4(b)
		}
		m := &PeerListReply{Channel: 5, Peers: peers}
		got, err := Unmarshal(Marshal(m))
		if err != nil {
			return false
		}
		g, ok := got.(*PeerListReply)
		if !ok || len(g.Peers) != len(peers) {
			return false
		}
		for i := range peers {
			if g.Peers[i] != peers[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(6))}); err != nil {
		t.Error(err)
	}
}

// Property: BufferMap encoding round-trips and Has() is preserved.
func TestPropertyBufferMapRoundTrip(t *testing.T) {
	f := func(start uint64, bits []byte) bool {
		if len(bits) > 512 {
			bits = bits[:512]
		}
		m := &BufferMapAnnounce{Channel: 1, Buffer: BufferMapFromBytes(start, bits)}
		got, err := Unmarshal(Marshal(m))
		if err != nil {
			return false
		}
		g, ok := got.(*BufferMapAnnounce)
		if !ok || g.Buffer.Start != start || g.Buffer.ByteLen != len(bits) {
			return false
		}
		dec := g.Buffer.Bytes()
		for i := range bits {
			if dec[i] != bits[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(8))}); err != nil {
		t.Error(err)
	}
}

// Property: the word-based primitives agree with a per-bit reference model
// over random windows and offsets, including partial trailing words and
// probes below/above the window.
func TestPropertyBufferMapWordOps(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 300; iter++ {
		start := uint64(rng.Intn(5000)) + 64 // keep probes below start representable
		nbytes := rng.Intn(70)
		bits := make([]byte, nbytes)
		rng.Read(bits)
		bm := BufferMapFromBytes(start, bits)

		ref := make(map[uint64]bool)
		for k, c := range bits {
			for i := 0; i < 8; i++ {
				if c&(1<<i) != 0 {
					ref[start+uint64(8*k+i)] = true
				}
			}
		}
		// A random SetRange on both representations.
		if nbytes > 0 && rng.Intn(2) == 0 {
			lo := start - 10 + uint64(rng.Intn(8*nbytes+20))
			hi := lo + uint64(rng.Intn(200))
			bm.SetRange(lo, hi)
			for seq := lo; seq <= hi; seq++ {
				if seq >= start && seq-start < uint64(8*nbytes) {
					ref[seq] = true
				}
			}
		}
		for probe := 0; probe < 200; probe++ {
			seq := start - 70 + uint64(rng.Intn(8*nbytes+140))
			if bm.Has(seq) != ref[seq] {
				t.Fatalf("iter %d: Has(%d) = %v, ref %v (start=%d bytes=%d)",
					iter, seq, bm.Has(seq), ref[seq], start, nbytes)
			}
			w := bm.WordAt(seq)
			for i := uint64(0); i < 64; i++ {
				if w>>i&1 != 0 != ref[seq+i] {
					t.Fatalf("iter %d: WordAt(%d) bit %d = %d, ref %v",
						iter, seq, i, w>>i&1, ref[seq+i])
				}
			}
		}
		// The byte view must round-trip the word store exactly.
		got := bm.Bytes()
		if nbytes == 0 {
			if got != nil {
				t.Fatalf("iter %d: empty map Bytes() = %x", iter, got)
			}
			continue
		}
		for k := range bits {
			want := bits[k]
			for i := 0; i < 8; i++ {
				if ref[start+uint64(8*k+i)] {
					want |= 1 << i
				}
			}
			if got[k] != want {
				t.Fatalf("iter %d: Bytes()[%d] = %#x, want %#x", iter, k, got[k], want)
			}
		}
	}
}

// TestKindsTable pins the one table Type.String and Unmarshal read: every
// type has a row whose constructor builds that type, and the values either
// side of the range have none.
func TestKindsTable(t *testing.T) {
	for tt := Type(1); tt < maxType; tt++ {
		row := kinds[tt]
		if row.name == "" || row.new == nil {
			t.Errorf("Type(%d) has no kinds row", byte(tt))
			continue
		}
		if got := row.new().Kind(); got != tt {
			t.Errorf("kinds[%d] constructs a %s", byte(tt), got)
		}
		if tt.String() != row.name {
			t.Errorf("Type(%d).String() = %q, want %q", byte(tt), tt.String(), row.name)
		}
	}
	for _, tt := range []Type{0, maxType, 200} {
		if want := fmt.Sprintf("Type(%d)", byte(tt)); tt.String() != want {
			t.Errorf("String() = %q, want %q", tt.String(), want)
		}
		if _, err := Unmarshal(frame(tt, nil)); !errors.Is(err, ErrBadType) {
			t.Errorf("Unmarshal of type %d: err = %v, want ErrBadType", byte(tt), err)
		}
	}
}
