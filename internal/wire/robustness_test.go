package wire

import (
	"errors"
	"math/rand"
	"net/netip"
	"runtime"
	"testing"
	"testing/quick"
)

// everyType is the table the properties below run over: the fuzz seeds and
// the committed corpus together hold at least one message of every Type.
func everyType(t *testing.T) []Message {
	t.Helper()
	msgs := append(fuzzSeeds(), corpusMessages()...)
	seen := make(map[Type]bool)
	for _, m := range msgs {
		seen[m.Kind()] = true
	}
	for tt := Type(1); tt < maxType; tt++ {
		if !seen[tt] {
			t.Fatalf("no %s among the fuzz seeds and corpus messages", tt)
		}
	}
	return msgs
}

// Property: Unmarshal never panics and never succeeds on random garbage
// (the CRC makes accidental acceptance astronomically unlikely).
func TestPropertyUnmarshalGarbage(t *testing.T) {
	f := func(raw []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Unmarshal panicked on %x: %v", raw, r)
			}
		}()
		_, err := Unmarshal(raw)
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Property: single-byte corruption of a valid datagram is always rejected.
func TestPropertyBitflipRejected(t *testing.T) {
	valid := Marshal(&DataRequest{Channel: 3, Seq: 12345, Count: 4})
	f := func(pos uint16, bit uint8) bool {
		b := append([]byte(nil), valid...)
		b[int(pos)%len(b)] ^= 1 << (bit % 8)
		_, err := Unmarshal(b)
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Error(err)
	}
}

// Property: truncating a valid datagram at any point is rejected, and so is
// its body cut short behind a header and checksum that match the cut — except
// where the cut drops exactly a trailing optional section, which must then
// decode canonically.
func TestPropertyTruncationRejected(t *testing.T) {
	for _, m := range everyType(t) {
		valid := Marshal(m)
		for cut := 0; cut < len(valid); cut++ {
			if _, err := Unmarshal(valid[:cut]); err == nil {
				t.Fatalf("%s: truncation at %d accepted", m.Kind(), cut)
			}
		}
		body := valid[headerLen : len(valid)-trailerLen]
		for cut := 0; cut < len(body); cut++ {
			short := frame(m.Kind(), body[:cut])
			got, err := Unmarshal(short)
			if err == nil && string(Marshal(got)) != string(short) {
				t.Fatalf("%s: body cut at %d accepted non-canonically", m.Kind(), cut)
			}
			if err != nil && !errors.Is(err, ErrTruncated) {
				t.Fatalf("%s: body cut at %d: err = %v, want ErrTruncated", m.Kind(), cut, err)
			}
		}
	}
}

// Property: every message type round-trips through marshal→unmarshal→marshal
// to identical bytes (canonical encoding).
func TestPropertyCanonicalEncoding(t *testing.T) {
	for _, m := range everyType(t) {
		first := Marshal(m)
		decoded, err := Unmarshal(first)
		if err != nil {
			t.Fatalf("%s: %v", m.Kind(), err)
		}
		second := Marshal(decoded)
		if string(first) != string(second) {
			t.Errorf("%s: non-canonical encoding", m.Kind())
		}
	}
}

// Property: the size pass of a body walk counts exactly what the append pass
// writes.
func TestPropertySizeMatchesAppend(t *testing.T) {
	for _, m := range everyType(t) {
		size := m.body(coder{op: opSize}).n
		if enc := m.body(coder{op: opAppend}).b; int(size) != len(enc) {
			t.Errorf("%s: size pass = %d, append pass wrote %d", m.Kind(), size, len(enc))
		}
		if Size(m) != len(Marshal(m)) {
			t.Errorf("%s: Size = %d, len(Marshal) = %d", m.Kind(), Size(m), len(Marshal(m)))
		}
	}
}

// TestCodecZeroAlloc is what holds the coder to travelling by value: passed
// through the Message interface as a pointer it would escape, one allocation
// per datagram sized.
func TestCodecZeroAlloc(t *testing.T) {
	for _, m := range everyType(t) {
		var n int
		if a := testing.AllocsPerRun(100, func() { n += Size(m) }); a != 0 {
			t.Errorf("%s: Size allocates %v times", m.Kind(), a)
		}
		buf := make([]byte, 0, Size(m))
		if a := testing.AllocsPerRun(100, func() { buf = AppendMarshal(buf[:0], m) }); a != 0 {
			t.Errorf("%s: AppendMarshal into a sized buffer allocates %v times", m.Kind(), a)
		}
	}
}

// nonCanonicalDatagrams are well-framed datagrams (valid header and CRC) whose
// bodies Marshal never produces; the decoder used to accept each and
// re-encode it differently.
func nonCanonicalDatagrams() []namedDatagram {
	// edited marshals m and lets edit change the body before re-framing.
	edited := func(m Message, edit func(body []byte) []byte) []byte {
		valid := Marshal(m)
		body := append([]byte(nil), valid[headerLen:len(valid)-trailerLen]...)
		return frame(m.Kind(), edit(body))
	}
	setByte := func(i int, v byte) func([]byte) []byte {
		return func(body []byte) []byte { body[i] = v; return body }
	}
	return []namedDatagram{
		{"TrackerAnnounce.Leaving = 2", edited(&TrackerAnnounce{Channel: 1, Leaving: true}, setByte(4, 2))},
		{"HandshakeAck.Accepted = 0xff", edited(&HandshakeAck{Channel: 1, Accepted: true,
			Buffer: BufferMapFromBytes(10, []byte{0xff})}, setByte(4, 0xff))},
		{"DataReply.Busy = 3", edited(&DataReply{Channel: 1, Seq: 9, Busy: true}, setByte(16, 3))},
		{"AsnResponse.Found = 2", edited(&AsnResponse{Addr: addr("58.32.0.1"), Found: true, ASN: 4134,
			ISP: 1, Name: "CHINANET"}, setByte(4, 2))},
		{"PlaylinkResponse with an explicit empty Edges list", edited(&PlaylinkResponse{Channel: 1,
			Source: addr("1.2.3.4"), Trackers: []netip.Addr{addr("5.6.7.8")}},
			func(body []byte) []byte { return append(body, 0) })},
		{"DataReply with a non-zero filler byte", edited(&DataReply{Channel: 1, Seq: 9, Count: 1,
			PieceLen: SubPieceSizeSmall}, setByte(17+SubPieceSizeSmall-1, 1))},
	}
}

type namedDatagram struct {
	name string
	data []byte
}

func TestNonCanonicalRejected(t *testing.T) {
	for _, d := range nonCanonicalDatagrams() {
		if msg, err := Unmarshal(d.data); !errors.Is(err, ErrNonCanonical) {
			t.Errorf("%s: decoded %#v, err = %v, want ErrNonCanonical", d.name, msg, err)
		}
	}
}

// A count read from the datagram must not size an allocation before the body
// is known to hold that many entries: this 14-byte datagram used to cost
// 1.5 MB on its way to ErrTruncated.
func TestListCountBoundsAllocation(t *testing.T) {
	data := frame(TChannelListResponse, []byte{0xff, 0xff})
	if _, err := Unmarshal(data); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		Unmarshal(data)
	}
	runtime.ReadMemStats(&after)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / runs; perOp > 1024 {
		t.Errorf("rejecting a %d-byte datagram allocated %d bytes", len(data), perOp)
	}
}
