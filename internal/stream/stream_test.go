package stream

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"pplivesim/internal/wire"
)

func testSpec() Spec { return DefaultSpec(1, "test", 1000) }

func TestSpecValidate(t *testing.T) {
	if err := testSpec().Validate(); err != nil {
		t.Errorf("default spec invalid: %v", err)
	}
	bad := testSpec()
	bad.BitrateBps = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero bitrate accepted")
	}
	bad = testSpec()
	bad.SubPieceLen = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative sub-piece length accepted")
	}
}

func TestEdgeSeqRate(t *testing.T) {
	s := testSpec() // 50_000 B/s over 1380 B pieces ≈ 36.23/s
	if got := s.EdgeSeq(0); got != 0 {
		t.Errorf("EdgeSeq(0) = %d", got)
	}
	got := s.EdgeSeq(10 * time.Second)
	if got < 360 || got > 365 {
		t.Errorf("EdgeSeq(10s) = %d, want ≈362", got)
	}
	if s.EdgeSeq(-time.Second) != 0 {
		t.Error("negative time produced nonzero edge")
	}
}

func TestTimeOfInvertsEdgeSeq(t *testing.T) {
	s := testSpec()
	for _, seq := range []uint64{0, 1, 100, 98765} {
		at := s.TimeOf(seq)
		if got := s.EdgeSeq(at + time.Millisecond); got < seq {
			t.Errorf("EdgeSeq(TimeOf(%d)+1ms) = %d, want >= %d", seq, got, seq)
		}
	}
}

func mustBuffer(t *testing.T, join, delay time.Duration, window int) *Buffer {
	t.Helper()
	b, err := NewBuffer(testSpec(), join, delay, window)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewBufferValidation(t *testing.T) {
	if _, err := NewBuffer(testSpec(), 0, 0, 4); err == nil {
		t.Error("tiny window accepted")
	}
	bad := testSpec()
	bad.BitrateBps = 0
	if _, err := NewBuffer(bad, 0, 0, 100); err == nil {
		t.Error("invalid spec accepted")
	}
}

func TestStartSeqIsJoinEdge(t *testing.T) {
	join := 100 * time.Second
	b := mustBuffer(t, join, 10*time.Second, 512)
	if b.StartSeq() != testSpec().EdgeSeq(join) {
		t.Errorf("StartSeq = %d, want edge at join %d", b.StartSeq(), testSpec().EdgeSeq(join))
	}
}

func TestMarkAndHas(t *testing.T) {
	b := mustBuffer(t, 0, 0, 512)
	if b.Has(0) {
		t.Error("empty buffer Has(0)")
	}
	if !b.Mark(0) {
		t.Error("first Mark(0) returned false")
	}
	if !b.Has(0) {
		t.Error("Has(0) false after Mark")
	}
	if b.Mark(0) {
		t.Error("duplicate Mark(0) returned true")
	}
	st := b.Stats()
	if st.Received != 1 || st.Duplicates != 1 {
		t.Errorf("stats = %+v, want 1 received 1 duplicate", st)
	}
}

func TestMarkAheadSlidesWindow(t *testing.T) {
	b := mustBuffer(t, 0, 0, 64)
	b.Mark(0)
	if !b.Mark(100) { // beyond ring end 64 → slide
		t.Fatal("Mark far ahead failed")
	}
	if b.Has(0) {
		t.Error("slid-out piece still reported held")
	}
	if !b.Has(100) {
		t.Error("ahead piece not held after slide")
	}
	if b.Mark(0) {
		t.Error("stale Mark accepted")
	}
	if st := b.Stats(); st.Stale != 1 {
		t.Errorf("stale = %d, want 1", st.Stale)
	}
}

func TestPlayheadAt(t *testing.T) {
	b := mustBuffer(t, 10*time.Second, 5*time.Second, 512)
	if got := b.PlayheadAt(12 * time.Second); got != b.StartSeq() {
		t.Errorf("playhead before delay = %d, want start %d", got, b.StartSeq())
	}
	got := b.PlayheadAt(25 * time.Second) // 10s of playback
	want := b.StartSeq() + uint64(10*testSpec().Rate())
	if got < want-1 || got > want+1 {
		t.Errorf("PlayheadAt(25s) = %d, want ≈%d", got, want)
	}
}

func TestAdvanceToContinuity(t *testing.T) {
	b := mustBuffer(t, 0, 0, 4096)
	// Receive the first 100 pieces, then advance past 200.
	for seq := uint64(0); seq < 100; seq++ {
		b.Mark(seq)
	}
	at := testSpec().TimeOf(200)
	b.AdvanceTo(at)
	st := b.Stats()
	if st.PlayedOK != 100 {
		t.Errorf("PlayedOK = %d, want 100", st.PlayedOK)
	}
	if st.PlayedMiss == 0 {
		t.Error("no misses despite missing pieces")
	}
	c := st.Continuity()
	if c <= 0 || c >= 1 {
		t.Errorf("continuity = %f, want in (0,1)", c)
	}
}

func TestContinuityEmptyIsOne(t *testing.T) {
	if c := (Stats{}).Continuity(); c != 1 {
		t.Errorf("empty continuity = %f, want 1", c)
	}
}

func TestAdvanceKeepsHistory(t *testing.T) {
	b := mustBuffer(t, 0, 0, 400) // history = 100
	for seq := uint64(0); seq < 300; seq++ {
		b.Mark(seq)
	}
	b.AdvanceTo(testSpec().TimeOf(300))
	// Playhead ≈300; history keeps ≈[200,300).
	if !b.Has(250) {
		t.Error("history piece 250 evicted")
	}
	if b.Has(10) {
		t.Error("piece 10 retained beyond history")
	}
}

func TestWantOrdersByDeadline(t *testing.T) {
	b := mustBuffer(t, 0, 0, 512)
	now := testSpec().TimeOf(50)
	want := b.Want(now, 10, 0, nil)
	if len(want) != 10 {
		t.Fatalf("Want returned %d, want 10", len(want))
	}
	for i, seq := range want {
		if seq != uint64(i) {
			t.Fatalf("Want[%d] = %d, want %d (deadline order)", i, seq, i)
		}
	}
}

func TestWantSkipsHeldAndSkipped(t *testing.T) {
	b := mustBuffer(t, 0, 0, 512)
	b.Mark(0)
	b.Mark(2)
	now := testSpec().TimeOf(50)
	got := b.Want(now, 3, 0, func(seq uint64) bool { return seq == 1 })
	if len(got) != 3 || got[0] != 3 || got[1] != 4 || got[2] != 5 {
		t.Errorf("Want = %v, want [3 4 5]", got)
	}
}

func TestWantBoundedByEdge(t *testing.T) {
	b := mustBuffer(t, 0, 0, 512)
	now := testSpec().TimeOf(5)
	got := b.Want(now, 100, 0, nil)
	if len(got) == 0 {
		t.Fatal("Want empty")
	}
	edge := testSpec().EdgeSeq(now)
	if last := got[len(got)-1]; last > edge {
		t.Errorf("Want includes %d beyond edge %d", last, edge)
	}
	if b.Want(now, 0, 0, nil) != nil {
		t.Error("Want(max=0) not nil")
	}
}

func TestSnapshotMatchesHas(t *testing.T) {
	b := mustBuffer(t, 0, 0, 128)
	for _, seq := range []uint64{0, 3, 7, 64, 100} {
		b.Mark(seq)
	}
	bm := b.SnapshotInto(nil)
	for seq := uint64(0); seq < 128; seq++ {
		if bm.Has(seq) != b.Has(seq) {
			t.Fatalf("snapshot disagrees with buffer at %d", seq)
		}
	}
}

// Property: after marking arbitrary in-window sequences, SnapshotInto agrees
// with Has and Want never returns a held piece.
func TestPropertyBufferConsistency(t *testing.T) {
	f := func(raw []uint16) bool {
		b, err := NewBuffer(testSpec(), 0, 0, 1024)
		if err != nil {
			return false
		}
		for _, r := range raw {
			b.Mark(uint64(r) % 1024)
		}
		bm := b.SnapshotInto(nil)
		for seq := uint64(0); seq < 1024; seq += 7 {
			if bm.Has(seq) != b.Has(seq) {
				return false
			}
		}
		now := testSpec().TimeOf(600)
		for _, seq := range b.Want(now, 50, 0, nil) {
			if b.Has(seq) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(12))}); err != nil {
		t.Error(err)
	}
}

// Property: continuity is always within [0,1] and received never exceeds
// marks attempted.
func TestPropertyStatsBounds(t *testing.T) {
	f := func(raw []uint16, adv uint16) bool {
		b, err := NewBuffer(testSpec(), 0, 0, 256)
		if err != nil {
			return false
		}
		for _, r := range raw {
			b.Mark(uint64(r))
		}
		b.AdvanceTo(testSpec().TimeOf(uint64(adv)))
		st := b.Stats()
		c := st.Continuity()
		return c >= 0 && c <= 1 && st.Received <= uint64(len(raw))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(13))}); err != nil {
		t.Error(err)
	}
}

func TestSnapshotIsWireCompatible(t *testing.T) {
	b := mustBuffer(t, 0, 0, 128)
	b.Mark(5)
	ann := &wire.BufferMapAnnounce{Channel: 1, Buffer: b.SnapshotInto(nil)}
	got, err := wire.Unmarshal(wire.Marshal(ann))
	if err != nil {
		t.Fatal(err)
	}
	g, ok := got.(*wire.BufferMapAnnounce)
	if !ok || !g.Buffer.Has(5) || g.Buffer.Has(6) {
		t.Errorf("wire round trip lost buffer contents: %#v", got)
	}
}

func TestWantRespectsLimit(t *testing.T) {
	b := mustBuffer(t, 0, 0, 512)
	now := testSpec().TimeOf(100)
	got := b.Want(now, 50, 5, nil)
	if len(got) != 5 {
		t.Fatalf("Want with limit 5 returned %d pieces", len(got))
	}
	for _, seq := range got {
		if seq >= 5 {
			t.Errorf("Want returned %d beyond limit 5", seq)
		}
	}
}
