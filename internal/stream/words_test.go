package stream

import (
	"math/rand"
	"testing"
	"time"
)

// TestPropertyAppendWantRingMatchesReference drives a buffer through random
// receive/advance histories — random windows (including non-multiples of 64),
// random playhead positions, partial trailing words — and checks that the
// word-based want scan returns exactly what the per-piece reference returns,
// in the same order, under the same skip set.
func TestPropertyAppendWantRingMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 200; iter++ {
		window := 65 + rng.Intn(500)
		spec := DefaultSpec(1, "prop", 1)
		join := time.Duration(rng.Intn(3600)) * time.Second
		buf, err := NewBuffer(spec, join, 5*time.Second, window)
		if err != nil {
			t.Fatal(err)
		}
		ring := NewBitRing(window + 256)
		inflight := make(map[uint64]bool)

		now := join
		for step := 0; step < 30; step++ {
			now += time.Duration(rng.Intn(4000)) * time.Millisecond
			buf.AdvanceTo(now)

			// Random receives around the live range.
			lo := buf.Playhead()
			for i := 0; i < rng.Intn(40); i++ {
				seq := lo + uint64(rng.Intn(window))
				if rng.Intn(6) == 0 && lo > 10 {
					seq = lo - uint64(rng.Intn(10)) // stale/duplicate probes
				}
				buf.Mark(seq)
			}
			// Random skip-set churn, bounded to the fetchable span so the
			// ring's aliasing precondition holds (as the scheduler's does).
			for seq := range inflight {
				if rng.Intn(3) == 0 || seq < lo {
					delete(inflight, seq)
					ring.Clear(seq)
				}
			}
			for i := 0; i < rng.Intn(30); i++ {
				seq := lo + uint64(rng.Intn(window))
				if !inflight[seq] {
					inflight[seq] = true
					ring.Set(seq)
				}
			}

			max := 1 + rng.Intn(200)
			var limit uint64
			if rng.Intn(2) == 0 {
				limit = lo + uint64(rng.Intn(2*window))
			}
			skipFn := func(seq uint64) bool { return inflight[seq] }
			want := buf.AppendWant(nil, now, max, limit, skipFn)
			got := buf.AppendWantRing(nil, now, max, limit, ring)
			if len(want) != len(got) {
				t.Fatalf("iter %d step %d: ring scan returned %d seqs, reference %d (window=%d playhead=%d)",
					iter, step, len(got), len(want), window, lo)
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("iter %d step %d: seq[%d] = %d, reference %d", iter, step, i, got[i], want[i])
				}
			}
		}
	}
}

// TestPropertySnapshotMatchesReference checks the funnel-shift SnapshotInto
// against a per-bit rebuild from Has, across random windows and ring
// rotations (base far from both 0 and a word boundary).
func TestPropertySnapshotMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 150; iter++ {
		window := 65 + rng.Intn(400)
		spec := DefaultSpec(1, "prop", 1)
		join := time.Duration(rng.Intn(7200)) * time.Second
		buf, err := NewBuffer(spec, join, time.Second, window)
		if err != nil {
			t.Fatal(err)
		}
		now := join
		for step := 0; step < 10; step++ {
			now += time.Duration(rng.Intn(5000)) * time.Millisecond
			buf.AdvanceTo(now)
			lo := buf.Playhead()
			for i := 0; i < rng.Intn(60); i++ {
				buf.Mark(lo + uint64(rng.Intn(window)))
			}
			bm := buf.SnapshotInto(nil)
			if bm.Start != buf.base {
				t.Fatalf("iter %d: snapshot start %d, base %d", iter, bm.Start, buf.base)
			}
			if got, want := bm.Window(), uint64((window+7)/8*8); got != want {
				t.Fatalf("iter %d: snapshot window %d, want %d", iter, got, want)
			}
			end := bm.Start + bm.Window()
			for seq := bm.Start; seq < end; seq++ {
				if bm.Has(seq) != buf.Has(seq) {
					t.Fatalf("iter %d step %d: snapshot bit %d = %v, buffer %v (base=%d window=%d)",
						iter, step, seq, bm.Has(seq), buf.Has(seq), buf.base, window)
				}
			}
		}
	}
}

// TestBitRingBasics covers set/clear/word behaviour including the padding
// word and unaligned bases.
func TestBitRingBasics(t *testing.T) {
	r := NewBitRing(100)
	if int(r.cap) != 192 {
		t.Fatalf("Cap() = %d, want 192 (100 rounded to words + one pad word)", int(r.cap))
	}
	base := uint64(1_000_003)
	for i := uint64(0); i < 150; i += 3 {
		r.Set(base + i)
	}
	for i := uint64(0); i < 150; i++ {
		if got := r.Has(base + i); got != (i%3 == 0) {
			t.Fatalf("Has(base+%d) = %v", i, got)
		}
	}
	a := (base + 64) &^ 63
	w := r.Word(a)
	for i := uint64(0); i < 64; i++ {
		seq := a + i
		want := seq >= base && seq < base+150 && (seq-base)%3 == 0
		if w>>i&1 != 0 != want {
			t.Fatalf("Word(%d) bit %d = %d, want %v", a, i, w>>i&1, want)
		}
	}
	for i := uint64(0); i < 150; i += 3 {
		r.Clear(base + i)
	}
	for _, word := range r.words {
		if word != 0 {
			t.Fatal("ring not empty after clearing all set bits")
		}
	}
}
