// Package stream models live channels: sub-piece sequencing against a live
// edge, and the sliding playback buffer a peer maintains.
//
// A live channel emits payload at a constant bitrate, divided into chunks
// and further into sub-pieces of 1380 (or 690) bytes, exactly as the paper
// describes PPLive's data plane. Sub-pieces are identified by a global
// transmission sequence number, which the paper's trace matching keys on.
package stream

import (
	"fmt"
	"math/bits"
	"time"

	"pplivesim/internal/wire"
)

// Spec describes a live channel.
type Spec struct {
	Channel     wire.ChannelID
	Name        string
	BitrateBps  int    // payload bytes per second
	SubPieceLen int    // payload bytes per sub-piece (1380 or 690)
	Rating      uint32 // popularity rating used by the channel list
}

// Validate checks the spec for usability.
func (s Spec) Validate() error {
	if s.BitrateBps <= 0 {
		return fmt.Errorf("stream: channel %d: non-positive bitrate", s.Channel)
	}
	if s.SubPieceLen <= 0 {
		return fmt.Errorf("stream: channel %d: non-positive sub-piece length", s.Channel)
	}
	return nil
}

// Info returns the channel-list entry for this spec.
func (s Spec) Info() wire.ChannelInfo {
	return wire.ChannelInfo{ID: s.Channel, Rating: s.Rating, Name: s.Name}
}

// Rate returns sub-pieces emitted per second.
func (s Spec) Rate() float64 { return float64(s.BitrateBps) / float64(s.SubPieceLen) }

// EdgeSeq returns the newest sub-piece sequence the source has emitted by
// the given instant (the "live edge"). The first sub-piece (seq 0) appears
// at t=0.
func (s Spec) EdgeSeq(now time.Duration) uint64 {
	if now < 0 {
		return 0
	}
	return uint64(now.Seconds() * s.Rate())
}

// TimeOf returns the instant at which the source emits sub-piece seq.
func (s Spec) TimeOf(seq uint64) time.Duration {
	return time.Duration(float64(seq) / s.Rate() * float64(time.Second))
}

// DefaultSpec returns a 400 kbit/s channel with 1380-byte sub-pieces, typical
// of 2008-era PPLive SD streams (≈36 sub-pieces per second).
func DefaultSpec(ch wire.ChannelID, name string, rating uint32) Spec {
	return Spec{
		Channel:     ch,
		Name:        name,
		BitrateBps:  50_000,
		SubPieceLen: wire.SubPieceSize,
		Rating:      rating,
	}
}

// Buffer is a peer's sliding playback buffer: a fixed window of sub-piece
// slots that trails the playhead with some history (so the peer can serve
// neighbors slightly behind it) and extends toward the live edge.
type Buffer struct {
	spec    Spec
	join    time.Duration // when the peer joined
	delay   time.Duration // startup buffering delay before playback begins
	window  int           // ring capacity in sub-pieces
	history int           // slots kept behind the playhead

	startSeq uint64 // first sequence this peer plays
	base     uint64 // lowest sequence retained in the ring
	playhead uint64 // next sequence to be consumed

	// have is the ring as packed bits: the slot for seq is ring bit
	// seq % ringCap, i.e. bit seq%64 of have[(seq%ringCap)/64]. ringCap is a
	// multiple of 64 — so a ring word holds 64 consecutive, 64-aligned
	// sequences — and exceeds the window by a word of padding, so words
	// overlapping the live range [base, base+window) never alias live
	// sequences and all their out-of-range bits are zero.
	have    []uint64
	ringCap uint64

	received   uint64
	duplicates uint64
	stale      uint64 // arrived behind the retained window
	playedOK   uint64
	playedMiss uint64
}

// NewBuffer creates a playback buffer for a peer that joined at join time.
// Playback starts delay after joining, from the live edge at join. The
// window is the ring capacity in sub-pieces; a quarter of it is retained as
// history behind the playhead.
func NewBuffer(spec Spec, join, delay time.Duration, window int) (*Buffer, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if window <= 8 {
		return nil, fmt.Errorf("stream: window %d too small", window)
	}
	start := spec.EdgeSeq(join)
	cap := ringCapFor(window)
	return &Buffer{
		spec:     spec,
		join:     join,
		delay:    delay,
		window:   window,
		history:  window / 4,
		startSeq: start,
		base:     start,
		playhead: start,
		have:     make([]uint64, cap/64),
		ringCap:  cap,
	}, nil
}

// ringCapFor rounds a window up to whole words and adds one word of padding
// (see the have field's invariants).
func ringCapFor(window int) uint64 {
	return uint64((window+63)/64*64 + 64)
}

// ringIdx returns the word index and bit mask for seq's ring slot.
func (b *Buffer) ringIdx(seq uint64) (int, uint64) {
	return int((seq % b.ringCap) / 64), uint64(1) << (seq % 64)
}

// Spec returns the channel spec the buffer was built for.
func (b *Buffer) Spec() Spec { return b.spec }

// StartSeq returns the first sequence this peer plays.
func (b *Buffer) StartSeq() uint64 { return b.startSeq }

// Playhead returns the next sequence to be consumed.
func (b *Buffer) Playhead() uint64 { return b.playhead }

// PlayheadAt returns the sequence the playhead should have reached by now.
func (b *Buffer) PlayheadAt(now time.Duration) uint64 {
	playStart := b.join + b.delay
	if now <= playStart {
		return b.startSeq
	}
	return b.startSeq + uint64((now-playStart).Seconds()*b.spec.Rate())
}

// Has reports whether the buffer holds sub-piece seq.
func (b *Buffer) Has(seq uint64) bool {
	if seq < b.base || seq >= b.base+uint64(b.window) {
		return false
	}
	w, m := b.ringIdx(seq)
	return b.have[w]&m != 0
}

// Mark records receipt of sub-piece seq. It reports whether the piece was
// new and inside the retained window.
func (b *Buffer) Mark(seq uint64) bool {
	if seq < b.base {
		b.stale++
		return false
	}
	if seq >= b.base+uint64(b.window) {
		// Ahead of the ring (e.g. source burst): slide forward to cover it.
		b.slideTo(seq - uint64(b.window) + 1)
	}
	w, m := b.ringIdx(seq)
	if b.have[w]&m != 0 {
		b.duplicates++
		return false
	}
	b.have[w] |= m
	b.received++
	return true
}

// slideTo advances base to newBase, clearing vacated slots and accounting
// any unplayed pieces that fall behind as misses is handled by AdvanceTo;
// slideTo only manages ring storage.
func (b *Buffer) slideTo(newBase uint64) {
	if newBase <= b.base {
		return
	}
	steps := newBase - b.base
	if steps >= uint64(b.window) {
		clear(b.have)
		b.base = newBase
		return
	}
	for ; b.base < newBase; b.base++ {
		w, m := b.ringIdx(b.base)
		b.have[w] &^= m
	}
}

// AdvanceTo moves the playhead to its scheduled position at now, consuming
// sub-pieces and recording continuity (played vs missed), then slides the
// ring base to keep the configured history behind the playhead.
func (b *Buffer) AdvanceTo(now time.Duration) {
	target := b.PlayheadAt(now)
	for b.playhead < target {
		if b.Has(b.playhead) {
			b.playedOK++
		} else {
			b.playedMiss++
		}
		b.playhead++
	}
	if b.playhead > b.startSeq+uint64(b.history) {
		b.slideTo(b.playhead - uint64(b.history))
	}
}

// Want returns up to max missing sequences the peer should fetch at now:
// pieces in [playhead, min(edge, ring end, limit)) not yet held,
// nearest-deadline first. limit (0 = unbounded) caps how far ahead of the
// playhead the caller prefetches. The skip predicate (may be nil) filters
// sequences the caller has already requested.
func (b *Buffer) Want(now time.Duration, max int, limit uint64, skip func(uint64) bool) []uint64 {
	return b.AppendWant(nil, now, max, limit, skip)
}

// AppendWant is Want appending into dst, so per-tick schedulers can reuse a
// scratch slice instead of allocating one per invocation. It is the per-piece
// reference implementation of AppendWantRing (which property tests hold it
// against); schedulers use the word-based variant.
func (b *Buffer) AppendWant(dst []uint64, now time.Duration, max int, limit uint64, skip func(uint64) bool) []uint64 {
	if max <= 0 {
		return dst
	}
	end := b.WantBound(now, limit)
	base := len(dst)
	for seq := b.playhead; seq < end && len(dst)-base < max; seq++ {
		if b.Has(seq) {
			continue
		}
		if skip != nil && skip(seq) {
			continue
		}
		dst = append(dst, seq)
	}
	return dst
}

// WantBound returns the exclusive upper bound of the fetchable range at now:
// the live edge, the ring end, and the caller's prefetch limit (0 = none),
// whichever is lowest.
func (b *Buffer) WantBound(now time.Duration, limit uint64) uint64 {
	edge := b.spec.EdgeSeq(now)
	end := b.base + uint64(b.window)
	if edge+1 < end {
		end = edge + 1
	}
	if limit != 0 && limit < end {
		end = limit
	}
	return end
}

// haveWord returns the held-bits for the 64 sequences [seq, seq+64), seq
// 64-aligned. Valid whenever the word overlaps [base-63, base+window+63] —
// the padding invariant guarantees every out-of-range bit reads zero.
func (b *Buffer) haveWord(alignedSeq uint64) uint64 {
	return b.have[(alignedSeq%b.ringCap)/64]
}

// AppendWantRing is AppendWant with the skip-set expressed as a BitRing, so
// the scan runs a word at a time: wanted = NOT held AND NOT skipped, then
// set-bit iteration. Sequences are appended nearest-deadline first, exactly
// as AppendWant orders them.
func (b *Buffer) AppendWantRing(dst []uint64, now time.Duration, max int, limit uint64, skip *BitRing) []uint64 {
	if max <= 0 {
		return dst
	}
	end := b.WantBound(now, limit)
	if b.playhead >= end {
		return dst
	}
	n := len(dst)
	for a := b.playhead &^ 63; a < end; a += 64 {
		w := ^b.haveWord(a)
		if skip != nil {
			w &^= skip.Word(a)
		}
		if a < b.playhead {
			w &= ^uint64(0) << (b.playhead - a)
		}
		if end-a < 64 {
			w &= uint64(1)<<(end-a) - 1
		}
		for ; w != 0; w &= w - 1 {
			dst = append(dst, a+uint64(bits.TrailingZeros64(w)))
			if len(dst)-n == max {
				return dst
			}
		}
	}
	return dst
}

// SnapshotInto produces a wire buffer map covering the retained window, in
// words' storage when it is large enough (a recycled message's retained
// Words) and in a new array otherwise. Bit i of the map covers base+i — a
// rotation of the ring, assembled a word at a time: each output word is two
// ring words funnel-shifted by base's bit offset.
func (b *Buffer) SnapshotInto(words []uint64) wire.BufferMap {
	bm := wire.ResetBufferMap(words, b.base, b.window)
	s := b.base % 64
	for w := range bm.Words {
		a0 := b.base + uint64(w)*64 - s
		v := b.haveWord(a0) >> s
		if s != 0 {
			v |= b.haveWord(a0+64) << (64 - s)
		}
		bm.Words[w] = v
	}
	if tail := uint(b.window % 64); tail != 0 {
		bm.Words[len(bm.Words)-1] &= uint64(1)<<tail - 1
	}
	return bm
}

// Stats summarizes buffer activity.
type Stats struct {
	Received   uint64 // new in-window sub-pieces stored
	Duplicates uint64 // already-held receipts
	Stale      uint64 // receipts behind the retained window
	PlayedOK   uint64 // consumed on time
	PlayedMiss uint64 // deadline passed without the piece
}

// Add returns the field-wise sum of s and o, for aggregating counters
// across buffers (e.g. a client's sessions over several channel switches).
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Received:   s.Received + o.Received,
		Duplicates: s.Duplicates + o.Duplicates,
		Stale:      s.Stale + o.Stale,
		PlayedOK:   s.PlayedOK + o.PlayedOK,
		PlayedMiss: s.PlayedMiss + o.PlayedMiss,
	}
}

// Continuity returns the fraction of consumed sub-pieces that were present
// at their deadline (1.0 when nothing has been consumed yet).
func (s Stats) Continuity() float64 {
	total := s.PlayedOK + s.PlayedMiss
	if total == 0 {
		return 1
	}
	return float64(s.PlayedOK) / float64(total)
}

// Stats returns a snapshot of the buffer's counters.
func (b *Buffer) Stats() Stats {
	return Stats{
		Received:   b.received,
		Duplicates: b.duplicates,
		Stale:      b.stale,
		PlayedOK:   b.playedOK,
		PlayedMiss: b.playedMiss,
	}
}
