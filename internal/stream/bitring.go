package stream

// BitRing is a fixed-capacity sliding bit set over sub-piece sequences,
// backed by packed 64-bit words. The slot for seq is ring bit seq % Cap with
// Cap a multiple of 64, so bit position within a word is simply seq % 64 and
// a ring word holds 64 consecutive, 64-aligned sequences — which lets
// schedulers intersect it word-for-word with Buffer's ring and with neighbor
// buffer maps.
//
// The ring does not track a base: callers must keep the live span of set
// sequences below the capacity (NewBitRing pads the requested span by one
// word), otherwise distinct sequences alias the same bit. The peer scheduler
// satisfies this by construction — in-flight sequences live between
// (playhead - timeout drift) and the prefetch bound, and the ring is sized
// for that whole range.
type BitRing struct {
	words []uint64
	cap   uint64
}

// NewBitRing returns a zeroed ring able to distinguish at least span
// consecutive sequences.
func NewBitRing(span int) *BitRing {
	c := uint64((span+63)/64*64 + 64)
	return &BitRing{words: make([]uint64, c/64), cap: c}
}

func (r *BitRing) idx(seq uint64) (int, uint64) {
	return int((seq % r.cap) / 64), uint64(1) << (seq % 64)
}

// Set marks seq.
func (r *BitRing) Set(seq uint64) {
	w, m := r.idx(seq)
	r.words[w] |= m
}

// Clear unmarks seq.
func (r *BitRing) Clear(seq uint64) {
	w, m := r.idx(seq)
	r.words[w] &^= m
}

// Has reports whether seq is marked.
func (r *BitRing) Has(seq uint64) bool {
	w, m := r.idx(seq)
	return r.words[w]&m != 0
}

// Word returns the marks for the 64 sequences [seq, seq+64), seq 64-aligned.
func (r *BitRing) Word(alignedSeq uint64) uint64 {
	return r.words[(alignedSeq%r.cap)/64]
}
