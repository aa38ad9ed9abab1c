package peer

import (
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"pplivesim/internal/wire"
)

// pickProviderRef is the retired per-sequence scan the plan-based
// pickProvider replaced, kept as the behavioural reference: identical
// candidate sets, iteration order, and batched-RNG draw order (through rb,
// the reference's own bitRand reservoir) are the rewrite's correctness
// contract.
func (s *session) pickProviderRef(seq uint64, now time.Duration, urgent bool, rb *bitRand) *neighbor {
	var candidates []*neighbor
	for _, nb := range s.sortedNbs {
		if len(nb.outstanding) >= s.cfg.MaxOutstandingPerNeighbor {
			continue
		}
		if urgent {
			if !nb.buffer.Has(seq) {
				continue
			}
		} else if !nb.covers(seq) {
			continue
		}
		candidates = append(candidates, nb)
	}
	if len(candidates) == 0 {
		if !urgent && !rb.chance(s.env.Rand(), prob16(s.cfg.SourcePrefetchProb)) {
			return nil
		}
		// The swarms this reference replays deploy no edges: the source is
		// the only origin.
		if src := s.origins[len(s.origins)-1]; len(src.outstanding) < s.cfg.MaxOutstandingPerNeighbor {
			return src
		}
		return nil
	}
	rng := s.env.Rand()
	if !s.cfg.PreferFastNeighbors {
		return candidates[rb.intn(rng, len(candidates))]
	}
	if rb.chance(rng, exploreP16) {
		return candidates[rb.intn(rng, len(candidates))]
	}
	best := candidates[0]
	for _, nb := range candidates[1:] {
		if score(nb) < score(best) {
			best = nb
		}
	}
	return best
}

// TestPickProviderMatchesReference replays randomized swarm states through
// the plan-based picker and the reference scan under identically seeded RNGs
// and demands pointer-identical choices — including tie-broken argmins,
// exploration draws, source fallbacks, and eligibility evolving mid-tick as
// requests are booked.
// bufferMapFromBytes builds a map from the byte-granular bitmap encoding (bit
// i of bits[j] covers start+8j+i).
func bufferMapFromBytes(start uint64, bits []byte) wire.BufferMap {
	bm := wire.ResetBufferMap(nil, start, 8*len(bits))
	for i := range 8 * len(bits) {
		if bits[i/8]>>(i%8)&1 != 0 {
			bm.Set(start + uint64(i))
		}
	}
	return bm
}

func TestPickProviderMatchesReference(t *testing.T) {
	metaRng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 60; trial++ {
		nbs := 1 + metaRng.Intn(80) // crosses the 64-neighbor group boundary
		env, c := benchSwarm(t, nbs, 1)
		now := env.now
		ph := c.active.buffer.Playhead()

		// Randomize coverage density, scores (quantized, so argmin ties are
		// common), and per-neighbor outstanding load (some at the cap).
		density := 10 + metaRng.Intn(86)
		for _, nb := range c.active.sortedNbs {
			bits := make([]byte, 1536/8)
			for j := range bits {
				var b byte
				for k := 0; k < 8; k++ {
					if metaRng.Intn(100) < density {
						b |= 1 << k
					}
				}
				bits[j] = b
			}
			nb.setBuffer(bufferMapFromBytes(ph-64, bits), now)
			nb.score = time.Duration(metaRng.Intn(5)) * 100 * time.Millisecond // 0 = unmeasured
			nb.outstanding = nb.outstanding[:0]
			load := metaRng.Intn(c.cfg.MaxOutstandingPerNeighbor + 1)
			for k := 0; k < load; k++ {
				nb.outstanding = append(nb.outstanding, pendingReq{seq: uint64(k)})
			}
		}

		// A sorted want list inside the neighbors' map span.
		seqs := make([]uint64, 0, 150)
		next := ph
		for len(seqs) < 150 {
			next += uint64(1 + metaRng.Intn(9))
			seqs = append(seqs, next)
		}
		urgentBound := ph + uint64(2*c.cfg.Channel.Rate())
		c.active.buildSchedPlan(seqs[0], seqs[len(seqs)-1], 0)

		c.emitRequest = func(netip.Addr, uint64, int) {}
		rngSeed := int64(1000 + trial)
		rngA := rand.New(rand.NewSource(rngSeed))
		rngB := rand.New(rand.NewSource(rngSeed))
		// The plan picker draws through the client's bit reservoir; the
		// reference keeps its own, refilled from the identically seeded rngB,
		// so the consumed bit streams line up draw for draw.
		c.active.rbits = bitRand{}
		var refBits bitRand
		for i, seq := range seqs {
			urgent := seq < urgentBound
			env.rng = rngA
			got := c.active.pickProvider(seq, now, urgent)
			env.rng = rngB
			want := c.active.pickProviderRef(seq, now, urgent, &refBits)
			if got != want {
				t.Fatalf("trial %d seq %d (urgent=%v, nbs=%d, density=%d%%): plan pick %v, reference %v",
					trial, seq, urgent, nbs, density, addrOf(got), addrOf(want))
			}
			// Book every third successful pick so eligibility (planElig vs the
			// reference's live len(outstanding) checks) evolves mid-run.
			if got != nil && i%3 == 0 {
				c.active.sendDataRequest(got, seq, 1, now)
			}
		}
	}
}

func addrOf(nb *neighbor) any {
	if nb == nil {
		return nil
	}
	return nb.addr
}

// TestTranspose64 checks the bit-matrix transpose against its defining
// property on random matrices: output row 63-b, bit 63-i, equals input row i,
// bit b.
func TestTranspose64(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		var in, m [64]uint64
		for i := range in {
			in[i] = rng.Uint64()
		}
		switch trial {
		case 0:
			for i := range in {
				in[i] = 0
			}
		case 1:
			for i := range in {
				in[i] = ^uint64(0)
			}
		}
		m = in
		transpose64(&m)
		for i := 0; i < 64; i++ {
			for b := 0; b < 64; b++ {
				if m[63-b]>>(63-i)&1 != in[i]>>b&1 {
					t.Fatalf("trial %d: transposed[%d] bit %d != input[%d] bit %d", trial, 63-b, 63-i, i, b)
				}
			}
		}
	}
}

// refKnowledge is the retired byte-based neighbor-knowledge bookkeeping
// (setBuffer/learnHas over a []byte bitmap), kept verbatim as the reference
// the word-based neighbor implementation must match bit-for-bit.
type refKnowledge struct {
	start     uint64
	bits      []byte
	bufferMax uint64
	bufferAny bool
}

func (r *refKnowledge) has(seq uint64) bool {
	if seq < r.start || seq >= r.start+uint64(len(r.bits))*8 {
		return false
	}
	idx := seq - r.start
	return r.bits[idx/8]&(1<<(idx%8)) != 0
}

func (r *refKnowledge) set(seq uint64) {
	if seq < r.start || seq >= r.start+uint64(len(r.bits))*8 {
		return
	}
	idx := seq - r.start
	r.bits[idx/8] |= 1 << (idx % 8)
}

func (r *refKnowledge) setBuffer(start uint64, bits []byte) {
	r.start = start
	r.bits = append(r.bits[:0], bits...)
	r.bufferAny = false
	r.bufferMax = 0
	for i := len(bits) - 1; i >= 0; i-- {
		b := bits[i]
		if b == 0 {
			continue
		}
		hi := 7
		for b&(1<<hi) == 0 {
			hi--
		}
		r.bufferMax = start + uint64(i*8+hi)
		r.bufferAny = true
		break
	}
}

func (r *refKnowledge) learnHas(lo, hi uint64) {
	if r.bits == nil || hi >= r.start+uint64(len(r.bits))*8 {
		const slack = knowledgeWindow / 4
		start := uint64(0)
		if hi+1+slack > knowledgeWindow {
			start = (hi + 1 + slack - knowledgeWindow) &^ 7
		}
		fresh := refKnowledge{start: start, bits: make([]byte, knowledgeWindow/8)}
		if r.bits != nil {
			end := r.start + uint64(len(r.bits))*8
			for seq := start; seq < end; seq++ {
				if r.has(seq) {
					fresh.set(seq)
				}
			}
		}
		fresh.bufferMax, fresh.bufferAny = r.bufferMax, r.bufferAny
		*r = fresh
	}
	for seq := lo; seq <= hi; seq++ {
		r.set(seq)
	}
	if !r.bufferAny || hi > r.bufferMax {
		r.bufferMax = hi
		r.bufferAny = true
	}
}

// TestPropertyNeighborKnowledgeMatchesReference drives a neighbor through
// random interleavings of buffer-map announcements (word-unaligned starts,
// partial windows) and learnHas proofs (including window re-anchors), and
// checks its word-based view against the byte-based reference at every step.
func TestPropertyNeighborKnowledgeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 120; trial++ {
		nb := &neighbor{planIdx: -1}
		ref := &refKnowledge{}
		cursor := uint64(rng.Intn(10000))
		for step := 0; step < 25; step++ {
			if rng.Intn(3) == 0 {
				// Announce: random start near the cursor, random window size
				// (bytes, not necessarily word-multiple), random fill.
				start := cursor + uint64(rng.Intn(200))
				nbytes := 1 + rng.Intn(300)
				bits := make([]byte, nbytes)
				for j := range bits {
					bits[j] = byte(rng.Intn(256)) & byte(rng.Intn(256))
				}
				nb.setBuffer(bufferMapFromBytes(start, bits), 0)
				ref.setBuffer(start, bits)
			} else {
				// Proof: short run at or ahead of the cursor; occasionally a
				// big jump to force a re-anchor with little overlap.
				lo := cursor + uint64(rng.Intn(400))
				if rng.Intn(10) == 0 {
					lo += knowledgeWindow * 2
				}
				hi := lo + uint64(rng.Intn(8))
				nb.learnHas(lo, hi, 0)
				ref.learnHas(lo, hi)
				if hi > cursor {
					cursor = hi
				}
			}
			if nb.bufferAny != ref.bufferAny || (ref.bufferAny && nb.bufferMax != ref.bufferMax) {
				t.Fatalf("trial %d step %d: bufferMax/Any = %d/%v, reference %d/%v",
					trial, step, nb.bufferMax, nb.bufferAny, ref.bufferMax, ref.bufferAny)
			}
			if nb.buffer.Start != ref.start || nb.buffer.Window() != uint64(len(ref.bits))*8 {
				t.Fatalf("trial %d step %d: window [%d,+%d), reference [%d,+%d)",
					trial, step, nb.buffer.Start, nb.buffer.Window(), ref.start, uint64(len(ref.bits))*8)
			}
			probeLo := uint64(0)
			if ref.start > 70 {
				probeLo = ref.start - 70
			}
			for seq := probeLo; seq < ref.start+uint64(len(ref.bits))*8+70; seq += 1 + uint64(rng.Intn(3)) {
				if nb.buffer.Has(seq) != ref.has(seq) {
					t.Fatalf("trial %d step %d: covers(%d) = %v, reference %v",
						trial, step, seq, nb.buffer.Has(seq), ref.has(seq))
				}
			}
		}
	}
}
