package peer

import (
	"math/bits"
	"slices"
	"time"
)

// Scheduler plan.
//
// Each scheduler tick precomputes, once, every neighbor's coverage of the
// tick's want range as 64-bit words, then bit-transposes them so that the
// candidate set for one sequence is a single word: a neighbor bitmask that
// pickProvider intersects with a per-group eligibility mask. This replaces
// the old O(want × neighbors) per-sequence scan with O(neighbors × words)
// gathers plus O(words) 64×64 transposes per tick, and a couple of word
// operations per pick.
//
// Masks use descending bit order: neighbor i (in sortedNbs order) occupies
// bit 63-i of its group's mask, so ascending neighbor order — the order the
// old scan iterated, which the ε-greedy RNG draws depend on — is a
// LeadingZeros64 walk. Neighbor sets beyond 64 spill into additional groups.

// resizeU64 returns a slice of length n, reusing s's storage when possible.
// It grows the storage at least twofold, so a want range or a neighbor table
// creeping up a word at a time reallocates only a logarithmic number of
// times. The contents are not kept: every caller overwrites all n entries.
func resizeU64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n, max(n, 2*cap(s)))
	}
	return s[:n]
}

// transpose64 transposes a 64×64 bit matrix in place (Hacker's Delight 7-3,
// widened to 64 bits): afterwards, a[63-b] bit 63-i equals the original a[i]
// bit b.
func transpose64(a *[64]uint64) {
	j := uint(32)
	m := uint64(0x00000000FFFFFFFF)
	for ; j != 0; j, m = j>>1, m^(m<<(j>>1)) {
		for k := 0; k < 64; k = (k + int(j) + 1) &^ int(j) {
			t := (a[k] ^ (a[k+int(j)] >> j)) & m
			a[k] ^= t
			a[k+int(j)] ^= t << j
		}
	}
}

// buildSchedPlan precomputes candidate masks for want sequences in
// [first, last]. Neighbor buffer state cannot change inside a tick (the
// simulation is single-threaded and message handling never interleaves with
// the scheduler), so the plan stays valid for the whole assignment loop;
// only eligibility evolves, tracked in planElig by planNoteSent.
func (s *session) buildSchedPlan(first, last uint64, now time.Duration) {
	nbs := s.sortedNbs
	org := first &^ 63
	W := int((last-org)/64) + 1
	G := (len(nbs) + 63) / 64
	if G == 0 {
		G = 1
	}
	s.planOrg, s.planWords, s.planGroups = org, W, G

	s.planRows = resizeU64(s.planRows, G*64*W)
	s.planCand = resizeU64(s.planCand, G*W*64)
	s.planElig = resizeU64(s.planElig, G)

	rows := s.planRows
	for i := 0; i < G*64; i++ {
		row := rows[i*W : (i+1)*W]
		if i < len(nbs) {
			nb := nbs[i]
			nb.planIdx = i
			for w := 0; w < W; w++ {
				row[w] = nb.buffer.WordAt(org + uint64(w)*64)
			}
		} else {
			for w := range row {
				row[w] = 0
			}
		}
	}

	for g := 0; g < G; g++ {
		var elig uint64
		for i := g * 64; i < (g+1)*64 && i < len(nbs); i++ {
			// backoffUntil is only ever non-zero under cfg.Resilient: a
			// neighbor in timeout backoff is ineligible for the whole tick.
			if int(nbs[i].reqCount) < s.cfg.MaxOutstandingPerNeighbor && nbs[i].backoffUntil <= now {
				elig |= 1 << (63 - uint(i-g*64))
			}
		}
		s.planElig[g] = elig
	}

	var mtx [64]uint64
	for g := 0; g < G; g++ {
		for w := 0; w < W; w++ {
			for i := 0; i < 64; i++ {
				mtx[i] = rows[(g*64+i)*W+w]
			}
			transpose64(&mtx)
			out := s.planCand[(g*W+w)*64 : (g*W+w+1)*64]
			for b := 0; b < 64; b++ {
				out[b] = mtx[63-b]
			}
		}
	}

	// Scores are constant within a tick, so the greedy argmin reduces to
	// "first neighbor, in (score, index) order, whose candidate bit is set" —
	// usually satisfied on the first probe when coverage is dense. Keys pack
	// the score above the index (10 bits, enough for the table's 2*MaxNeighbors
	// bound) so a plain integer sort yields exactly the strict-< argmin order
	// of the retired scan, ties broken by ascending neighbor index.
	s.planOrder = resizeU64(s.planOrder, len(nbs))
	for i, nb := range nbs {
		s.planOrder[i] = uint64(score(nb))<<10 | uint64(i)
	}
	slices.Sort(s.planOrder)
}

// planNoteSent updates the eligibility mask after a request was booked on nb.
func (s *session) planNoteSent(nb *neighbor) {
	if nb.planIdx < 0 || int(nb.reqCount) < s.cfg.MaxOutstandingPerNeighbor {
		return
	}
	g, i := nb.planIdx/64, uint(nb.planIdx%64)
	s.planElig[g] &^= 1 << (63 - i)
}

// pickProvider chooses a neighbor to serve sub-piece seq, which must lie in
// the range the current plan was built for.
//
// With PreferFastNeighbors, selection is ε-greedy over the inverse of the
// observed service-time EWMA: mostly the fastest covering neighbor, with an
// 8% exploration share spread across the others. This is the
// performance-driven concentration that produces the paper's
// stretched-exponential request distribution (§3.4) and the negative
// rank–RTT correlation (§3.5). The source is a last resort — except for
// urgent pieces, which only go to neighbors whose buffer map proves
// possession. Candidate sets, iteration order, and the batched RNG draw
// order (see bitRand) are bit-identical to the retired per-sequence neighbor
// scan (guarded by TestPickProviderMatchesReference and the core
// golden-digest test).
func (s *session) pickProvider(seq uint64, now time.Duration, urgent bool) *neighbor {
	off := seq - s.planOrg
	w, b := int(off/64), int(off%64)
	stride := s.planWords * 64
	k := 0
	for g := 0; g < s.planGroups; g++ {
		k += bits.OnesCount64(s.planCand[g*stride+w*64+b] & s.planElig[g])
	}
	if k == 0 {
		// Urgent pieces fall back to the origins unconditionally. Non-urgent
		// pieces may prefetch from them with small probability: this
		// seeds each fresh piece into a few peers, and the mesh (buffer
		// maps + referral clusters) spreads it from there. Without the
		// seeding nobody holds new pieces early and the source degenerates
		// into a CDN at deadline time.
		if !urgent && !s.rbits.chance(s.env.Rand(), s.c.prefetch16) {
			return nil
		}
		// The origins absorb the miss in order — the playlink's edges in
		// affinity order (same-ISP first), then the source: edge-before-
		// source, always. The walk passes any origin in Busy or timeout
		// hold-off (only edges ever hold off) or without a free request slot.
		for _, nb := range s.origins {
			// With the source suspect, mostly route around it — an
			// optimistic mesh fallback instead of stalling on a dead server —
			// but let every sourceProbeEvery-th pick through so recovery is
			// noticed promptly.
			if nb.origin == originSource && s.sourceSuspect() {
				s.srcProbeCounter++
				if s.srcProbeCounter%sourceProbeEvery != 0 {
					if fb := s.optimisticFallback(seq, now); fb != nil {
						return fb
					}
				}
			}
			if nb.backoffUntil <= now && int(nb.reqCount) < s.cfg.MaxOutstandingPerNeighbor {
				return nb
			}
		}
		return nil
	}
	rng := s.env.Rand()
	if !s.cfg.PreferFastNeighbors {
		return s.nthPlanCandidate(w, b, s.rbits.intn(rng, k))
	}
	// ε-greedy: explore uniformly 8% of the time.
	if s.rbits.chance(rng, exploreP16) {
		return s.nthPlanCandidate(w, b, s.rbits.intn(rng, k))
	}
	for _, key := range s.planOrder {
		i := int(key & 1023)
		if s.planCand[(i>>6)*stride+w*64+b]&s.planElig[i>>6]&(1<<(63-uint(i&63))) != 0 {
			return s.sortedNbs[i]
		}
	}
	return nil // unreachable: k > 0 guarantees a probe hits
}

// nthPlanCandidate returns the j-th (0-based) eligible covering neighbor for
// the plan cell (w, b), in ascending neighbor order.
func (s *session) nthPlanCandidate(w, b, j int) *neighbor {
	stride := s.planWords * 64
	for g := 0; g < s.planGroups; g++ {
		m := s.planCand[g*stride+w*64+b] & s.planElig[g]
		n := bits.OnesCount64(m)
		if j >= n {
			j -= n
			continue
		}
		for {
			i := bits.LeadingZeros64(m)
			if j == 0 {
				return s.sortedNbs[g*64+i]
			}
			j--
			m &^= 1 << (63 - uint(i))
		}
	}
	return nil
}
