package peer

import (
	"cmp"
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"testing"
	"time"
	"unsafe"

	"pplivesim/internal/wire"
)

// freeSlots returns the length of s's free chain, or -1 if the chain is
// longer than the table (a cycle).
func freeSlots(s *session) int {
	n := 0
	for i := s.reqFree; i >= 0; i = s.reqs[i].next {
		if n++; n > len(s.reqs) {
			return -1
		}
	}
	return n
}

// oracleReq is one entry of outstandingOracle, laid out as the retired
// per-neighbor slice held it.
type oracleReq struct {
	seq   uint64
	at    time.Duration
	count int
}

// outstandingOracle is the request bookkeeping the request table replaced,
// kept as its reference: per neighbor, a slice grown by append and shrunk by
// swap-remove, plus the session-wide total, the in-flight sequences, and the
// score, minimum RTT and timeout count the bookkeeping feeds.
type outstandingOracle struct {
	nbs      map[netip.Addr]*oracleNb
	total    int
	inflight map[uint64]bool
	timeouts uint64
}

type oracleNb struct {
	reqs          []oracleReq
	score, minRTT time.Duration
}

func (o *outstandingOracle) send(a netip.Addr, seq uint64, count int, now time.Duration) {
	nb := o.nbs[a]
	nb.reqs = append(nb.reqs, oracleReq{seq: seq, at: now, count: count})
	o.total++
	for k := 0; k < count; k++ {
		o.inflight[seq+uint64(k)] = true
	}
}

func (o *outstandingOracle) find(a netip.Addr, seq uint64) int {
	for i, r := range o.nbs[a].reqs {
		if r.seq == seq {
			return i
		}
	}
	return -1
}

func (o *outstandingOracle) clear(nb *oracleNb, i int) {
	r := nb.reqs[i]
	last := len(nb.reqs) - 1
	nb.reqs[i] = nb.reqs[last]
	nb.reqs = nb.reqs[:last]
	o.total--
	for k := 0; k < r.count; k++ {
		delete(o.inflight, r.seq+uint64(k))
	}
}

// reply applies a data reply (count > 0), a no-have or a busy signal for seq.
func (o *outstandingOracle) reply(a netip.Addr, seq uint64, count int, busy bool, now time.Duration) {
	nb := o.nbs[a]
	i := o.find(a, seq)
	if count == 0 {
		if i >= 0 {
			o.clear(nb, i)
		}
		if busy {
			nb.score = ewma(nb.score, 2*score(&neighbor{score: nb.score}))
		}
		return
	}
	if i >= 0 {
		rt := now - nb.reqs[i].at
		o.clear(nb, i)
		nb.score = ewma(nb.score, rt)
		if nb.minRTT == 0 || rt < nb.minRTT {
			nb.minRTT = rt
		}
	}
}

func (o *outstandingOracle) expire(now, timeout time.Duration) {
	for _, nb := range o.nbs {
		for i := 0; i < len(nb.reqs); {
			if now-nb.reqs[i].at > timeout {
				o.clear(nb, i)
				o.timeouts++
				nb.score = ewma(nb.score, 2*timeout)
			} else {
				i++
			}
		}
	}
}

func (o *outstandingOracle) drop(a netip.Addr) {
	nb := o.nbs[a]
	for len(nb.reqs) > 0 {
		o.clear(nb, len(nb.reqs)-1)
	}
	delete(o.nbs, a)
}

// checkTable compares s's request table with the oracle: per neighbor, the
// set of (seq, at, count), the chain length against reqCount, the score and
// minimum RTT; the total, the timeout count and every in-flight bit over
// [base, base+span); and that the chains and the free chain partition the
// table's slots.
func checkTable(s *session, o *outstandingOracle, base uint64, span int) error {
	seen := make([]bool, len(s.reqs))
	visit := func(i int16) error {
		if seen[i] {
			return fmt.Errorf("slot %d reached twice", i)
		}
		seen[i] = true
		return nil
	}
	if len(s.sortedNbs) != len(o.nbs) {
		return fmt.Errorf("%d neighbors, oracle has %d", len(s.sortedNbs), len(o.nbs))
	}
	for _, nb := range s.sortedNbs {
		want, ok := o.nbs[nb.addr]
		if !ok {
			return fmt.Errorf("neighbor %v not in the oracle", nb.addr)
		}
		var got []oracleReq
		for i := nb.reqHead; i >= 0; i = s.reqs[i].next {
			if err := visit(i); err != nil {
				return fmt.Errorf("neighbor %v: %v", nb.addr, err)
			}
			r := s.reqs[i]
			got = append(got, oracleReq{seq: r.seq, at: r.at, count: int(r.count)})
		}
		if int(nb.reqCount) != len(got) {
			return fmt.Errorf("neighbor %v: reqCount %d, chain of %d", nb.addr, nb.reqCount, len(got))
		}
		ref := slices.Clone(want.reqs)
		bySeq := func(a, b oracleReq) int { return cmp.Compare(a.seq, b.seq) }
		slices.SortFunc(got, bySeq)
		slices.SortFunc(ref, bySeq)
		if !slices.Equal(got, ref) {
			return fmt.Errorf("neighbor %v: requests %v, oracle %v", nb.addr, got, ref)
		}
		if nb.score != want.score || nb.minRTT != want.minRTT {
			return fmt.Errorf("neighbor %v: score %v minRTT %v, oracle %v %v", nb.addr, nb.score, nb.minRTT, want.score, want.minRTT)
		}
	}
	free := 0
	for i := s.reqFree; i >= 0; i = s.reqs[i].next {
		if err := visit(i); err != nil {
			return fmt.Errorf("free chain: %v", err)
		}
		free++
	}
	if s.outstandingTotal != o.total || free != len(s.reqs)-o.total {
		return fmt.Errorf("%d outstanding and %d free of %d slots, oracle has %d outstanding",
			s.outstandingTotal, free, len(s.reqs), o.total)
	}
	if got := s.c.stats.RequestTimeouts; got != o.timeouts {
		return fmt.Errorf("%d timeouts, oracle %d", got, o.timeouts)
	}
	for q := base; q < base+uint64(span); q++ {
		if s.inflight.Has(q) != o.inflight[q] {
			return fmt.Errorf("seq %d in flight %v, oracle %v", q, s.inflight.Has(q), o.inflight[q])
		}
	}
	return nil
}

// TestRequestTableMatchesOracle runs random sequences of request sends,
// replies that hit and miss, expiries at random times, neighbor drops and
// recycled neighbors against the request table and outstandingOracle in
// lockstep, at the background and the full-peer table sizes, and demands
// the same bookkeeping after every step.
func TestRequestTableMatchesOracle(t *testing.T) {
	const (
		seeds = 2000
		steps = 200
		span  = 256 // sequences the requests start in
	)
	// Up to twice the neighbors it takes to fill the table.
	for _, tc := range []struct{ total, perNb, batch, maxNb int }{
		{24, 6, 8, 8},
		{120, 16, 1, 15},
	} {
		t.Run(fmt.Sprintf("%d/%d", tc.total, tc.perNb), func(t *testing.T) {
			for seed := int64(0); seed < seeds; seed++ {
				if err := runTableOracle(t, seed, tc.total, tc.perNb, tc.batch, steps, span, tc.maxNb); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		})
	}
}

func runTableOracle(t *testing.T, seed int64, total, perNb, batch, steps, span, maxNb int) error {
	env := newFakeEnv("58.32.0.1")
	cfg := testConfig() // no timer fires: the clock moves only by hand
	cfg.MaxOutstanding, cfg.MaxOutstandingPerNeighbor, cfg.BatchCount = total, perNb, batch
	cfg.HintFanout = 0
	c := newClient(t, env, cfg)
	join(t, env, c)
	env.take()
	c.emitRequest = func(netip.Addr, uint64, int) {}
	s := c.active
	rng := rand.New(rand.NewSource(seed))
	o := &outstandingOracle{nbs: map[netip.Addr]*oracleNb{}, inflight: map[uint64]bool{}}
	base := s.buffer.Playhead()
	nextAddr := 2
	add := func() {
		a := netip.AddrFrom4([4]byte{58, 32, byte(nextAddr >> 8), byte(nextAddr)})
		nextAddr++
		s.addNeighbor(a, wire.BufferMap{})
		o.nbs[a] = &oracleNb{}
	}
	for range 1 + rng.Intn(maxNb) {
		add()
	}
	// pick returns a random mesh neighbor with a request outstanding, or nil.
	pick := func() *neighbor {
		var busy []*neighbor
		for _, nb := range s.sortedNbs {
			if nb.reqCount > 0 {
				busy = append(busy, nb)
			}
		}
		if len(busy) == 0 {
			return nil
		}
		return busy[rng.Intn(len(busy))]
	}
	// The share of sends varies by seed: the send-heavy seeds fill the table
	// and run the free chain dry.
	sendShare := 30 + rng.Intn(65)
	for step := 0; step < steps; step++ {
		now := env.now
		op := 0
		if rng.Intn(100) >= sendShare {
			op = 35 + rng.Intn(65)
		}
		switch {
		case op < 35: // send
			if len(s.sortedNbs) == 0 || s.outstandingTotal >= total {
				break
			}
			nb := s.sortedNbs[rng.Intn(len(s.sortedNbs))]
			if int(nb.reqCount) >= perNb {
				break
			}
			count := 1 + rng.Intn(batch)
			seq := base + uint64(rng.Intn(span-count+1))
			free := true
			for k := 0; k < count; k++ {
				free = free && !o.inflight[seq+uint64(k)]
			}
			if !free {
				break
			}
			s.sendDataRequest(nb, seq, count, now)
			o.send(nb.addr, seq, count, now)
		case op < 60: // a reply that hits: data, no-have or busy
			nb := pick()
			if nb == nil {
				break
			}
			r := o.nbs[nb.addr].reqs[rng.Intn(int(nb.reqCount))]
			count, busy := r.count, false
			switch rng.Intn(4) {
			case 0:
				count = 0
			case 1:
				count, busy = 0, true
			}
			c.HandleMessage(nb.addr, &wire.DataReply{Channel: 1, Seq: r.seq, Count: uint16(count), PieceLen: 1, Busy: busy})
			o.reply(nb.addr, r.seq, count, busy, now)
		case op < 68: // a reply that misses: a sequence nb was never asked for
			if len(s.sortedNbs) == 0 {
				break
			}
			nb := s.sortedNbs[rng.Intn(len(s.sortedNbs))]
			seq := base + uint64(rng.Intn(span))
			if o.find(nb.addr, seq) >= 0 {
				break
			}
			count := rng.Intn(2)
			c.HandleMessage(nb.addr, &wire.DataReply{Channel: 1, Seq: seq, Count: uint16(count), PieceLen: 1})
			o.reply(nb.addr, seq, count, false, now)
		case op < 82: // time passes, then the scheduler's expiry pass
			// Steps on a 50 ms lattice land exactly on the timeout too.
			env.now += time.Duration(rng.Intn(76)>>rng.Intn(4)) * 50 * time.Millisecond
			s.expireRequests(env.now)
			o.expire(env.now, cfg.RequestTimeout)
		case op < 91: // drop
			if len(s.sortedNbs) == 0 {
				break
			}
			a := s.sortedNbs[rng.Intn(len(s.sortedNbs))].addr
			s.dropNeighbor(a)
			o.drop(a)
		default: // a new neighbor, recycled when the client has one spare
			if len(s.sortedNbs) < maxNb {
				add()
			}
		}
		env.take()
		if err := checkTable(s, o, base, span); err != nil {
			return fmt.Errorf("step %d (op %d): %v", step, op, err)
		}
	}
	return nil
}

// TestRequestTableZeroAlloc is the request table's allocation gate: a
// neighbor that has never had a request books MaxOutstandingPerNeighbor of
// them, half are answered, the rest expire, and the neighbor is dropped —
// and none of it allocates.
func TestRequestTableZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("an allocation count means nothing under the race detector")
	}
	const runs = 50
	env := newFakeEnv("58.32.0.1")
	cfg := testConfig() // no timer fires: the clock moves only by hand
	cfg.HintFanout = 0
	c := newClient(t, env, cfg)
	join(t, env, c)
	env.take()
	c.emitRequest = func(netip.Addr, uint64, int) {}
	s := c.active
	// One fresh neighbor per run (the warm-up run included), made before
	// the count starts with a buffer map that spans the replies. With the
	// source they fit the neighbor table, whose slots the drops free.
	fresh := make([]netip.Addr, runs+1)
	for i := range fresh {
		fresh[i] = netip.AddrFrom4([4]byte{58, 32, 1, byte(i + 2)})
		s.addNeighbor(fresh[i], wire.MakeBufferMap(s.buffer.Playhead(), cfg.BufferWindow))
	}
	per := cfg.MaxOutstandingPerNeighbor
	replies := make([]wire.DataReply, per/2)
	run := 0
	allocs := testing.AllocsPerRun(runs, func() {
		a := fresh[run]
		run++
		nb := s.neighbors[akey(a)]
		now := env.now
		base := s.buffer.Playhead()
		for k := 0; k < per; k++ {
			s.sendDataRequest(nb, base+uint64(k), 1, now)
		}
		env.now += 100 * time.Millisecond
		for k := range replies {
			replies[k] = wire.DataReply{Channel: 1, Seq: base + uint64(k), Count: 1, PieceLen: 1}
			c.HandleMessage(a, &replies[k])
		}
		env.now += 2 * cfg.RequestTimeout
		s.expireRequests(env.now)
		s.dropNeighbor(a)
	})
	if allocs != 0 {
		t.Errorf("request table: %.1f allocs per neighbor lifetime, want 0", allocs)
	}
	if s.outstandingTotal != 0 {
		t.Errorf("%d requests outstanding after every neighbor was dropped", s.outstandingTotal)
	}
}

// TestNeighborSize pins the neighbor struct at 176 bytes: its requests live
// in the session's table, and the chain head and count fit in the padding
// after origin.
func TestNeighborSize(t *testing.T) {
	if size := unsafe.Sizeof(neighbor{}); size != 176 {
		t.Errorf("neighbor is %d bytes, want 176", size)
	}
}
