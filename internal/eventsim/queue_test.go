package eventsim

import (
	"math/bits"
	"math/rand"
	"testing"
	"time"
)

// Reference-model states of a timer.
const (
	refPending = iota // queued
	refFiring         // periodic, inside its callback
	refDone           // fired (one-shot) or stopped
)

// refTimer is the reference model's record of one timer.
type refTimer struct {
	id     int
	at     time.Duration
	seq    uint64 // scheduling order, renewed at every periodic re-arm
	period time.Duration
	left   int // periodic: firings before it stops itself
	state  int
	idx    int // position in orderModel.pend while pending
	timer  Timer
}

// orderModel drives an Engine and a reference model side by side. The
// reference keeps its pending timers in a plain list and always fires the
// one with the least (at, scheduling order); every engine callback checks
// that it is that one, at that instant, with Pending equal to the list's
// length.
type orderModel struct {
	t        *testing.T
	e        *Engine
	rng      *rand.Rand
	now      time.Duration
	seq      uint64
	timers   []*refTimer
	pend     []*refTimer
	limit    int // timers scheduled at most
	compacts int
}

func (m *orderModel) add(r *refTimer) {
	r.state = refPending
	r.seq = m.seq
	m.seq++
	r.idx = len(m.pend)
	m.pend = append(m.pend, r)
}

func (m *orderModel) remove(r *refTimer) {
	last := m.pend[len(m.pend)-1]
	m.pend[r.idx] = last
	last.idx = r.idx
	m.pend = m.pend[:len(m.pend)-1]
}

// next is the reference's earliest pending timer, or nil.
func (m *orderModel) next() *refTimer {
	var best *refTimer
	for _, r := range m.pend {
		if best == nil || r.at < best.at || r.at == best.at && r.seq < best.seq {
			best = r
		}
	}
	return best
}

func (m *orderModel) check(where string) {
	m.t.Helper()
	if got := m.e.live; got != len(m.pend) {
		m.t.Fatalf("%s: %d live events, reference has %d", where, got, len(m.pend))
	}
	if got := m.e.Now(); got != m.now {
		m.t.Fatalf("%s: Now() = %v, reference at %v", where, got, m.now)
	}
}

// at draws an absolute time that lands in the active slot, the wheel or the
// overflow heap (up to 30 s ahead). Half the draws are cut to a whole
// millisecond, so many events share an instant, and some fall before now
// and are clamped to it.
func (m *orderModel) at() time.Duration {
	var d time.Duration
	switch m.rng.Intn(6) {
	case 0:
		d = -time.Duration(m.rng.Intn(3)) * time.Millisecond
	case 1:
		d = time.Duration(m.rng.Int63n(int64(slotWidth)))
	case 2:
		d = time.Duration(m.rng.Intn(2*wheelSize)) * slotWidth
	case 3:
		d = time.Duration(m.rng.Int63n(int64(wheelSize * slotWidth)))
	default:
		d = time.Duration(m.rng.Int63n(int64(30 * time.Second)))
	}
	at := m.now + d
	if m.rng.Intn(2) == 0 {
		at = at.Truncate(time.Millisecond)
	}
	return at
}

func (m *orderModel) schedule() {
	r := &refTimer{id: len(m.timers)}
	m.timers = append(m.timers, r)
	switch k := m.rng.Intn(6); k {
	case 0:
		periods := []time.Duration{3 * time.Millisecond, slotWidth, 250 * time.Millisecond, 9 * time.Second}
		r.period = periods[m.rng.Intn(len(periods))]
		r.left = 1 + m.rng.Intn(12)
		r.at = m.now + r.period
		r.timer = m.e.Every(r.period, func() { m.fire(r) })
	default:
		at := m.at()
		r.at = max(at, m.now)
		if k%2 == 0 {
			r.timer = m.e.At(at, func() { m.fire(r) })
		} else {
			r.timer = m.e.AtArg(at, m.fireArg, r)
		}
	}
	m.add(r)
}

// stop cancels r on both sides and compares Stop's report with the
// reference's.
func (m *orderModel) stop(r *refTimer) {
	m.t.Helper()
	want := r.state != refDone
	queued := r.state == refPending
	if queued {
		m.remove(r)
	}
	r.state = refDone
	dead := m.e.dead
	if got := r.timer.Stop(); got != want {
		m.t.Fatalf("Stop(timer %d) = %v, want %v", r.id, got, want)
	}
	if queued && m.e.dead <= dead {
		m.compacts++
	}
}

func (m *orderModel) fireArg(a any) { m.fire(a.(*refTimer)) }

func (m *orderModel) fire(r *refTimer) {
	m.t.Helper()
	want := m.next()
	if want != r || r.at != m.e.Now() {
		if want == nil {
			m.t.Fatalf("timer %d fired at %v, reference has nothing pending", r.id, m.e.Now())
		}
		m.t.Fatalf("timer %d fired at %v, reference fires timer %d at %v", r.id, m.e.Now(), want.id, want.at)
	}
	m.now = r.at
	m.remove(r)
	r.state = refDone
	if r.period > 0 {
		r.state = refFiring
	}
	m.check("in callback")
	for n := m.rng.Intn(3); n > 0 && len(m.timers) < m.limit; n-- {
		m.schedule()
	}
	if m.rng.Intn(4) == 0 {
		m.stop(m.timers[m.rng.Intn(len(m.timers))])
	}
	if r.period > 0 {
		if r.left--; r.left == 0 && r.state == refFiring {
			m.stop(r)
		}
		if r.state == refFiring {
			r.at = m.now + r.period
			m.add(r)
		}
	}
}

// TestQueueMatchesReference is a differential test of the whole queue: At,
// AtArg and Every with delays across the active slot, the wheel and the
// overflow heap, deliberate ties, nested scheduling, Stop from outside and
// from inside periodic callbacks, and cancellation bursts large enough to
// compact, interleaved with Run, RunUntil, NextAt and Step.
func TestQueueMatchesReference(t *testing.T) {
	compacts := 0
	for seed := int64(1); seed <= 20; seed++ {
		m := &orderModel{t: t, e: New(seed), rng: rand.New(rand.NewSource(seed)), limit: 3000}
		for op := 0; op < 500; op++ {
			switch m.rng.Intn(8) {
			case 0:
				for n := 1 + m.rng.Intn(150); n > 0; n-- {
					m.schedule()
				}
			case 1:
				for _, r := range append([]*refTimer(nil), m.pend...) {
					if m.rng.Intn(8) != 0 {
						m.stop(r)
					}
				}
			case 2:
				horizon := m.now + time.Duration(m.rng.Int63n(int64(12*time.Second)))
				if err := m.e.Run(horizon); err != nil {
					t.Fatal(err)
				}
				if r := m.next(); r != nil && r.at <= horizon {
					t.Fatalf("Run(%v) left timer %d at %v", horizon, r.id, r.at)
				}
				m.now = horizon
			case 3:
				end := m.now + time.Duration(m.rng.Int63n(int64(12*time.Second)))
				if err := m.e.RunUntil(end); err != nil {
					t.Fatal(err)
				}
				if r := m.next(); r != nil && r.at < end {
					t.Fatalf("RunUntil(%v) left timer %d at %v", end, r.id, r.at)
				}
			case 4:
				at, ok := m.e.NextAt()
				if r := m.next(); ok != (r != nil) || ok && at != r.at {
					t.Fatalf("NextAt() = %v, %v; reference %+v", at, ok, r)
				}
			case 5:
				want := m.next() != nil
				if got := m.e.Step(); got != want {
					t.Fatalf("Step() = %v, want %v", got, want)
				}
			default:
				for n := 1 + m.rng.Intn(3); n > 0; n-- {
					m.schedule()
				}
			}
			m.check("after op")
		}
		m.limit = 0
		for _, r := range m.timers {
			if r.period > 0 {
				m.stop(r)
			}
		}
		horizon := m.now + time.Minute
		if err := m.e.Run(horizon); err != nil {
			t.Fatal(err)
		}
		m.now = horizon
		m.check("after drain")
		for _, r := range m.timers {
			if r.state != refDone {
				t.Fatalf("seed %d: timer %d never fired", seed, r.id)
			}
		}
		compacts += m.compacts
	}
	if compacts == 0 {
		t.Error("no cancellation burst compacted the queue")
	}
}

// wheelChunks counts the chunks the wheel retains, in buckets and on the
// free list.
func wheelChunks(e *Engine) int {
	n := 0
	for b := range e.wheel {
		for c := e.wheel[b].head; c != nil; c = c.next {
			n++
		}
	}
	for c := e.spare; c != nil; c = c.next {
		n++
	}
	return n
}

// TestWheelStorageFollowsPending checks that the wheel's storage follows
// what is pending, not what it once held. Each revolution sends a burst into
// a different bucket and drains it; the chunks it used must be reused by the
// next burst rather than stay parked in the bucket that last held them.
func TestWheelStorageFollowsPending(t *testing.T) {
	const revolutions, burst = 200, 500
	e := New(1)
	fn := func(any) {}
	peak, occupied := 0, 0
	for r := int64(1); r <= revolutions; r++ {
		// wheelSize-1 slots past the previous burst: still inside the
		// wheel, one bucket earlier each time.
		at := time.Duration(r*(wheelSize-1)) * slotWidth
		for i := 0; i < burst; i++ {
			e.AtArg(at+time.Duration(i)*time.Microsecond, fn, nil)
		}
		peak = max(peak, e.live)
		n := 0
		for _, w := range e.occupied {
			n += bits.OnesCount64(w)
		}
		occupied = max(occupied, n)
		if err := e.Run(at + slotWidth); err != nil {
			t.Fatal(err)
		}
		if got, bound := wheelChunks(e), peak/chunkLen+occupied+1; got > bound {
			t.Fatalf("after %d bursts of %d the wheel retains %d chunks, bound %d", r, burst, got, bound)
		}
	}
	if e.Processed() != revolutions*burst {
		t.Fatalf("processed %d events, want %d", e.Processed(), revolutions*burst)
	}
}

// TestEngineSteadyStateZeroAlloc is the allocation gate on the queue: once
// warm, scheduling with AtArg and firing through the active slot, the wheel
// and the overflow heap allocates nothing.
func TestEngineSteadyStateZeroAlloc(t *testing.T) {
	e := New(1)
	delays := []time.Duration{0, 3 * time.Millisecond, 40 * time.Millisecond, 900 * time.Millisecond, 5 * time.Second, 20 * time.Second}
	chain := any(true)
	fired := 0
	var fn func(any)
	fn = func(a any) {
		fired++
		if a != nil { // a same-instant follow-up goes into the active slot
			e.AtArg(e.Now(), fn, nil)
		}
	}
	cycle := func() {
		for i := 0; i < 64; i++ {
			for _, d := range delays {
				e.AtArg(e.Now()+d+time.Duration(i)*time.Microsecond, fn, chain)
			}
		}
		if err := e.Run(e.Now() + 21*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Errorf("a warm schedule-and-fire cycle allocates %.1f objects, want 0", allocs)
	}
	if want := 52 * 2 * 64 * len(delays); fired != want {
		t.Errorf("fired %d events, want %d", fired, want)
	}
}
