// Package eventsim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and a priority queue of scheduled
// events. Events scheduled for the same instant fire in the order they were
// scheduled (FIFO tie-breaking via a monotonically increasing sequence
// number), which makes every run a pure function of its inputs and seed.
//
// Internals are built for throughput: scheduled events live in a slab
// (free-list reuse, no per-event heap allocation), and their queue entries
// sit in one of three places. The current slot is a sorted array of every
// entry due within the active 8 ms slot. Entries due within the next
// wheelSize slots (the dominant case: datagram deliveries and sub-second
// periodic ticks) go to a timer wheel whose buckets are linked lists of
// fixed-size chunks taken from, and returned to, a per-engine free list.
// Only far-future events touch the overflow binary heap. The queue therefore
// holds what is pending, not what it once held: the wheel never retains
// more chunks than its peak of pending entries fills, plus one partly filled
// chunk per occupied bucket, and once warm it allocates nothing. Cancellation
// is lazy — a stopped timer marks its slab item dead and the queue entry is
// skipped (and its slot reclaimed) when it surfaces; when dead entries pile
// up they are compacted out eagerly so Pending always reflects live load.
package eventsim

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"time"
)

// ErrStopped is returned by Run when the simulation was stopped explicitly
// via Stop before reaching its horizon.
var ErrStopped = errors.New("eventsim: simulation stopped")

// Event is a callback scheduled to run at a virtual instant.
type Event func()

// Timer wheel geometry. Slots cover slotWidth each; the wheel spans
// wheelSize*slotWidth (~8 s) of virtual time ahead of the active slot, which
// comfortably holds datagram deliveries and sub-10s periodic ticks. Longer
// timers overflow into the binary heap and migrate into the wheel as their
// slot comes due.
const (
	slotWidth = 8 * time.Millisecond
	wheelSize = 1024 // must be a power of two
	wheelMask = wheelSize - 1
)

// entry is one queue position: where and when, plus the slab reference.
type entry struct {
	at   time.Duration
	seq  uint64
	slot int32
	gen  uint32
}

func entryLess(a, b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// chunkLen entries fill a chunk to exactly the 256-byte allocation class.
const chunkLen = 10

// chunk is one link of a wheel bucket's entry list, or of the engine's free
// list. next comes first so the collector scans one word of it.
type chunk struct {
	next *chunk
	n    int32 // ents[:n] are in use
	ents [chunkLen]entry
}

// bucket is one wheel slot's entries in enqueue order; every chunk but the
// tail is full.
type bucket struct {
	head, tail *chunk
}

// Slab item states.
const (
	statePending uint8 = iota // scheduled, queue entry outstanding
	stateFiring               // periodic item inside its callback
	stateDead                 // cancelled, queue entry (if any) is garbage
)

// item is a scheduled event's slab cell. Generation counters make stale
// Timer handles harmless after the slot is recycled.
type item struct {
	fn       Event
	argFn    func(any)
	arg      any
	gen      uint32
	state    uint8
	periodic bool
}

// Timer is a handle for a scheduled event that can be cancelled. The zero
// value is inert.
type Timer struct {
	e    *Engine
	slot int32
	gen  uint32
}

// Stop cancels the timer. It reports whether the event had not yet fired
// (for periodic timers: whether it was still active). Stopping an
// already-fired or already-stopped timer is a no-op.
func (t Timer) Stop() bool {
	e := t.e
	if e == nil {
		return false
	}
	it := &e.items[t.slot]
	if it.gen != t.gen || it.state == stateDead {
		return false
	}
	if it.state == stateFiring {
		// Periodic timer stopped from inside its own callback: no queue
		// entry is outstanding; the re-arm path reclaims the slot.
		it.state = stateDead
		return true
	}
	it.state = stateDead
	e.live--
	e.dead++
	e.maybeCompact()
	return true
}

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; all event callbacks run on the caller's goroutine inside
// Run.
type Engine struct {
	now     time.Duration
	seq     uint64
	rng     *rand.Rand
	stopped bool

	// processed counts events executed so far (cancelled events excluded).
	processed uint64

	// Slab of scheduled events plus its free list.
	items []item
	free  []int32

	live int // scheduled and not cancelled
	dead int // cancelled but still queued (lazy deletion)

	// cur is the active slot: every pending entry with slot number <=
	// curSlot, sorted by (at, seq); cur[:curPos] is consumed.
	cur     []entry
	curPos  int
	curSlot int64

	// wheel buckets hold entries for slot numbers in
	// (curSlot, curSlot+wheelSize); occupied is its non-empty bitmap. Their
	// chunks come from and return to spare, so the wheel retains at most its
	// peak of in-use chunks.
	wheel    [wheelSize]bucket
	occupied [wheelSize / 64]uint64
	spare    *chunk

	// heap holds entries at least a full wheel revolution ahead.
	heap []entry
}

// New creates an engine whose random streams derive from seed.
func New(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time (elapsed since simulation start).
func (e *Engine) Now() time.Duration { return e.now }

// Rand returns the engine's deterministic random source. All model code must
// draw randomness from here (or from a stream split off via NewRand) so runs
// stay reproducible.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// NewRand derives an independent deterministic random stream. Components
// that consume randomness at data-dependent rates should use their own stream
// so their draws do not perturb unrelated components.
func (e *Engine) NewRand() *rand.Rand {
	return rand.New(rand.NewSource(e.rng.Int63()))
}

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of live scheduled events. Cancelled events
// awaiting lazy removal are not counted.
func (e *Engine) Pending() int { return e.live }

// allocSlot takes a slab cell from the free list, growing the slab if empty.
func (e *Engine) allocSlot() int32 {
	if n := len(e.free); n > 0 {
		s := e.free[n-1]
		e.free = e.free[:n-1]
		return s
	}
	e.items = append(e.items, item{})
	return int32(len(e.items) - 1)
}

// freeSlot recycles a slab cell, invalidating outstanding Timer handles.
func (e *Engine) freeSlot(slot int32) {
	it := &e.items[slot]
	it.fn = nil
	it.argFn = nil
	it.arg = nil
	it.gen++
	it.state = statePending
	it.periodic = false
	e.free = append(e.free, slot)
}

// enqueue places a queue entry for the given slab cell at time at.
func (e *Engine) enqueue(at time.Duration, slot int32, gen uint32) {
	if at < e.now {
		at = e.now
	}
	ent := entry{at: at, seq: e.seq, slot: slot, gen: gen}
	e.seq++
	s := int64(at / slotWidth)
	switch {
	case s <= e.curSlot:
		e.insertCur(ent)
	case s-e.curSlot < wheelSize:
		e.push(s&wheelMask, ent)
	default:
		e.heapPush(ent)
	}
	e.live++
}

// push appends ent to wheel bucket b, taking a chunk from the free list when
// the bucket is empty or its tail is full.
func (e *Engine) push(b int64, ent entry) {
	bk := &e.wheel[b]
	t := bk.tail
	if t == nil || t.n == chunkLen {
		c := e.spare
		if c != nil {
			e.spare = c.next
			c.next, c.n = nil, 0
		} else {
			c = new(chunk)
		}
		if t == nil {
			bk.head = c
			e.occupied[b>>6] |= 1 << (b & 63)
		} else {
			t.next = c
		}
		bk.tail, t = c, c
	}
	t.ents[t.n] = ent
	t.n++
}

// take empties wheel bucket b and returns its chunk list, which the caller
// reads and then hands to recycle.
func (e *Engine) take(b int64) bucket {
	bk := e.wheel[b]
	e.wheel[b] = bucket{}
	e.occupied[b>>6] &^= 1 << (b & 63)
	return bk
}

// recycle puts the chunk list from head through tail on the free list.
func (e *Engine) recycle(head, tail *chunk) {
	tail.next = e.spare
	e.spare = head
}

// insertCur inserts into the active slot's sorted pending suffix. New
// entries carry the highest seq, so ties land after existing equal-time
// entries (FIFO preserved).
func (e *Engine) insertCur(ent entry) {
	lo, hi := e.curPos, len(e.cur)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if entryLess(e.cur[mid], ent) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	e.cur = append(e.cur, entry{})
	copy(e.cur[lo+1:], e.cur[lo:])
	e.cur[lo] = ent
}

// nextOccupied returns the slot number of the first occupied wheel bucket
// after curSlot, or -1 if the wheel is empty.
func (e *Engine) nextOccupied() int64 {
	startB := (e.curSlot + 1) & wheelMask
	wi := startB >> 6
	w := e.occupied[wi] &^ ((1 << (startB & 63)) - 1)
	const words = wheelSize / 64
	for k := 0; ; k++ {
		if w != 0 {
			b := wi<<6 + int64(bits.TrailingZeros64(w))
			return e.curSlot + 1 + ((b - startB) & wheelMask)
		}
		if k == words {
			return -1
		}
		wi = (wi + 1) & (words - 1)
		w = e.occupied[wi]
	}
}

// advance moves the active slot to the next one holding entries, pulling in
// due overflow-heap entries, and sorts it. It reports whether anything is
// queued at all.
func (e *Engine) advance() bool {
	e.cur = e.cur[:0]
	e.curPos = 0
	target := e.nextOccupied()
	if len(e.heap) > 0 {
		hs := int64(e.heap[0].at / slotWidth)
		if target == -1 || hs < target {
			target = hs
		}
	}
	if target == -1 {
		return false
	}
	e.curSlot = target
	if bk := e.take(target & wheelMask); bk.head != nil {
		for c := bk.head; c != nil; c = c.next {
			e.cur = append(e.cur, c.ents[:c.n]...)
		}
		e.recycle(bk.head, bk.tail)
	}
	end := time.Duration(target+1) * slotWidth
	for len(e.heap) > 0 && e.heap[0].at < end {
		e.cur = append(e.cur, e.heapPop())
	}
	slices.SortFunc(e.cur, func(a, b entry) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	return true
}

// peek returns the next live entry without consuming it, lazily collecting
// dead entries it skips over.
func (e *Engine) peek() (entry, bool) {
	for {
		for e.curPos < len(e.cur) {
			ent := e.cur[e.curPos]
			it := &e.items[ent.slot]
			if it.gen == ent.gen && it.state != stateDead {
				return ent, true
			}
			e.curPos++
			if it.gen == ent.gen {
				e.dead--
				e.freeSlot(ent.slot)
			}
		}
		if !e.advance() {
			return entry{}, false
		}
	}
}

// fire consumes and executes the entry peek returned.
func (e *Engine) fire(ent entry) {
	e.curPos++
	it := &e.items[ent.slot]
	fn, argFn, arg := it.fn, it.argFn, it.arg
	e.live--
	if it.periodic {
		it.state = stateFiring
	} else {
		e.freeSlot(ent.slot)
	}
	e.now = ent.at
	e.processed++
	if argFn != nil {
		argFn(arg)
	} else {
		fn()
	}
}

// maybeCompact sweeps dead entries out of the queue once they outnumber the
// live ones, so cancel-heavy workloads (retransmission timers) cannot bloat
// the queue or skew capacity planning built on Pending.
func (e *Engine) maybeCompact() {
	if e.dead < 64 || e.dead <= e.live {
		return
	}
	keep := func(ent entry) bool {
		it := &e.items[ent.slot]
		if it.gen == ent.gen && it.state != stateDead {
			return true
		}
		if it.gen == ent.gen {
			e.dead--
			e.freeSlot(ent.slot)
		}
		return false
	}
	out := e.cur[:e.curPos]
	for _, ent := range e.cur[e.curPos:] {
		if keep(ent) {
			out = append(out, ent)
		}
	}
	e.cur = out
	// Each occupied bucket is rebuilt chunk by chunk: a chunk goes back on
	// the free list once read, so push can reuse it for the survivors that
	// follow.
	for wi, w := range e.occupied {
		for ; w != 0; w &= w - 1 {
			b := int64(wi<<6 + bits.TrailingZeros64(w))
			for c := e.take(b).head; c != nil; {
				next := c.next
				for _, ent := range c.ents[:c.n] {
					if keep(ent) {
						e.push(b, ent)
					}
				}
				e.recycle(c, c)
				c = next
			}
		}
	}
	o := e.heap[:0]
	for _, ent := range e.heap {
		if keep(ent) {
			o = append(o, ent)
		}
	}
	e.heap = o
	for i := len(e.heap)/2 - 1; i >= 0; i-- {
		e.siftDown(i)
	}
}

// Overflow heap: a plain binary min-heap over (at, seq), no indices — entries
// are removed only from the top or rebuilt wholesale during compaction.

func (e *Engine) heapPush(ent entry) {
	e.heap = append(e.heap, ent)
	i := len(e.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !entryLess(e.heap[i], e.heap[parent]) {
			break
		}
		e.heap[i], e.heap[parent] = e.heap[parent], e.heap[i]
		i = parent
	}
}

func (e *Engine) heapPop() entry {
	top := e.heap[0]
	n := len(e.heap) - 1
	e.heap[0] = e.heap[n]
	e.heap = e.heap[:n]
	if n > 0 {
		e.siftDown(0)
	}
	return top
}

func (e *Engine) siftDown(i int) {
	n := len(e.heap)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		min := l
		if r := l + 1; r < n && entryLess(e.heap[r], e.heap[l]) {
			min = r
		}
		if !entryLess(e.heap[min], e.heap[i]) {
			return
		}
		e.heap[i], e.heap[min] = e.heap[min], e.heap[i]
		i = min
	}
}

// At schedules fn to run at the absolute virtual time at. Times in the past
// are clamped to the current instant. It returns a cancellable timer handle.
func (e *Engine) At(at time.Duration, fn Event) Timer {
	if fn == nil {
		panic("eventsim: nil event")
	}
	slot := e.allocSlot()
	it := &e.items[slot]
	it.fn = fn
	gen := it.gen
	e.enqueue(at, slot, gen)
	return Timer{e: e, slot: slot, gen: gen}
}

// AtArg schedules fn(arg) at the absolute virtual time at. It exists for
// high-rate callers (datagram delivery): a non-capturing fn plus a pooled
// arg schedules an event with zero per-event allocation, where a capturing
// closure passed to At would allocate every time.
func (e *Engine) AtArg(at time.Duration, fn func(any), arg any) Timer {
	if fn == nil {
		panic("eventsim: nil event")
	}
	slot := e.allocSlot()
	it := &e.items[slot]
	it.argFn = fn
	it.arg = arg
	gen := it.gen
	e.enqueue(at, slot, gen)
	return Timer{e: e, slot: slot, gen: gen}
}

// After schedules fn to run d after the current instant. Negative delays are
// clamped to zero.
func (e *Engine) After(d time.Duration, fn Event) Timer {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// Every schedules fn to run repeatedly with the given period, starting one
// period from now. The returned timer cancels future firings when stopped.
// The period must be positive. A periodic timer occupies a single slab cell
// for its whole life, so the handle stays valid across re-arms.
func (e *Engine) Every(period time.Duration, fn Event) Timer {
	if period <= 0 {
		panic(fmt.Sprintf("eventsim: non-positive period %v", period))
	}
	if fn == nil {
		panic("eventsim: nil event")
	}
	slot := e.allocSlot()
	gen := e.items[slot].gen
	tick := func() {
		fn()
		it := &e.items[slot]
		if it.gen != gen || it.state != stateFiring {
			// Stopped from inside fn: reclaim the cell.
			if it.gen == gen {
				e.freeSlot(slot)
			}
			return
		}
		it.state = statePending
		e.enqueue(e.now+period, slot, gen)
	}
	it := &e.items[slot]
	it.fn = tick
	it.periodic = true
	e.enqueue(e.now+period, slot, gen)
	return Timer{e: e, slot: slot, gen: gen}
}

// Stop halts the simulation: Run returns ErrStopped after the current event
// completes.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events in order until the horizon is exceeded, the queue
// drains, or Stop is called. The clock never advances past horizon. It
// returns nil on normal completion (drain or horizon) and ErrStopped if
// stopped.
func (e *Engine) Run(horizon time.Duration) error {
	for e.live > 0 {
		if e.stopped {
			return ErrStopped
		}
		next, ok := e.peek()
		if !ok {
			break
		}
		if next.at > horizon {
			e.now = horizon
			return nil
		}
		e.fire(next)
	}
	if e.now < horizon {
		e.now = horizon
	}
	if e.stopped {
		return ErrStopped
	}
	return nil
}

// Step executes the single next pending event, if any, regardless of horizon.
// It reports whether an event was executed. Useful for fine-grained tests.
func (e *Engine) Step() bool {
	next, ok := e.peek()
	if !ok {
		return false
	}
	e.fire(next)
	return true
}

// NextAt returns the virtual time of the earliest pending event, if any. It
// is the conservative-window probe used by Group: between windows it tells
// the coordinator how far the engine can be fast-forwarded without skipping
// work.
func (e *Engine) NextAt() (time.Duration, bool) {
	next, ok := e.peek()
	if !ok {
		return 0, false
	}
	return next.at, true
}

// RunUntil executes events in order while their time is strictly before end.
// Unlike Run it never advances the clock past the last fired event, so a
// coordinator can interleave windows on several engines and only commit a
// final time with FastForward. It returns ErrStopped if Stop was called.
func (e *Engine) RunUntil(end time.Duration) error {
	for e.live > 0 {
		if e.stopped {
			return ErrStopped
		}
		next, ok := e.peek()
		if !ok || next.at >= end {
			break
		}
		e.fire(next)
	}
	if e.stopped {
		return ErrStopped
	}
	return nil
}

// FastForward advances the clock to t without executing anything. Moving
// backwards is a no-op; callers use it to commit a window boundary or the
// final horizon after RunUntil.
func (e *Engine) FastForward(t time.Duration) {
	if t > e.now {
		e.now = t
	}
}
