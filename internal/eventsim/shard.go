package eventsim

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Group runs several engines in lockstep windows — classic conservative
// parallel discrete-event simulation. The caller partitions the simulated
// system into shards whose internal traffic stays on one engine and whose
// cross-shard traffic is guaranteed to arrive at least Lookahead after it
// was sent. Each window [T, T+Lookahead) is then safe to execute on every
// engine independently: nothing generated inside the window can affect
// another shard before the window ends. Every window is two parallel phases
// and a serial tail: run (each engine executes to the window end), deliver
// (each engine takes in the cross-shard messages addressed to it — all of
// them arrive at or after the boundary, so none is late), then Flush.
//
// Each engine has a home worker, chosen to balance the event counts the
// engines report and revised every rebalanceEvery windows, so an engine's
// state stays in one core's cache from window to window; a worker that runs
// out of its own engines takes over the ones a slower worker has not reached.
//
// The schedule — window sequence, what each Deliver call sees, and the Flush
// points — is a pure function of barrier-time state and never depends on
// Workers or on which worker handles which engine, so a run's trajectory is
// identical whether the windows execute on one goroutine or many.
type Group struct {
	// Engines are the per-shard event loops. Index order is the
	// deterministic tie-break order for coordinator-side scans.
	Engines []*Engine

	// Lookahead is the guaranteed minimum latency of cross-shard traffic.
	// It must be positive, and every message handed across shards must
	// arrive at least this long after the instant it was sent.
	Lookahead time.Duration

	// Workers is the number of goroutines executing windows, the caller's
	// included. It is capped at GOMAXPROCS and at the engine count — a
	// worker without a processor or an engine of its own only adds
	// hand-offs — and values below 2 run everything on the calling
	// goroutine. Workers wait for each other by spinning briefly before
	// they park (at once when there are more of them than the machine has
	// cores), so a program that runs several Groups at once should divide
	// GOMAXPROCS between their Workers rather than give each all.
	Workers int

	// Deliver is called once per engine index at every window boundary,
	// after all engines have finished the window and before Flush. Calls
	// for different indices run concurrently, so Deliver(i) must schedule
	// the pending cross-shard messages addressed to Engines[i] onto it, in
	// an order that depends only on window state, and touch no other
	// engine. May be nil when the shards never talk to each other.
	Deliver func(engine int)

	// Flush is called single-threaded at every window boundary, after
	// every Deliver call has returned. May be nil.
	Flush func()

	// Windows counts executed synchronization windows (for instrumentation).
	Windows uint64
}

// rebalanceEvery is the number of windows between recomputations of the
// engine→worker assignment. An engine's load follows audience size and
// churn, which move over simulated minutes, while a window is at most one
// lookahead (milliseconds) of simulated time: 256 windows is a few simulated
// seconds, so the assignment tracks the load closely, the deltas it is
// computed from are hundreds of events deep rather than one window's noise,
// and the cost — one sort of len(Engines) counters plus whatever engines
// change cores and refill their caches — is paid a few times per wall
// second instead of every window. Take-over alone (the engines dealt out
// round-robin once and never again) does not replace it: on
// popular_full_sharded that costs 11 % (six alternating pairs, median 92 vs
// 83 wall-s per simulated hour, slower in all six) — stolen engines run on
// a cold cache, so the fewer windows that need stealing the better.
const rebalanceEvery = 256

// Window phases, published by the coordinator before each release.
const (
	phaseRun = iota
	phaseDeliver
	phaseExit
)

// noEvent is the next-event time of an engine with nothing pending: later
// than every window's end.
const noEvent = time.Duration(math.MaxInt64)

// Wait budget of a sleeper before it parks, and the assumption behind it:
// every worker has a processor to itself. Run never starts more workers than
// GOMAXPROCS, and a program that runs several Groups at once is expected to
// divide the processors between them first (experiments.parallelDo does).
// Then a phase lasts tens to hundreds of microseconds, the workers finish
// within about one engine's share of each other, and a park/unpark round trip
// through the scheduler and the kernel costs more than the wait it replaces.
// Measured on the popular_full_sharded ledger workload (one simulation, 2
// workers, 2 cores; wall seconds per simulated hour, three runs each): park at
// once 128–168, 32 yields then park 106–146, 128 polls and 64 yields 106–149,
// 512 yields alone 85–107, this budget 78–88 — and the channel dispatch this
// barrier replaced, 144–218. So: poll for a microsecond or two (the
// near-simultaneous finish), then poll between runtime.Gosched calls for up
// to a millisecond or so, which lets a GC worker have the P, and park only
// on a wait longer than that, such as a serial Flush hook doing real work.
//
// Where the assumption fails the budget is pure cost: two simulations with
// two workers each on two cores burn 10–20 % more CPU than with parking at
// once, at every budget above, the yields included (a yielding waiter still
// has to be scheduled to find out it may go on). No budget serves both
// cases, so the remedy for that one is fewer workers, not a shorter spin.
//
// Run can see one such case itself: more workers than the machine has cores,
// which happens when GOMAXPROCS was raised above them. Its waiters park at
// once. Four workers on two cores (the internal/core pinned rows, each run
// alone) took 12–16 CPU-s and 7–10 wall-s per small-swarm run with the
// budget, 8 CPU-s and 7.5 wall-s parking at once; those rows' whole test
// went from 322 to 221 CPU-s and from 177 to 119 wall-s.
const (
	spinPolls  = 1024
	spinYields = 512
)

// cores is the number of processors Run assumes its workers share. A
// variable so that tests can drive either wait strategy on any machine.
var cores = runtime.NumCPU()

// sleeper is one goroutine's wait point on the window barrier.
type sleeper struct {
	parked atomic.Bool
	spin   bool // poll and yield before parking; otherwise park at once
	// wake holds one token so that a waker that saw parked set just before
	// the sleeper re-checked its condition and moved on never blocks; the
	// stale token only costs the sleeper one extra re-check later.
	wake chan struct{}
	_    [48]byte // keep neighbouring sleepers off one cache line
}

// sleepUntil returns once v reads want: poll, then yield, then park.
func (s *sleeper) sleepUntil(v *atomic.Uint64, want uint64) {
	if s.spin {
		for i := 0; i < spinPolls; i++ {
			if v.Load() == want {
				return
			}
		}
		for i := 0; i < spinYields; i++ {
			runtime.Gosched()
			if v.Load() == want {
				return
			}
		}
	}
	for v.Load() != want {
		s.parked.Store(true)
		if v.Load() != want {
			<-s.wake
		}
		s.parked.Store(false)
	}
}

// unpark wakes the sleeper if it parked. The caller has already stored the
// value the sleeper waits for; with sequentially consistent atomics either
// the sleeper's re-check sees that value or this load sees parked.
func (s *sleeper) unpark() {
	if s.parked.Load() {
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
}

// groupRun is the state of one Group.Run call: the engine→worker assignment
// and a reusable epoch barrier between the coordinator (worker 0, the
// calling goroutine) and the other workers. The plain fields are written by
// the coordinator between phases only, and published to the workers by the
// epoch increment.
type groupRun struct {
	g      *Group
	kind   int
	end    time.Duration
	next   []time.Duration // per engine: earliest pending event, or noEvent
	mine   [][]int         // per worker: the engines it runs and delivers to first
	target uint64          // value of arrived that completes the current phase
	claim  []atomic.Uint64 // per engine: epoch of the last phase it was taken in

	// Rebalance scratch.
	last, load, bin []uint64
	order           []int

	_       [64]byte
	epoch   atomic.Uint64 // phases released so far
	_       [56]byte
	arrived atomic.Uint64 // worker phase completions so far
	_       [56]byte
	coord   sleeper
	helpers []sleeper // workers 1..
	wg      sync.WaitGroup
}

// Run executes all engines to the horizon in conservative windows. Events at
// exactly the horizon fire. On return every engine's clock reads horizon and
// every worker goroutine has exited. If any engine is stopped, the error
// wraps ErrStopped and names the first one in index order.
func (g *Group) Run(horizon time.Duration) error {
	if len(g.Engines) == 0 {
		return fmt.Errorf("eventsim: group has no engines")
	}
	if g.Lookahead <= 0 {
		return fmt.Errorf("eventsim: group lookahead %v is not positive", g.Lookahead)
	}
	n := len(g.Engines)
	workers := max(1, min(g.Workers, runtime.GOMAXPROCS(0), n))
	r := &groupRun{
		g:       g,
		next:    make([]time.Duration, n),
		claim:   make([]atomic.Uint64, n),
		mine:    make([][]int, workers),
		last:    make([]uint64, n),
		load:    make([]uint64, n),
		bin:     make([]uint64, workers),
		order:   make([]int, n),
		helpers: make([]sleeper, workers-1),
	}
	spin := workers <= cores
	r.coord.wake, r.coord.spin = make(chan struct{}, 1), spin
	r.rebalance() // no load measured yet: deals the engines out evenly
	r.wg.Add(len(r.helpers))
	for w := range r.helpers {
		r.helpers[w].wake, r.helpers[w].spin = make(chan struct{}, 1), spin
		go r.help(w + 1)
	}
	defer func() {
		r.release(phaseExit)
		r.wg.Wait()
	}()

	for {
		if err := g.stopped(); err != nil {
			return err
		}
		// Find the earliest pending event across shards, asking each engine
		// once: empty windows are skipped entirely by jumping T to it, and
		// the run phase skips every engine whose next event is not before
		// the window's end.
		minNext := noEvent
		for i, e := range g.Engines {
			at, ok := e.NextAt()
			if !ok {
				at = noEvent
			}
			r.next[i] = at
			minNext = min(minNext, at)
		}
		if minNext == noEvent || minNext > horizon {
			break
		}
		// Window width never exceeds the lookahead: anything sent inside
		// [T, end) arrives at or after end, so no shard can be surprised
		// mid-window. The horizon cap is horizon+1, not horizon, so events
		// at exactly the horizon fire, matching Engine.Run.
		r.end = min(minNext+g.Lookahead, horizon+1)

		r.phase(phaseRun)
		if err := g.stopped(); err != nil {
			return err
		}
		if g.Deliver != nil {
			r.phase(phaseDeliver)
		}
		if g.Flush != nil {
			g.Flush()
		}
		g.Windows++
		if workers > 1 && g.Windows%rebalanceEvery == 0 {
			r.rebalance()
		}
	}

	for _, e := range g.Engines {
		e.FastForward(horizon)
	}
	return nil
}

// stopped reports the first stopped engine in index order.
func (g *Group) stopped() error {
	for i, e := range g.Engines {
		if e.stopped {
			return fmt.Errorf("eventsim: engine %d: %w", i, ErrStopped)
		}
	}
	return nil
}

// release publishes the next phase to the helpers, wakes the parked ones and
// returns the phase's epoch.
func (r *groupRun) release(kind int) uint64 {
	r.kind = kind
	r.target += uint64(len(r.helpers))
	epoch := r.epoch.Add(1)
	for w := range r.helpers {
		r.helpers[w].unpark()
	}
	return epoch
}

// phase runs one phase on every worker and returns when all have finished.
func (r *groupRun) phase(kind int) {
	if len(r.helpers) == 0 {
		// Nobody to publish to or wait for. Skipping the atomics matters
		// under the race detector only, but there it matters a lot: each
		// one is a synchronisation point that sends every following memory
		// access down its slow path, and a single-worker golden run with
		// four of them per (tiny) window took 1.7× as long.
		r.kind = kind
		r.work(0, 0)
		return
	}
	r.work(0, r.release(kind))
	r.coord.sleepUntil(&r.arrived, r.target)
}

// help is the loop of workers 1 and up: one wake per phase.
func (r *groupRun) help(w int) {
	defer r.wg.Done()
	s := &r.helpers[w-1]
	for epoch := uint64(1); ; epoch++ {
		s.sleepUntil(&r.epoch, epoch)
		if r.kind == phaseExit {
			return
		}
		r.work(w, epoch)
		// The last arrival lets the coordinator go on to the next release,
		// which rewrites target: read it first.
		if target := r.target; r.arrived.Add(1) == target {
			r.coord.unpark()
		}
	}
}

// work is worker w's share of the current phase: its own engines, heaviest
// first, then whatever the other workers have not reached yet, taken from
// the light end of their lists. An engine is claimed for the phase by
// stamping it with the phase's epoch, so each runs (or is delivered to)
// exactly once. With balanced lists every worker finishes its own and
// nothing moves; when one falls behind — a heavy window on one engine, a
// descheduled core — the others shorten the wait instead of spinning
// through it.
func (r *groupRun) work(w int, epoch uint64) {
	g := r.g
	nw := len(r.mine)
	for k := 0; k < nw; k++ {
		list := r.mine[(w+k)%nw]
		for j := range list {
			i := list[j]
			if k > 0 {
				i = list[len(list)-1-j]
			}
			if r.kind == phaseRun && r.next[i] >= r.end {
				continue
			}
			if nw > 1 && r.claim[i].Swap(epoch) == epoch {
				continue
			}
			if r.kind == phaseDeliver {
				g.Deliver(i)
				continue
			}
			// The only error is ErrStopped, which the coordinator reads
			// back from the engines in index order after the phase.
			_ = g.Engines[i].RunUntil(r.end)
		}
	}
}

// rebalance reassigns engines to workers: greedy longest-first packing of the
// events each engine executed since the previous call, the load measure the
// engines already keep. Ties go to the worker holding fewer engines, so equal
// (or not yet measured) loads spread round-robin. Event counts are part of
// the trajectory, so the assignment is itself reproducible — and the
// trajectory does not depend on it either way.
func (r *groupRun) rebalance() {
	for i, e := range r.g.Engines {
		p := e.Processed()
		r.load[i], r.last[i] = p-r.last[i], p
		r.order[i] = i
	}
	slices.SortFunc(r.order, func(a, b int) int {
		if c := cmp.Compare(r.load[b], r.load[a]); c != 0 {
			return c
		}
		return a - b
	})
	for w := range r.mine {
		r.mine[w] = r.mine[w][:0]
		r.bin[w] = 0
	}
	for _, i := range r.order {
		best := 0
		for w := 1; w < len(r.mine); w++ {
			if r.bin[w] < r.bin[best] || r.bin[w] == r.bin[best] && len(r.mine[w]) < len(r.mine[best]) {
				best = w
			}
		}
		r.mine[best] = append(r.mine[best], i)
		r.bin[best] += r.load[i]
	}
}
