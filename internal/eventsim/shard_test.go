package eventsim

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// withProcs runs the test with GOMAXPROCS set to n, so worker counts above
// the machine's core count are really started (Group.Run caps at GOMAXPROCS).
func withProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// groupPing wires n engines into a ring: every engine, each millisecond,
// posts a message to the next engine that arrives lookahead later, routed
// through per-source outboxes the Flush callback drains at the barrier (no
// Deliver hook: the serial-tail-only configuration). It returns per-engine
// event logs ("engine@time" strings) — the trajectory the worker-count
// sweeps compare. Logs are kept per engine because that is the Group's
// ordering contract: each shard's event sequence is total and deterministic,
// while cross-shard interleaving within a window is intentionally unordered
// (the shards run concurrently).
func groupPing(t *testing.T, n, workers int, horizon time.Duration) [][]string {
	t.Helper()
	const lookahead = 3 * time.Millisecond

	engines := make([]*Engine, n)
	for i := range engines {
		engines[i] = New(int64(1000 + i))
	}
	logs := make([][]string, n)
	type xmsg struct {
		src, dst int
		arrival  time.Duration
	}
	outbox := make([][]xmsg, n)

	for i, e := range engines {
		i, e := i, e
		// Stagger starts so windows begin with different active sets.
		e.At(time.Duration(i)*time.Millisecond, func() {})
		e.Every(time.Millisecond, func() {
			logs[i] = append(logs[i], fmt.Sprintf("%d@%v", i, e.Now()))
			outbox[i] = append(outbox[i], xmsg{src: i, dst: (i + 1) % n, arrival: e.Now() + lookahead})
		})
	}

	g := Group{
		Engines:   engines,
		Lookahead: lookahead,
		Workers:   workers,
		Flush: func() {
			for src := range outbox {
				for _, m := range outbox[src] {
					m := m
					engines[m.dst].At(m.arrival, func() {
						logs[m.dst] = append(logs[m.dst], fmt.Sprintf("%d@%v<-%d", m.dst, engines[m.dst].Now(), m.src))
					})
				}
				outbox[src] = outbox[src][:0]
			}
		},
	}
	if err := g.Run(horizon); err != nil {
		t.Fatalf("n=%d workers=%d: %v", n, workers, err)
	}
	if g.Windows == 0 {
		t.Fatalf("n=%d workers=%d: no windows executed", n, workers)
	}
	for _, e := range engines {
		if e.Now() != horizon {
			t.Fatalf("n=%d workers=%d: engine clock %v, want horizon %v", n, workers, e.Now(), horizon)
		}
	}
	return logs
}

// TestGroupWorkerCountInvariance checks the Group's core contract: every
// shard's event trajectory — each firing, in order, including cross-shard
// deliveries — is identical for every worker count, including counts below
// and above the engine count.
func TestGroupWorkerCountInvariance(t *testing.T) {
	const n = 6
	withProcs(t, n)
	ref := groupPing(t, n, 1, 50*time.Millisecond)
	for i, l := range ref {
		if len(l) == 0 {
			t.Fatalf("reference run logged nothing on engine %d", i)
		}
	}
	for _, workers := range []int{2, 3, n, n + 5} {
		got := groupPing(t, n, workers, 50*time.Millisecond)
		for i := range ref {
			if !slices.Equal(got[i], ref[i]) {
				t.Fatalf("workers=%d engine %d: trajectory differs from the 1-worker reference", workers, i)
			}
		}
	}
}

// TestGroupWaitStrategies runs the ring with waiters that spin before they
// park and with waiters that park at once, whatever the machine's core count
// would pick, and holds both to the 1-worker trajectory.
func TestGroupWaitStrategies(t *testing.T) {
	const n = 6
	withProcs(t, n)
	prev := cores
	t.Cleanup(func() { cores = prev })
	ref := groupPing(t, n, 1, 50*time.Millisecond)
	for _, c := range []struct {
		name  string
		cores int
	}{{"spin", n}, {"park", 1}} {
		cores = c.cores
		got := groupPing(t, n, n, 50*time.Millisecond)
		for i := range ref {
			if !slices.Equal(got[i], ref[i]) {
				t.Fatalf("%s: engine %d: trajectory differs from the 1-worker reference", c.name, i)
			}
		}
	}
}

// meshRun is one run of the skewed mesh: per-engine event logs plus the
// window count.
type meshRun struct {
	logs    [][]uint64
	windows uint64
}

// groupMesh runs n engines whose loads are skewed at random and drift over
// the run (so the periodic rebalance really moves engines between workers),
// each event posting to a random other engine through per-(src,dst) outboxes
// that Deliver drains per destination, sources ascending. Alongside the
// trajectory it checks the barrier protocol from the inside: Deliver runs
// exactly once per engine per window, never while any engine is still
// executing the window, and Flush runs alone after all of them. The phase
// counters are atomics; calls[i] and logs[i] are plain on purpose, so the
// race detector reports two workers ever touching one engine's state
// without a barrier between them.
func groupMesh(t *testing.T, seed int64, n, workers int, horizon time.Duration) meshRun {
	t.Helper()
	const lookahead = 500 * time.Microsecond

	plan := rand.New(rand.NewSource(seed))
	engines := make([]*Engine, n)
	for i := range engines {
		engines[i] = New(seed*100 + int64(i))
	}
	type xmsg struct {
		arrival time.Duration
		tag     uint64
	}
	boxes := make([][]xmsg, n*n) // src*n+dst
	logs := make([][]uint64, n)
	calls := make([]uint64, n)
	var inRun, inDeliver atomic.Int32
	var g Group

	for i, e := range engines {
		i, e := i, e
		rng := e.NewRand()
		// Between 1 and 4 timers per engine with periods from 50µs to 800µs:
		// per-engine event rates spread over more than a decade.
		for k := 1 + plan.Intn(4); k > 0; k-- {
			period := 50 * time.Microsecond << plan.Intn(5)
			// Each timer is live only for part of the run, so the load
			// ranking of the engines changes between rebalances.
			from := time.Duration(plan.Int63n(int64(horizon / 2)))
			until := from + time.Duration(plan.Int63n(int64(horizon)))
			e.At(from, func() {
				var tm Timer
				tm = e.Every(period, func() {
					inRun.Add(1)
					defer inRun.Add(-1)
					if inDeliver.Load() != 0 {
						t.Errorf("engine %d ran an event during the deliver phase", i)
					}
					if e.Now() > until {
						tm.Stop()
						return
					}
					logs[i] = append(logs[i], uint64(e.Now())<<8|uint64(i))
					dst := rng.Intn(n)
					if dst == i {
						return
					}
					extra := time.Duration(rng.Int63n(int64(lookahead)))
					boxes[i*n+dst] = append(boxes[i*n+dst], xmsg{arrival: e.Now() + lookahead + extra, tag: uint64(len(logs[i]))<<8 | uint64(i)})
				})
			})
		}
	}

	g = Group{
		Engines:   engines,
		Lookahead: lookahead,
		Workers:   workers,
		Deliver: func(dst int) {
			inDeliver.Add(1)
			defer inDeliver.Add(-1)
			if inRun.Load() != 0 {
				t.Errorf("Deliver(%d) overlapped the run phase", dst)
			}
			if calls[dst] != g.Windows {
				t.Errorf("Deliver(%d) call %d in window %d", dst, calls[dst], g.Windows)
			}
			calls[dst]++
			e := engines[dst]
			for src := 0; src < n; src++ {
				box := &boxes[src*n+dst]
				for _, m := range *box {
					if m.arrival < e.Now() {
						t.Errorf("message for engine %d arrives at %v, engine already at %v", dst, m.arrival, e.Now())
					}
					e.AtArg(m.arrival, func(arg any) {
						logs[dst] = append(logs[dst], uint64(e.Now())<<8|arg.(uint64)&0xff|1<<63)
					}, m.tag)
				}
				*box = (*box)[:0]
			}
		},
		Flush: func() {
			if inRun.Load() != 0 || inDeliver.Load() != 0 {
				t.Errorf("Flush overlapped a parallel phase in window %d", g.Windows)
			}
			for i, c := range calls {
				if c != g.Windows+1 {
					t.Errorf("window %d: Deliver(%d) called %d times in total", g.Windows, i, c)
				}
			}
		},
	}
	if err := g.Run(horizon); err != nil {
		t.Fatalf("seed=%d workers=%d: %v", seed, workers, err)
	}
	return meshRun{logs: logs, windows: g.Windows}
}

// TestGroupAssignmentInvariance: with skewed, drifting loads and cross-engine
// traffic through the Deliver hook, every engine's event log and the window
// count are identical at 1, 2, 3 and 8 workers — that is, under every
// engine→worker assignment the rebalance produces along the way and every
// takeover of a slow worker's engines by an idle one.
func TestGroupAssignmentInvariance(t *testing.T) {
	withProcs(t, 8)
	const n = 9
	// Just over two rebalance periods of windows: with GOMAXPROCS above the
	// core count every barrier crossing waits on the OS scheduler, and under
	// the race detector that is milliseconds per window.
	const horizon = 280 * time.Millisecond
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		ref := groupMesh(t, seed, n, 1, horizon)
		if ref.windows < 2*rebalanceEvery {
			t.Fatalf("seed %d: only %d windows, the assignment is never recomputed", seed, ref.windows)
		}
		var cross int
		for _, l := range ref.logs {
			for _, v := range l {
				cross += int(v >> 63)
			}
		}
		if cross == 0 {
			t.Fatalf("seed %d: no cross-engine delivery happened", seed)
		}
		for _, workers := range []int{2, 3, 8} {
			got := groupMesh(t, seed, n, workers, horizon)
			if got.windows != ref.windows {
				t.Errorf("seed %d workers %d: %d windows, reference %d", seed, workers, got.windows, ref.windows)
			}
			for i := range ref.logs {
				if !slices.Equal(got.logs[i], ref.logs[i]) {
					t.Errorf("seed %d workers %d: engine %d trajectory differs from the 1-worker reference", seed, workers, i)
				}
			}
		}
	}
}

// TestGroupRebalancePacksByLoad pins the assignment rule itself: longest
// first onto the least-loaded worker, ties to the emptier one.
func TestGroupRebalancePacksByLoad(t *testing.T) {
	loads := []uint64{5, 90, 10, 40, 45, 0}
	g := &Group{}
	for _, l := range loads {
		e := New(1)
		e.processed = l
		g.Engines = append(g.Engines, e)
	}
	r := &groupRun{
		g: g, mine: make([][]int, 2), bin: make([]uint64, 2),
		last: make([]uint64, len(loads)), load: make([]uint64, len(loads)), order: make([]int, len(loads)),
	}
	r.rebalance()
	// 90 | 45 40 10 → 5 joins the lighter first bin, 0 the emptier one.
	if got, want := fmt.Sprint(r.mine), "[[1 0 5] [4 3 2]]"; got != want {
		t.Errorf("assignment %s, want %s", got, want)
	}
	r.rebalance() // no events since: equal loads deal out round-robin
	if got, want := fmt.Sprint(r.mine), "[[0 2 4] [1 3 5]]"; got != want {
		t.Errorf("idle assignment %s, want %s", got, want)
	}
}

// TestGroupHorizonEdge pins the horizon convention: events scheduled at
// exactly the horizon fire (matching Engine.Run), later ones do not, and the
// final window is still never wider than the lookahead.
func TestGroupHorizonEdge(t *testing.T) {
	e := New(1)
	var fired []time.Duration
	for _, at := range []time.Duration{99 * time.Millisecond, 100 * time.Millisecond, 100*time.Millisecond + 1} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	g := Group{Engines: []*Engine{e}, Lookahead: 5 * time.Millisecond}
	if err := g.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || fired[0] != 99*time.Millisecond || fired[1] != 100*time.Millisecond {
		t.Fatalf("fired %v, want [99ms 100ms]", fired)
	}
	if e.Now() != 100*time.Millisecond {
		t.Fatalf("clock %v, want 100ms", e.Now())
	}
}

// TestGroupStop checks that engines stopping mid-run surface ErrStopped from
// Group.Run at every worker count, and that the outcome does not depend on
// which worker noticed first: two engines stop in the same window, the one
// with the lower index is named, every engine has finished that window, and
// nothing past it ran.
func TestGroupStop(t *testing.T) {
	withProcs(t, 4)
	var ref []uint64
	for _, workers := range []int{1, 2, 4} {
		engines := make([]*Engine, 5)
		for i := range engines {
			engines[i] = New(int64(i))
			engines[i].Every(time.Millisecond, func() {})
		}
		engines[3].At(7*time.Millisecond, engines[3].Stop)
		engines[1].At(7*time.Millisecond+500*time.Microsecond, engines[1].Stop)
		delivered := 0
		g := Group{
			Engines: engines, Lookahead: 2 * time.Millisecond, Workers: workers,
			Deliver: func(int) {},
			Flush:   func() { delivered++ },
		}
		err := g.Run(time.Second)
		if !errors.Is(err, ErrStopped) {
			t.Fatalf("workers=%d: err = %v, want ErrStopped", workers, err)
		}
		if !strings.Contains(err.Error(), "engine 1:") {
			t.Errorf("workers=%d: err = %q, want the first stopped engine in index order (1)", workers, err)
		}
		if uint64(delivered) != g.Windows {
			t.Errorf("workers=%d: %d flushes for %d completed windows", workers, delivered, g.Windows)
		}
		processed := []uint64{g.Windows}
		for _, e := range engines {
			processed = append(processed, e.Processed())
		}
		if ref == nil {
			ref = processed
		} else if !slices.Equal(processed, ref) {
			t.Errorf("workers=%d: windows+processed %v, 1-worker run %v", workers, processed, ref)
		}
	}
}

// helpersAlive counts the goroutines currently inside groupRun.help.
func helpersAlive() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "(*groupRun).help(")
}

// TestGroupWorkersExit: Run starts min(Workers, GOMAXPROCS, len(Engines))-1
// goroutines, and every one of them has exited by the time it returns — on
// the normal path and on the stop path. With a single P it starts none, so
// there is nobody to spin or to wait for. (A hang here is caught by the
// explicit -timeout of `make fast` and the CI race lane.)
func TestGroupWorkersExit(t *testing.T) {
	cases := []struct {
		procs, engines, workers, helpers int
		stop                             bool
	}{
		{procs: 4, engines: 6, workers: 4, helpers: 3},
		{procs: 4, engines: 6, workers: 4, helpers: 3, stop: true},
		{procs: 2, engines: 13, workers: 12, helpers: 1}, // the Workers = Shards default on a 2-core box
		{procs: 8, engines: 3, workers: 8, helpers: 2},
		{procs: 1, engines: 6, workers: 4, helpers: 0},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("procs=%d/engines=%d/workers=%d/stop=%v", tc.procs, tc.engines, tc.workers, tc.stop), func(t *testing.T) {
			withProcs(t, tc.procs)
			g := Group{Lookahead: time.Millisecond, Workers: tc.workers, Deliver: func(int) {}}
			during := -1
			for i := 0; i < tc.engines; i++ {
				e := New(int64(i))
				e.Every(300*time.Microsecond, func() {})
				g.Engines = append(g.Engines, e)
			}
			g.Engines[0].At(20*time.Millisecond, func() { during = helpersAlive() })
			if tc.stop {
				g.Engines[2].At(30*time.Millisecond, g.Engines[2].Stop)
			}
			err := g.Run(100 * time.Millisecond)
			if tc.stop != errors.Is(err, ErrStopped) {
				t.Fatalf("err = %v, stop = %v", err, tc.stop)
			}
			if during != tc.helpers {
				t.Errorf("%d worker goroutines during the run, want %d", during, tc.helpers)
			}
			// A worker's last act is to report that it is done; the runtime
			// may take a moment longer to retire its goroutine.
			after := helpersAlive()
			for deadline := time.Now().Add(5 * time.Second); after != 0 && time.Now().Before(deadline); after = helpersAlive() {
				runtime.Gosched()
			}
			if after != 0 {
				t.Errorf("%d worker goroutines outlived Run", after)
			}
		})
	}
}
