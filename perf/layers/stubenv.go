// Package layers drives one layer of the simulator at a time through its
// exported functions, against a benchmark-owned stub environment, and
// reports the cost of one operation. The numbers are the per-operation
// costs the e2e budget multiplies by the run's exact counts.
package layers

import (
	"math/rand"
	"net/netip"
	"time"

	"pplivesim/internal/node"
	"pplivesim/internal/wire"
)

// Sent is one datagram a node handed to the stub.
type Sent struct {
	To  netip.Addr
	Msg wire.Message
}

// stubTimer is one captured After/Every callback.
type stubTimer struct {
	period    time.Duration
	fn        func()
	periodic  bool
	cancelled bool
}

// StubEnv is a node.Env with no engine and no network behind it: sends are
// recorded (or dropped), timers are captured so the driver fires
// them itself, the clock moves only when the driver moves it, and the random
// stream has a fixed seed.
type StubEnv struct {
	addr    netip.Addr
	now     time.Duration
	rng     *rand.Rand
	timers  []*stubTimer
	backlog time.Duration

	// Keep retains sent messages for TakeSent; when false sends are dropped,
	// so a timed batch does not measure slice growth.
	Keep bool
	// sent and spare are swapped by TakeSent, so steady-state sends reuse
	// their backing arrays.
	sent, spare []Sent
}

var _ node.Env = (*StubEnv)(nil)

// NewStubEnv returns a stub environment for a node at addr.
func NewStubEnv(addr netip.Addr, seed int64) *StubEnv {
	return &StubEnv{addr: addr, rng: rand.New(rand.NewSource(seed)), Keep: true}
}

func (e *StubEnv) Addr() netip.Addr             { return e.addr }
func (e *StubEnv) Now() time.Duration           { return e.now }
func (e *StubEnv) Rand() *rand.Rand             { return e.rng }
func (e *StubEnv) UplinkBacklog() time.Duration { return e.backlog }

// Advance moves the clock forward without firing anything.
func (e *StubEnv) Advance(d time.Duration) { e.now += d }

// SetBacklog sets what UplinkBacklog reports (serving policies shed on it).
func (e *StubEnv) SetBacklog(d time.Duration) { e.backlog = d }

func (e *StubEnv) Send(to netip.Addr, msg wire.Message) {
	if e.Keep {
		e.sent = append(e.sent, Sent{To: to, Msg: msg})
	}
}

// TakeSent returns the sends retained since the last call. The slice is
// valid until the next TakeSent.
func (e *StubEnv) TakeSent() []Sent {
	out := e.sent
	e.sent, e.spare = e.spare[:0], out
	return out
}

func (e *StubEnv) schedule(d time.Duration, fn func(), periodic bool) node.Cancel {
	t := &stubTimer{period: d, fn: fn, periodic: periodic}
	e.timers = append(e.timers, t)
	return func() bool {
		was := !t.cancelled
		t.cancelled = true
		return was
	}
}

func (e *StubEnv) After(d time.Duration, fn func()) node.Cancel { return e.schedule(d, fn, false) }
func (e *StubEnv) Every(d time.Duration, fn func()) node.Cancel { return e.schedule(d, fn, true) }

// Periodic returns the live Every callback registered with the given
// period, or nil. A protocol node's timers are told apart by their periods.
func (e *StubEnv) Periodic(period time.Duration) func() {
	for _, t := range e.timers {
		if t.periodic && !t.cancelled && t.period == period {
			return t.fn
		}
	}
	return nil
}
