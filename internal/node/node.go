// Package node defines the runtime environment a protocol participant
// (peer, tracker, bootstrap server, stream source) runs in.
//
// Protocol logic is written against the Env interface — a clock for timers,
// a datagram sender, and a deterministic random stream — so the same
// implementation runs over the discrete-event simulated underlay
// (internal/simnet) and over real UDP sockets (internal/udpnet, used by the
// examples).
package node

import (
	"math/rand"
	"net/netip"
	"time"

	"pplivesim/internal/wire"
)

// Cancel stops a pending timer. It reports whether the timer had not yet
// fired.
type Cancel func() bool

// Env is the world as seen by one protocol node.
type Env interface {
	// Addr returns the node's own address.
	Addr() netip.Addr
	// Now returns the node's clock reading (virtual or wall time since the
	// environment started).
	Now() time.Duration
	// After schedules fn once, d from now.
	After(d time.Duration, fn func()) Cancel
	// Every schedules fn periodically, first firing one period from now.
	Every(d time.Duration, fn func()) Cancel
	// Rand returns the node's deterministic random stream.
	Rand() *rand.Rand
	// Send transmits a datagram to another node. From Send on the message
	// belongs to the transport and must not be mutated. One made by a wire
	// constructor (wire.NewDataRequest, NewHave, NewBufferMapAnnounce,
	// NewTrackerQuery, NewPing and the rest listed in wire's pool.go) must
	// not be kept either: the transport may recycle it once it is delivered
	// or dropped (simnet does, with wire.Release, once per destination). It
	// goes to one destination, except a Have or a BufferMapAnnounce whose
	// SetDeliveries declared n of them: it is sent exactly n times, and the
	// last release recycles it. Any other message is never recycled, so one
	// value may go to several destinations.
	Send(to netip.Addr, msg wire.Message)
	// UplinkBacklog reports how long the node's access uplink is currently
	// backed up (zero when idle). Serving policies use it to shed load.
	UplinkBacklog() time.Duration
}

// Handler consumes datagrams addressed to a node. HandleMessage must not
// keep msg, or anything it points to, after it returns: the transport may
// recycle the message at once (see Env.Send).
type Handler interface {
	HandleMessage(from netip.Addr, msg wire.Message)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(from netip.Addr, msg wire.Message)

// HandleMessage implements Handler.
func (f HandlerFunc) HandleMessage(from netip.Addr, msg wire.Message) { f(from, msg) }
