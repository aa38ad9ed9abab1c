// Package underlay models the physical network beneath the P2P overlay.
//
// It provides datagram delivery between hosts with three latency regimes
// (intra-ISP, inter-ISP domestic, transoceanic), a stable per-host-pair
// distance offset, per-packet jitter, probabilistic loss, and a serialized
// uplink queue per host so that loaded peers exhibit the growing
// application-layer queuing delay the paper observes during popular
// broadcasts (§3.3). All behaviour is driven by the eventsim engine, so
// deliveries are deterministic for a given seed.
package underlay

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"pplivesim/internal/eventsim"
	"pplivesim/internal/isp"
)

// Receiver is what a host's arriving datagrams are dispatched to. h is the
// destination, so one Receiver can serve any number of hosts and tell them
// apart by Host.Tag. Payloads are passed by reference; size is the
// on-the-wire size used for bandwidth accounting.
type Receiver interface {
	Deliver(h *Host, from netip.Addr, size int, payload any)
}

// Handler is the function form of Receiver. A func value is pointer-shaped,
// so storing one in a Receiver allocates nothing.
type Handler func(from netip.Addr, size int, payload any)

// Deliver implements Receiver; a nil Handler discards the datagram.
func (f Handler) Deliver(_ *Host, from netip.Addr, size int, payload any) {
	if f != nil {
		f(from, size, payload)
	}
}

// Host is an attached endpoint.
type Host struct {
	Addr netip.Addr
	ISP  isp.ISP

	// UploadBps is the access uplink capacity in bytes per second. Every
	// outgoing datagram serializes through this uplink.
	UploadBps float64
	// ProcDelay is a fixed per-datagram application processing delay added
	// at the receiver before the handler runs.
	ProcDelay time.Duration

	recv Receiver
	// key is the packed address the host is attached under, 0 while it is
	// not. In-flight datagrams carry the key they were sent to, so a host
	// that has detached, or whose storage has been recycled for another
	// address, never receives its predecessor's traffic.
	key uint32
	// Tag belongs to the host's Receiver: what it needs to tell the hosts it
	// serves apart. The network never reads it.
	Tag         int32
	upBusyUntil time.Duration
}

// QueueDelay returns the current uplink backlog expressed as time: how long a
// zero-size datagram enqueued now would wait before transmission starts.
func (h *Host) QueueDelay(now time.Duration) time.Duration {
	if h.upBusyUntil <= now {
		return 0
	}
	return h.upBusyUntil - now
}

// Config tunes the latency, loss, and queuing model. Durations are one-way
// propagation delays.
type Config struct {
	// IntraOWD is the base one-way delay between two hosts of the same ISP.
	IntraOWD map[isp.ISP]time.Duration
	// InterDomesticOWD is the base one-way delay between two distinct
	// domestic (Chinese) ISPs; PoorPeering pairs get an extra penalty.
	InterDomesticOWD time.Duration
	// TransoceanicOWD is the base one-way delay between a domestic ISP and
	// Foreign.
	TransoceanicOWD time.Duration
	// TeleCncPenalty is added on the TELE↔CNC path, whose interconnection
	// was famously congested in 2008-era China.
	TeleCncPenalty time.Duration

	// PairSpread scales a deterministic per-host-pair multiplier drawn from
	// [1-PairSpread, 1+PairSpread] applied to the base OWD, modeling
	// geographic distance within a regime.
	PairSpread float64
	// JitterFrac is the mean of an exponential per-packet jitter expressed
	// as a fraction of the base OWD.
	JitterFrac float64

	// Loss probabilities per datagram.
	LossIntra         float64
	LossInterDomestic float64
	LossTransoceanic  float64

	// MaxQueueDelay bounds a host's uplink backlog; datagrams that would
	// push the backlog past the bound are dropped at the sender (tail drop),
	// as a saturated residential uplink would.
	MaxQueueDelay time.Duration

	// TransoceanicBps models 2008-era international links: per-flow
	// throughput across the China↔abroad boundary was severely limited
	// (long RTTs, loss, congested trunks), so cross-border datagrams incur
	// an extra serialization delay of size/TransoceanicBps on top of
	// propagation. Zero disables the penalty.
	TransoceanicBps float64
}

// DefaultConfig returns the model parameters used by all paper experiments.
// The absolute values are calibrated so that same-ISP RTTs sit well below
// cross-ISP RTTs and China↔US paths land in the hundreds of milliseconds,
// matching the regimes the paper's response-time analysis depends on.
func DefaultConfig() Config {
	return Config{
		IntraOWD: map[isp.ISP]time.Duration{
			isp.TELE:    12 * time.Millisecond,
			isp.CNC:     12 * time.Millisecond,
			isp.CER:     8 * time.Millisecond,
			isp.OtherCN: 15 * time.Millisecond,
			isp.Foreign: 35 * time.Millisecond,
		},
		InterDomesticOWD:  28 * time.Millisecond,
		TransoceanicOWD:   110 * time.Millisecond,
		TeleCncPenalty:    18 * time.Millisecond,
		PairSpread:        0.45,
		JitterFrac:        0.15,
		LossIntra:         0.004,
		LossInterDomestic: 0.01,
		LossTransoceanic:  0.03,
		MaxQueueDelay:     8 * time.Second,
		TransoceanicBps:   40 << 10,
	}
}

// baseOWD returns the regime base one-way delay for an ISP pair.
func (c *Config) baseOWD(a, b isp.ISP) time.Duration {
	if a == b {
		if d, ok := c.IntraOWD[a]; ok {
			return d
		}
		return 20 * time.Millisecond
	}
	if a.Domestic() && b.Domestic() {
		d := c.InterDomesticOWD
		if (a == isp.TELE && b == isp.CNC) || (a == isp.CNC && b == isp.TELE) {
			d += c.TeleCncPenalty
		}
		return d
	}
	return c.TransoceanicOWD
}

// lossProb returns the per-datagram loss probability for an ISP pair.
func (c *Config) lossProb(a, b isp.ISP) float64 {
	if a == b {
		return c.LossIntra
	}
	if a.Domestic() && b.Domestic() {
		return c.LossInterDomestic
	}
	return c.LossTransoceanic
}

// MinPairOWD returns the smallest one-way delay any host pair across the two
// ISP categories can see: the regime base scaled by the bottom of the
// per-pair spread. It uses the identical float expression as the per-pair
// multiplier (mult = 1 + spread·(2u−1) at u = 0), so it is an exact lower
// bound on PairOWD, never off by a rounding ulp. Sharded worlds derive their
// conservative lookahead from the minimum of this over cross-shard pairs.
func (c *Config) MinPairOWD(a, b isp.ISP) time.Duration {
	base := c.baseOWD(a, b)
	mult := 1 + c.PairSpread*(2*0-1)
	return time.Duration(float64(base) * mult)
}

// Remote describes where a non-local address lives: which shard (domain) of
// a partitioned world, and its ISP category for latency/loss classification.
type Remote struct {
	Domain int
	ISP    isp.ISP
}

// Router gives a Network a view of the other shards of a partitioned world.
// Resolve must be a pure function of the address (it is consulted from send
// events running concurrently on different shards), and Forward is called
// from the sending shard's event loop with a fully computed arrival time;
// the implementation buffers the datagram until the next synchronization
// barrier and injects it into the destination shard there.
type Router interface {
	Resolve(to netip.Addr) (Remote, bool)
	Forward(srcDomain, dstDomain int, arrival time.Duration, from, to netip.Addr, size int, payload any)
}

// Network delivers datagrams between attached hosts.
type Network struct {
	eng *eventsim.Engine
	cfg Config

	// router resolves and forwards traffic to hosts on other shards of a
	// domain-partitioned world; nil for a single-shard world.
	router   Router
	domainID int
	// remoteFloor, when non-nil, returns the minimum wire latency (arrival
	// minus departure) for datagrams forwarded to the given destination
	// domain. Scaled partitions use it to widen the synthetic delay between
	// sub-shards of the same ISP and to/from infrastructure-only domains, so
	// the conservative PDES lookahead — which must lower-bound every
	// cross-domain latency — can rise above the natural pair-OWD minimum.
	// nil (the default) leaves arrivals untouched.
	remoteFloor func(dstDomain int) time.Duration
	hosts       hostTable
	rng         *rand.Rand

	// freeDeliveries recycles in-flight datagram records; with a
	// single-threaded engine a plain slice beats sync.Pool.
	freeDeliveries []*delivery

	// discard, when set, is handed the payload of every datagram the network
	// drops (see SetDiscard).
	discard func(payload any)

	// flt holds active fault-injection perturbations; nil whenever no fault
	// is in force, so the fault-free send path pays one pointer test and
	// nothing else (BenchmarkFaultIdleSend pins this).
	flt *linkFaults

	// Stats.
	delivered, droppedLoss, droppedQueue, droppedNoHost uint64
	droppedFault                                        uint64
	lateInjects                                         uint64
}

// linkFaults is the active perturbation table. Entries accumulate, so
// overlapping fault windows compose: Apply adds, Clear subtracts, and the
// table frees itself when the last fault clears.
type linkFaults struct {
	addLoss   [(isp.Count + 1) * (isp.Count + 1)]float64
	addDelay  [(isp.Count + 1) * (isp.Count + 1)]time.Duration
	partition [(isp.Count + 1) * (isp.Count + 1)]int16
	burstLoss float64
	active    int
}

// fkey indexes the perturbation tables by directed ISP pair.
func fkey(a, b isp.ISP) int { return int(a)*(isp.Count+1) + int(b) }

func (n *Network) ensureFaults() *linkFaults {
	if n.flt == nil {
		n.flt = &linkFaults{}
	}
	return n.flt
}

func (n *Network) releaseFault() {
	n.flt.active--
	if n.flt.active == 0 {
		n.flt = nil // restore the zero-cost idle path after the last recovery
	}
}

// ApplyLinkFault perturbs the path between two ISP categories, symmetrically:
// addLoss is added to the base loss probability, addDelay to every surviving
// datagram's one-way delay, and partition drops everything on the pair. Call
// ClearLinkFault with the identical arguments at recovery time.
func (n *Network) ApplyLinkFault(a, b isp.ISP, addLoss float64, addDelay time.Duration, partition bool) {
	f := n.ensureFaults()
	f.active++
	keys := [2]int{fkey(a, b), fkey(b, a)}
	for i, k := range keys {
		if i == 1 && keys[0] == keys[1] {
			break // a == b: perturb the intra-ISP path once, not twice
		}
		f.addLoss[k] += addLoss
		f.addDelay[k] += addDelay
		if partition {
			f.partition[k]++
		}
	}
}

// ClearLinkFault removes a perturbation previously installed with the same
// arguments.
func (n *Network) ClearLinkFault(a, b isp.ISP, addLoss float64, addDelay time.Duration, partition bool) {
	f := n.flt
	if f == nil {
		return
	}
	keys := [2]int{fkey(a, b), fkey(b, a)}
	for i, k := range keys {
		if i == 1 && keys[0] == keys[1] {
			break
		}
		f.addLoss[k] -= addLoss
		f.addDelay[k] -= addDelay
		if partition {
			f.partition[k]--
		}
	}
	n.releaseFault()
}

// AddBurstLoss adds correlated loss to every path through this network;
// RemoveBurstLoss undoes it at recovery time.
func (n *Network) AddBurstLoss(loss float64) {
	f := n.ensureFaults()
	f.active++
	f.burstLoss += loss
}

// RemoveBurstLoss removes a burst-loss perturbation of the given magnitude.
func (n *Network) RemoveBurstLoss(loss float64) {
	if n.flt == nil {
		return
	}
	n.flt.burstLoss -= loss
	n.releaseFault()
}

// FaultDrops reports datagrams dropped by an active partition fault.
func (n *Network) FaultDrops() uint64 { return n.droppedFault }

// LateInjects reports cross-shard datagrams whose delivery time had already
// passed on this shard when the barrier injected them — a violated
// lookahead. The engine clamps such a delivery to its current instant, so
// without this count the run would go on, quietly wrong. Always 0 in a
// correct partition.
func (n *Network) LateInjects() uint64 { return n.lateInjects }

// delivery is one in-flight datagram, scheduled via Engine.AtArg so sending
// allocates nothing once the free list warms up.
type delivery struct {
	n       *Network
	dst     *Host
	to      uint32 // hostKey the datagram was addressed to
	from    netip.Addr
	size    int
	payload any
}

// deliverDatagram is the arrival event for every datagram (non-capturing:
// one shared func value, state rides in the pooled delivery).
var deliverDatagram = func(a any) {
	d := a.(*delivery)
	n := d.n
	if dst := d.dst; dst.key != d.to {
		n.droppedNoHost++
		n.drop(d.payload)
	} else {
		n.delivered++
		dst.recv.Deliver(dst, d.from, d.size, d.payload)
	}
	d.dst = nil
	d.payload = nil
	n.freeDeliveries = append(n.freeDeliveries, d)
}

// New creates a network on the given engine.
func New(eng *eventsim.Engine, cfg Config) *Network {
	return &Network{
		eng: eng,
		cfg: cfg,
		rng: eng.NewRand(),
	}
}

// SetRouter attaches this network to a partitioned world as shard domainID.
// Sends to addresses that resolve to another domain are forwarded through
// the router instead of being dropped as unknown hosts.
func (n *Network) SetRouter(r Router, domainID int) {
	n.router = r
	n.domainID = domainID
}

// SetDiscard installs fn as the end of every datagram the network drops —
// lost, partitioned, queue-dropped, or addressed to no host, whether at the
// send, at a cross-shard injection or on arrival — so a transport can take
// back a payload it recycles. fn runs where the drop happens, consumes no
// randomness, and must not send. A delivered payload is the receiver's.
func (n *Network) SetDiscard(fn func(payload any)) { n.discard = fn }

// drop ends a dropped datagram's payload.
func (n *Network) drop(payload any) {
	if n.discard != nil {
		n.discard(payload)
	}
}

// SetRemoteFloor installs a per-destination-domain minimum wire latency for
// cross-shard sends (see the remoteFloor field). The floor must match the
// lookahead the world derives from it: every forwarded datagram's arrival is
// raised to at least departure+floor, never lowered.
func (n *Network) SetRemoteFloor(fn func(dstDomain int) time.Duration) {
	n.remoteFloor = fn
}

// hostKey packs an IPv4 address into the host table key. The simulation's
// address plan is IPv4-only; non-IPv4 folds to 0, the key of a detached host,
// which AttachReceiver refuses.
func hostKey(a netip.Addr) uint32 {
	if !a.Is4() {
		return 0
	}
	b := a.As4()
	return binary.BigEndian.Uint32(b[:])
}

// Attach registers a host and the function its datagrams are handed to (see
// AttachReceiver).
func (n *Network) Attach(h *Host, handler Handler) error { return n.AttachReceiver(h, handler) }

// AttachReceiver registers a host and the receiver of its datagrams.
// Attaching an address that is already attached, or one that is not a
// non-zero IPv4 address, returns an error.
func (n *Network) AttachReceiver(h *Host, recv Receiver) error {
	key := hostKey(h.Addr)
	if key == 0 {
		return fmt.Errorf("underlay: cannot attach %s: not a non-zero IPv4 address", h.Addr)
	}
	if n.hosts.get(key) != nil {
		return fmt.Errorf("underlay: address %s already attached", h.Addr)
	}
	if h.UploadBps <= 0 {
		return fmt.Errorf("underlay: host %s has non-positive upload capacity", h.Addr)
	}
	h.recv = recv
	h.key = key
	n.hosts.put(key, h)
	return nil
}

// Detach removes the host attached at addr and returns it, nil if there is
// none; datagrams to it, in flight or sent later, are silently dropped, like
// UDP to a departed peer.
func (n *Network) Detach(addr netip.Addr) *Host {
	h := n.hosts.remove(hostKey(addr))
	if h != nil {
		h.key = 0
	}
	return h
}

// Lookup returns the attached host for addr, if any.
func (n *Network) Lookup(addr netip.Addr) (*Host, bool) {
	h := n.hosts.get(hostKey(addr))
	return h, h != nil
}

// NumHosts returns the number of currently attached hosts.
func (n *Network) NumHosts() int { return n.hosts.n }

// Stats reports delivery counters: delivered datagrams and the three drop
// classes (random loss, sender queue overflow, destination not attached).
func (n *Network) Stats() (delivered, droppedLoss, droppedQueue, droppedNoHost uint64) {
	return n.delivered, n.droppedLoss, n.droppedQueue, n.droppedNoHost
}

// pairKey produces a symmetric deterministic hash for a host pair: 64-bit
// FNV-1a over the two IPv4 addresses' bytes in network order, numerically
// smaller address first. It sits on every datagram, so the hash is inlined;
// TestPairKeyMatchesFNV pins it to hash/fnv, which every golden depends on.
func pairKey(a, b netip.Addr) uint64 {
	lo, hi := a.As4(), b.As4()
	if binary.BigEndian.Uint32(hi[:]) < binary.BigEndian.Uint32(lo[:]) {
		lo, hi = hi, lo
	}
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, c := range lo {
		h = (h ^ uint64(c)) * prime
	}
	for _, c := range hi {
		h = (h ^ uint64(c)) * prime
	}
	return h
}

// PairOWD returns the stable (jitter-free) one-way delay between two hosts:
// the regime base scaled by the deterministic per-pair distance multiplier.
// This is the ground-truth proximity that trace-based RTT estimation should
// approximate.
func (n *Network) PairOWD(a, b *Host) time.Duration {
	return n.pairOWDAddr(a.Addr, a.ISP, b.Addr, b.ISP)
}

// pairOWDAddr is PairOWD keyed by address and ISP category, usable for
// destinations whose *Host lives on another shard.
func (n *Network) pairOWDAddr(aAddr netip.Addr, aISP isp.ISP, bAddr netip.Addr, bISP isp.ISP) time.Duration {
	base := n.cfg.baseOWD(aISP, bISP)
	key := pairKey(aAddr, bAddr)
	// Map the hash to [1-spread, 1+spread].
	u := float64(key%1_000_003) / 1_000_003.0
	mult := 1 + n.cfg.PairSpread*(2*u-1)
	return time.Duration(float64(base) * mult)
}

// Send transmits a datagram from an attached host to a destination address.
// Delivery (if the datagram survives loss, queue bounds, and the destination
// still being attached) invokes the destination's handler at the computed
// arrival instant. Send never blocks; it returns false if the datagram was
// dropped at the sender's uplink queue bound.
func (n *Network) Send(from *Host, to netip.Addr, size int, payload any) bool {
	if size < 0 {
		size = 0
	}
	now := n.eng.Now()

	// Sender uplink serialization with bounded backlog.
	txTime := time.Duration(float64(size) / from.UploadBps * float64(time.Second))
	start := now
	if from.upBusyUntil > start {
		start = from.upBusyUntil
	}
	if start-now > n.cfg.MaxQueueDelay {
		n.droppedQueue++
		n.drop(payload)
		return false
	}
	departure := start + txTime
	from.upBusyUntil = departure

	// Random loss along the path. The destination's ISP must be resolvable
	// even if it detaches before arrival; use the current view, falling back
	// to dropping on unknown destinations at send time.
	toKey := hostKey(to)
	dst := n.hosts.get(toKey)
	if dst == nil {
		if n.router != nil {
			if rem, rok := n.router.Resolve(to); rok && rem.Domain != n.domainID {
				return n.sendRemote(from, to, rem, departure, size, payload)
			}
		}
		n.droppedNoHost++
		n.drop(payload)
		return true // accepted by the uplink; lost in the network
	}
	// Fault perturbations fold in before the loss draw; a partition drops the
	// datagram without consuming randomness, so the RNG stream stays aligned
	// for the surviving traffic (deterministic per engine at any worker
	// count). Added delay only ever increases the arrival, so the PDES
	// lookahead bound still holds.
	p := n.cfg.lossProb(from.ISP, dst.ISP)
	var faultDelay time.Duration
	if f := n.flt; f != nil {
		k := fkey(from.ISP, dst.ISP)
		if f.partition[k] > 0 {
			n.droppedFault++
			n.drop(payload)
			return true
		}
		p += f.addLoss[k] + f.burstLoss
		faultDelay = f.addDelay[k]
	}
	if n.rng.Float64() < p {
		n.droppedLoss++
		n.drop(payload)
		return true
	}

	owd := n.PairOWD(from, dst)
	jitter := time.Duration(n.rng.ExpFloat64() * n.cfg.JitterFrac * float64(owd))
	arrival := departure + owd + jitter + faultDelay + dst.ProcDelay
	if n.cfg.TransoceanicBps > 0 && from.ISP.Domestic() != dst.ISP.Domestic() {
		arrival += time.Duration(float64(size) / n.cfg.TransoceanicBps * float64(time.Second))
	}

	n.scheduleDelivery(dst, toKey, from.Addr, size, payload, arrival)
	return true
}

// sendRemote is the cross-shard tail of Send. Loss, distance, and jitter are
// all decided sender-side — loss class and pair distance are pure functions
// of the two addresses' ISP categories, so the destination's *Host is not
// needed — and the datagram is handed to the router with its wire-arrival
// time. The destination shard adds its receiver ProcDelay (and existence
// check) when the barrier injects it; those per-host properties are only
// readable over there.
func (n *Network) sendRemote(from *Host, to netip.Addr, rem Remote, departure time.Duration, size int, payload any) bool {
	p := n.cfg.lossProb(from.ISP, rem.ISP)
	var faultDelay time.Duration
	if f := n.flt; f != nil {
		k := fkey(from.ISP, rem.ISP)
		if f.partition[k] > 0 {
			n.droppedFault++
			n.drop(payload)
			return true
		}
		p += f.addLoss[k] + f.burstLoss
		faultDelay = f.addDelay[k]
	}
	if n.rng.Float64() < p {
		n.droppedLoss++
		n.drop(payload)
		return true
	}
	owd := n.pairOWDAddr(from.Addr, from.ISP, to, rem.ISP)
	jitter := time.Duration(n.rng.ExpFloat64() * n.cfg.JitterFrac * float64(owd))
	arrival := departure + owd + jitter + faultDelay
	if n.cfg.TransoceanicBps > 0 && from.ISP.Domestic() != rem.ISP.Domestic() {
		arrival += time.Duration(float64(size) / n.cfg.TransoceanicBps * float64(time.Second))
	}
	if n.remoteFloor != nil {
		if fl := n.remoteFloor(rem.Domain); arrival-departure < fl {
			arrival = departure + fl
		}
	}
	n.router.Forward(n.domainID, rem.Domain, arrival, from.Addr, to, size, payload)
	return true
}

// Inject delivers a datagram forwarded from another shard. The arrival time
// is the wire arrival computed by the sender; the receiver-side processing
// delay is added here, where the destination host's properties live. A
// missing destination counts as droppedNoHost on this (the destination)
// shard.
func (n *Network) Inject(arrival time.Duration, from, to netip.Addr, size int, payload any) {
	toKey := hostKey(to)
	dst := n.hosts.get(toKey)
	if dst == nil {
		n.droppedNoHost++
		n.drop(payload)
		return
	}
	arrival += dst.ProcDelay
	if arrival < n.eng.Now() {
		n.lateInjects++
	}
	n.scheduleDelivery(dst, toKey, from, size, payload, arrival)
}

// scheduleDelivery books the arrival event for a surviving datagram.
func (n *Network) scheduleDelivery(dst *Host, toKey uint32, from netip.Addr, size int, payload any, arrival time.Duration) {
	var d *delivery
	if k := len(n.freeDeliveries); k > 0 {
		d = n.freeDeliveries[k-1]
		n.freeDeliveries = n.freeDeliveries[:k-1]
	} else {
		d = &delivery{}
	}
	d.n, d.dst, d.to, d.from, d.size, d.payload = n, dst, toKey, from, size, payload
	n.eng.AtArg(arrival, deliverDatagram, d)
}
