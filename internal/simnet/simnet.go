// Package simnet binds protocol nodes (internal/node) to the discrete-event
// engine (internal/eventsim) and the simulated underlay (internal/underlay).
//
// A World owns one or more shard domains. Each Domain has its own engine,
// underlay network, address pool, and RNG streams; nodes spawned in a domain
// live entirely on that domain's event loop. A single-domain world (NewWorld)
// behaves exactly like the classic one-engine simulator and exposes the
// engine and network directly. A sharded world (NewShardedWorldN) partitions
// the synthetic internet by ISP — the paper's locality structure becomes the
// unit of parallelism — and runs the domains in conservative lockstep
// windows whose lookahead is the minimum cross-domain underlay latency:
// intra-ISP traffic (the vast majority, which is the paper's whole point)
// never crosses a shard, and cross-domain datagrams are exchanged at window
// barriers, always arriving at least one lookahead after they were sent.
//
// With CodecCheck enabled, every datagram is round-tripped through the wire
// codec before delivery, proving the simulation exchanges exactly what the
// real protocol would put on the wire (integration tests enable this; large
// experiments skip it for speed — sizes are always computed from the codec
// either way).
package simnet

import (
	"fmt"
	"math/rand"
	"net/netip"
	"time"
	"unsafe"

	"pplivesim/internal/asnmap"
	"pplivesim/internal/eventsim"
	"pplivesim/internal/ipam"
	"pplivesim/internal/isp"
	"pplivesim/internal/node"
	"pplivesim/internal/underlay"
	"pplivesim/internal/wire"
)

// World wires together engines, underlays, and the address plan.
type World struct {
	// Engine and Network are the single-domain fast path: for worlds built
	// with NewWorld they alias domain 0's engine and network, preserving the
	// classic one-engine API. They are nil for sharded worlds, whose callers
	// go through Domains.
	Engine   *eventsim.Engine
	Network  *underlay.Network
	Registry *asnmap.Registry

	// CodecCheck round-trips every datagram through the wire codec before
	// delivery, failing loudly on any encode/decode mismatch.
	CodecCheck bool

	domains   []*Domain
	router    *router
	lookahead time.Duration

	// infra is the dedicated infrastructure domain of a scaled partition
	// (Shards > DefaultShards); nil otherwise.
	infra *Domain
	// floors holds the per-(src,dst)-domain synthetic minimum wire latency of
	// a scaled partition, indexed src*len(domains)+dst; nil for legacy and
	// single-domain worlds (whose trajectories must stay bit-identical).
	floors []time.Duration
	// barrierHooks run single-threaded at every window barrier, after the
	// mailboxes have been drained.
	barrierHooks []func()

	// buildRand drives single-threaded build-time draws (arrival schedules);
	// it belongs to no domain so build plans don't perturb domain streams.
	buildRand *rand.Rand
}

// Domain is one shard: an engine, an underlay network, and an address range.
type Domain struct {
	id    int
	name  string
	cat   isp.ISP // zero for the single-domain world and the infra domain
	world *World
	eng   *eventsim.Engine
	net   *underlay.Network
	// pools allocates the domain's addresses per host category: one entry
	// for a viewer domain, every category for the single-domain world, and
	// the carved tail blocks (trackers and bootstrap per category) for the
	// infrastructure domain.
	pools map[isp.ISP]*ipam.Pool

	// Lite members live in storage the domain owns: liteChunk is the unused
	// tail of the newest slab chunk and liteFree stacks the cells of retired
	// members, so a churning swarm respawns into the cells it retired and
	// the collector sees a chunk, not a million hosts. Chunks are never
	// released.
	liteChunk []underlay.Host
	liteFree  []*underlay.Host
}

// liteChunkCells is the number of lite members per slab chunk.
const liteChunkCells = 1024

// mixSeed derives a decorrelated per-domain seed from the world seed
// (splitmix64 finalizer).
func mixSeed(seed int64, salt int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(salt+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// part is one row of a partition table: a domain and the address ranges it
// owns, listed per host category in allocation order. cat is the one category
// a viewer domain holds; it is zero for a row that hosts several — the
// single-domain world's only row and a scaled partition's INFRA row.
type part struct {
	name  string
	cat   isp.ISP
	pools map[isp.ISP][]ipam.Prefix
}

// NewWorld builds a single-domain world: a one-row partition table holding
// every category of the synthetic internet address plan.
func NewWorld(seed int64) *World {
	reg := asnmap.SyntheticInternet()
	all := part{name: "all", pools: make(map[isp.ISP][]ipam.Prefix)}
	for _, cat := range isp.All() {
		all.pools[cat] = reg.PrefixesFor(cat)
	}
	return build(seed, reg, []part{all})
}

// buildSalt decorrelates the build-time RNG from per-domain engine seeds.
const buildSalt = 0x6275696c64 // "build"

// NewShardedWorldN builds a sharded world with shards domains. Any value up
// to DefaultShards produces the legacy six-domain ISP partition (TELE — over
// half the paper's population — halved along its prefix list so no single
// shard dominates the run); the pinned golden digests depend on it. Values
// above DefaultShards engage the scaled partition: TELE is split into
// shards-5 sub-shards by address range (ipam.SplitEvenly over its prefix
// list), the remaining four categories keep one domain each, and a dedicated
// infrastructure domain hosts bootstrap/tracker/source addresses carved as
// small tail blocks out of the TELE/CNC/CER ranges. Scaled partitions install
// synthetic per-pair latency floors (see underlay.SetRemoteFloor):
// cross-sub-shard intra-ISP traffic is floored at the category's IntraOWD and
// infrastructure pairs at twice TELE's, so the conservative lookahead rises
// from the natural cross-pair minimum to the intra-ISP base OWD, roughly
// halving the number of barrier windows. shards must not exceed MaxShards.
func NewShardedWorldN(seed int64, shards int) *World {
	reg := asnmap.SyntheticInternet()
	return build(seed, reg, partition(reg, shards))
}

// partition returns the sharded world's table for the given degree.
func partition(reg *asnmap.Registry, shards int) []part {
	one := func(name string, cat isp.ISP, prefixes []ipam.Prefix) part {
		return part{name: name, cat: cat, pools: map[isp.ISP][]ipam.Prefix{cat: prefixes}}
	}
	var parts []part
	if shards <= DefaultShards {
		// Legacy partition: five ISP categories with TELE halved along its
		// prefix list. This table must stay byte-identical — every pinned
		// golden digest runs through it.
		for _, cat := range isp.All() {
			prefixes := reg.PrefixesFor(cat)
			if cat == isp.TELE && len(prefixes) >= 2 {
				half := (len(prefixes) + 1) / 2
				parts = append(parts, one("TELE-0", cat, prefixes[:half]), one("TELE-1", cat, prefixes[half:]))
				continue
			}
			parts = append(parts, one(cat.String(), cat, prefixes))
		}
		return parts
	}
	kTele := shards - 5 // four single-category domains + infra
	infra := part{name: "INFRA", pools: make(map[isp.ISP][]ipam.Prefix)}
	for _, cat := range isp.All() {
		prefixes := reg.PrefixesFor(cat)
		// Reserve a tail block for infrastructure services in the categories
		// that host them (bootstrap and the tracker groups: TELE, CNC, CER).
		// The carve partitions the space exactly, so viewer pools and the
		// infra pool can never collide.
		switch cat {
		case isp.TELE, isp.CNC, isp.CER:
			if main, tail, ok := ipam.CarveTail(prefixes, infraCarveBits); ok {
				prefixes = main
				infra.pools[cat] = []ipam.Prefix{tail}
			}
		}
		if cat == isp.TELE {
			for i, group := range ipam.SplitEvenly(prefixes, kTele) {
				parts = append(parts, one(fmt.Sprintf("TELE-%d", i), cat, group))
			}
			continue
		}
		parts = append(parts, one(cat.String(), cat, prefixes))
	}
	return append(parts, infra)
}

// build wires one domain per row of the table. A one-row table is the classic
// single-engine simulator: the engine runs on the world seed itself and there
// is no router, so nothing is ever forwarded.
func build(seed int64, reg *asnmap.Registry, parts []part) *World {
	cfg := underlay.DefaultConfig()
	w := &World{
		Registry:  reg,
		buildRand: rand.New(rand.NewSource(mixSeed(seed, buildSalt))),
	}
	n := len(parts)
	if n > 1 {
		w.router = &router{world: w, trie: ipam.NewTrie(), boxes: make([][]xmsg, n*n)}
	}
	for id, p := range parts {
		engSeed := seed
		if w.router != nil {
			engSeed = mixSeed(seed, id)
		}
		eng := eventsim.New(engSeed)
		d := &Domain{
			id:    id,
			name:  p.name,
			cat:   p.cat,
			world: w,
			eng:   eng,
			net:   underlay.New(eng, cfg),
			pools: make(map[isp.ISP]*ipam.Pool, len(p.pools)),
		}
		d.net.SetDiscard(discard)
		for _, cat := range isp.All() {
			prefixes, ok := p.pools[cat]
			if !ok {
				continue
			}
			d.pools[cat] = ipam.NewPool(prefixes...)
			if w.router != nil {
				for _, pfx := range prefixes {
					w.router.addRoute(pfx, id, cat)
				}
			}
		}
		if w.router == nil {
			w.Engine, w.Network = d.eng, d.net
		} else {
			d.net.SetRouter(w.router, id)
			if p.cat == 0 {
				w.infra = d
			}
		}
		w.domains = append(w.domains, d)
	}

	// A table with an infrastructure row is a scaled partition and gets the
	// synthetic latency floors: same-category sub-shard pairs at the
	// category's base IntraOWD (a cross-sub-shard peer can never look closer
	// than the intra-ISP base), and every pair touching the infrastructure
	// domain at twice TELE's IntraOWD (bootstrap/tracker RPCs are not
	// latency-critical, and the wide floor keeps infra traffic off the
	// lookahead-critical path). Every other pair's floor is 0.
	if w.infra != nil {
		w.floors = make([]time.Duration, n*n)
		for _, d := range w.domains {
			src := d.id
			d.net.SetRemoteFloor(func(dst int) time.Duration { return w.floors[src*n+dst] })
		}
	}
	// Conservative lookahead: the smallest one-way delay any cross-domain
	// host pair can see, max(natural pair minimum, floor). MinPairOWD uses the
	// identical float expression as the per-pair multiplier, so this is an
	// exact lower bound — a datagram sent at t to another shard can never
	// arrive before t+lookahead. Infra pairs rely on the floor alone because
	// the infra domain spans several host categories.
	for i, a := range w.domains {
		for j, b := range w.domains {
			if i == j {
				continue
			}
			var floor time.Duration
			switch {
			case a == w.infra || b == w.infra:
				floor = 2 * cfg.IntraOWD[isp.TELE]
			case w.infra != nil && a.cat == b.cat:
				floor = cfg.IntraOWD[a.cat]
			}
			if w.floors != nil {
				w.floors[i*n+j] = floor
			}
			bound := floor
			if a != w.infra && b != w.infra {
				if m := cfg.MinPairOWD(a.cat, b.cat); m > bound {
					bound = m
				}
			}
			if w.lookahead == 0 || bound < w.lookahead {
				w.lookahead = bound
			}
		}
	}
	return w
}

// DefaultShards is the number of domains a sharded world partitions into
// (the five ISP categories with TELE split in two).
const DefaultShards = 6

// MaxShards is the largest partition degree a sharded world accepts. The
// router keeps one mailbox per (source, destination) domain pair and every
// window barrier scans all of them, so cost grows with the square of the
// degree whatever the population: a 13-viewer one-minute run takes 0.1 s at
// 12 shards, 1 s at 256 and 17 s at 1024 (and far enough up,
// ipam.SplitEvenly panics on a /32 it cannot halve). 256 is already more
// domains than any machine has cores for.
const MaxShards = 256

// infraCarveBits is the prefix length of the tail block reserved per category
// for the scaled partition's infrastructure domain (/20 ≈ 4k addresses —
// bootstrap, tracker groups, and sources need a few dozen).
const infraCarveBits = 20

// Domains returns every shard domain in id order.
func (w *World) Domains() []*Domain { return w.domains }

// DomainsOf returns the domains holding the given ISP category, in id order.
// Single-domain worlds return the sole domain for every category.
func (w *World) DomainsOf(category isp.ISP) []*Domain {
	if w.router == nil {
		return w.domains
	}
	var out []*Domain
	for _, d := range w.domains {
		if d.cat == category {
			out = append(out, d)
		}
	}
	return out
}

// Lookahead returns the conservative synchronization window of a sharded
// world (zero for single-domain worlds).
func (w *World) Lookahead() time.Duration { return w.lookahead }

// InfraDomain returns the domain that should host infrastructure services
// (bootstrap, trackers, sources) whose addresses belong to the given
// category: the dedicated infrastructure domain of a scaled partition when
// one exists, otherwise the first domain of the category.
func (w *World) InfraDomain(category isp.ISP) *Domain {
	if w.infra != nil {
		return w.infra
	}
	return w.DomainsOf(category)[0]
}

// OnBarrier registers fn to run single-threaded at every window barrier of a
// sharded run, after the cross-domain mailboxes have been drained. Scenario
// code uses this to fold per-domain telemetry aggregates without locking.
// Single-domain worlds never invoke the hooks (they have no barriers).
func (w *World) OnBarrier(fn func()) { w.barrierHooks = append(w.barrierHooks, fn) }

// BuildRand returns the world's build-time RNG for single-threaded scenario
// assembly (arrival schedules and the like). It is decorrelated from every
// domain's event-time streams.
func (w *World) BuildRand() *rand.Rand { return w.buildRand }

// Run executes the world to the horizon. For sharded worlds, workers is the
// number of goroutines executing synchronization windows (eventsim.Group caps
// it at GOMAXPROCS and the domain count); values below 2 run everything on
// the calling goroutine. Every window runs the domains, then drains each
// domain's inbound mailboxes (flushDst, one call per destination, in
// parallel across destinations), then runs the OnBarrier hooks
// single-threaded. The trajectory — every event, draw, and delivery — is
// identical for any worker count, because the window schedule and each
// destination's drain order are pure functions of barrier state.
func (w *World) Run(horizon time.Duration, workers int) error {
	if w.router == nil {
		return w.Engine.Run(horizon)
	}
	g := &eventsim.Group{
		Engines:   make([]*eventsim.Engine, len(w.domains)),
		Lookahead: w.lookahead,
		Workers:   workers,
		Deliver:   w.router.flushDst,
	}
	for i, d := range w.domains {
		g.Engines[i] = d.eng
	}
	if hooks := w.barrierHooks; len(hooks) > 0 {
		g.Flush = func() {
			for _, fn := range hooks {
				fn()
			}
		}
	}
	return g.Run(horizon)
}

// Now returns the current virtual time (domains agree between windows and
// after Run).
func (w *World) Now() time.Duration { return w.domains[0].eng.Now() }

// EventsProcessed sums executed events across domains.
func (w *World) EventsProcessed() uint64 {
	var total uint64
	for _, d := range w.domains {
		total += d.eng.Processed()
	}
	return total
}

// NetStats sums the underlay delivery counters across domains.
func (w *World) NetStats() (delivered, droppedLoss, droppedQueue, droppedNoHost uint64) {
	for _, d := range w.domains {
		de, lo, qu, no := d.net.Stats()
		delivered += de
		droppedLoss += lo
		droppedQueue += qu
		droppedNoHost += no
	}
	return
}

// LateInjects sums, across domains, the cross-domain datagrams that reached
// their destination engine after their delivery time (see
// underlay.Network.LateInjects). Anything but 0 means the lookahead was
// violated and the trajectory is not to be trusted.
func (w *World) LateInjects() uint64 {
	var total uint64
	for _, d := range w.domains {
		total += d.net.LateInjects()
	}
	return total
}

// ID returns the domain's shard index.
func (d *Domain) ID() int { return d.id }

// Name returns the domain's display name (ISP category, with TELE-0/TELE-1
// for the split).
func (d *Domain) Name() string { return d.name }

// Category returns the domain's ISP category (zero for the single-domain
// world).
func (d *Domain) Category() isp.ISP { return d.cat }

// Engine returns the domain's event engine.
func (d *Domain) Engine() *eventsim.Engine { return d.eng }

// Network returns the domain's underlay network.
func (d *Domain) Network() *underlay.Network { return d.net }

// At schedules fn on this domain's engine at the absolute virtual time at.
func (d *Domain) At(at time.Duration, fn func()) { d.eng.At(at, fn) }

// After schedules fn on this domain's engine after delay dl.
func (d *Domain) After(dl time.Duration, fn func()) { d.eng.After(dl, fn) }

func (d *Domain) allocAddr(category isp.ISP) (netip.Addr, error) {
	pool, ok := d.pools[category]
	if !ok {
		return netip.Addr{}, fmt.Errorf("simnet: domain %s holds no %s addresses", d.name, category)
	}
	addr, err := pool.Alloc()
	if err != nil {
		return netip.Addr{}, fmt.Errorf("alloc %s address in domain %s: %w", category, d.name, err)
	}
	return addr, nil
}

// HostSpec configures a spawned node's host.
type HostSpec struct {
	ISP       isp.ISP
	UploadBps float64       // access uplink capacity, bytes/sec
	ProcDelay time.Duration // per-datagram application processing delay
}

// Spawn allocates an address, attaches a host, and returns the node's
// environment. On a single-domain world any category spawns in the sole
// domain; sharded callers use Domain.Spawn. The handler may be installed
// later via SetHandler (services typically construct themselves around the
// env).
func (w *World) Spawn(spec HostSpec) (*Env, error) {
	return w.domains[0].Spawn(spec)
}

// SpawnAt attaches a host at a specific address (which must belong to the
// registry so analysis can resolve it).
func (w *World) SpawnAt(addr netip.Addr, spec HostSpec) (*Env, error) {
	return w.domains[0].SpawnAt(addr, spec)
}

// Spawn allocates an address in this domain and attaches a host.
func (d *Domain) Spawn(spec HostSpec) (*Env, error) {
	addr, err := d.allocAddr(spec.ISP)
	if err != nil {
		return nil, err
	}
	return d.SpawnAt(addr, spec)
}

// fullHost rounds a full node's host record up to the allocator's 128-byte
// class, whose objects start on a cache-line boundary. Build allocates the
// hosts of different domains side by side and different workers write them;
// at the record's own 80 bytes (an 80-byte class exists) neighbours would
// share a line. The pad is computed, so a resized Host keeps the class and
// one larger than 128 bytes does not compile.
type fullHost struct {
	underlay.Host
	_ [128 - unsafe.Sizeof(underlay.Host{})]byte
}

// SpawnAt attaches a host at a specific address in this domain.
func (d *Domain) SpawnAt(addr netip.Addr, spec HostSpec) (*Env, error) {
	host := &(&fullHost{Host: underlay.Host{
		Addr:      addr,
		ISP:       spec.ISP,
		UploadBps: spec.UploadBps,
		ProcDelay: spec.ProcDelay,
	}}).Host
	env := &Env{domain: d, host: host, rng: d.eng.NewRand()}
	if err := d.net.AttachReceiver(host, env); err != nil {
		return nil, err
	}
	return env, nil
}

// xmsg is one cross-domain datagram parked between synchronization windows.
type xmsg struct {
	arrival time.Duration
	from    netip.Addr
	to      netip.Addr
	size    int
	payload any
}

// router implements underlay.Router over the world's domain partition.
// Destination domains are a pure function of the address prefix (the trie is
// read-only after construction), so concurrent Resolve calls from different
// shard workers are safe and worker-count invariant. Each (src,dst) mailbox
// has exactly one writer — src's worker — during a window, and exactly one
// reader — whichever worker calls flushDst(dst) — at the barrier.
type router struct {
	world *World
	trie  *ipam.Trie
	// entries maps trie labels to (domain, host ISP category). The
	// indirection exists for the infrastructure domain, which hosts several
	// categories — a destination's ISP can no longer be read off its owning
	// domain.
	entries []routeEntry
	boxes   [][]xmsg // indexed src*len(domains)+dst
}

type routeEntry struct {
	dom int
	cat isp.ISP
}

// addRoute registers a prefix as belonging to domain dom with hosts of the
// given ISP category.
func (r *router) addRoute(pfx ipam.Prefix, dom int, cat isp.ISP) {
	r.trie.Insert(pfx, len(r.entries))
	r.entries = append(r.entries, routeEntry{dom: dom, cat: cat})
}

// Resolve implements underlay.Router.
func (r *router) Resolve(to netip.Addr) (underlay.Remote, bool) {
	label, ok := r.trie.Lookup(to)
	if !ok {
		return underlay.Remote{}, false
	}
	e := r.entries[label]
	return underlay.Remote{Domain: e.dom, ISP: e.cat}, true
}

// Forward implements underlay.Router.
func (r *router) Forward(srcDomain, dstDomain int, arrival time.Duration, from, to netip.Addr, size int, payload any) {
	box := &r.boxes[srcDomain*len(r.world.domains)+dstDomain]
	*box = append(*box, xmsg{arrival: arrival, from: from, to: to, size: size, payload: payload})
}

// flushDst drains the mailboxes addressed to domain dst into it. Calls for
// different destinations touch disjoint mailboxes, networks and engines, so
// the barrier runs them in parallel; the fixed (src ascending, FIFO) drain
// order makes dst's injection sequence — and therefore its event seq
// tie-breaks — a pure function of window state, independent of the worker
// count and of which worker makes the call.
func (r *router) flushDst(dst int) {
	n := len(r.world.domains)
	net := r.world.domains[dst].net
	for src := 0; src < n; src++ {
		box := &r.boxes[src*n+dst]
		if len(*box) == 0 {
			continue // no write: the header shares a cache line with other destinations'
		}
		for i := range *box {
			m := &(*box)[i]
			net.Inject(m.arrival, m.from, m.to, m.size, m.payload)
			m.payload = nil
		}
		*box = (*box)[:0]
	}
}

// Env implements node.Env over the simulated world.
type Env struct {
	domain  *Domain
	host    *underlay.Host
	rng     *rand.Rand
	handler node.Handler

	// Taps observe every datagram into/out of this node (the capture
	// package uses them as its Wireshark equivalent).
	recvTaps []Tap
	sendTaps []Tap

	closed bool
}

var (
	_ node.Env          = (*Env)(nil)
	_ underlay.Receiver = (*Env)(nil)
)

// Tap observes a datagram at a node boundary. Like a node.Handler, a tap
// must not keep msg, or anything it points to, after it returns: a delivered
// message is recycled as soon as the taps and the handler are done, and a
// recycled peer list or buffer map keeps its storage for its next sender.
// A send tap may see the same message several times, once per destination
// of a counted Have (wire.Have.SetDeliveries); it must not mutate it.
type Tap func(peer netip.Addr, msg wire.Message, size int)

// Addr implements node.Env.
func (e *Env) Addr() netip.Addr { return e.host.Addr }

// ISP returns the host's ISP category.
func (e *Env) ISP() isp.ISP { return e.host.ISP }

// Domain returns the shard domain the node lives in.
func (e *Env) Domain() *Domain { return e.domain }

// Now implements node.Env.
func (e *Env) Now() time.Duration { return e.domain.eng.Now() }

// Rand implements node.Env.
func (e *Env) Rand() *rand.Rand { return e.rng }

// After implements node.Env.
func (e *Env) After(d time.Duration, fn func()) node.Cancel {
	t := e.domain.eng.After(d, func() {
		if !e.closed {
			fn()
		}
	})
	return t.Stop
}

// Every implements node.Env. The periodic timer self-cancels once the env
// closes, so departed nodes do not keep feeding the event queue.
func (e *Env) Every(d time.Duration, fn func()) node.Cancel {
	var t eventsim.Timer
	t = e.domain.eng.Every(d, func() {
		if e.closed {
			t.Stop()
			return
		}
		fn()
	})
	return t.Stop
}

// UplinkBacklog implements node.Env.
func (e *Env) UplinkBacklog() time.Duration {
	return e.host.QueueDelay(e.domain.eng.Now())
}

// SetHandler installs the node's message handler.
func (e *Env) SetHandler(h node.Handler) { e.handler = h }

// TapRecv registers an observer for delivered datagrams.
func (e *Env) TapRecv(t Tap) { e.recvTaps = append(e.recvTaps, t) }

// TapSend registers an observer for outgoing datagrams.
func (e *Env) TapSend(t Tap) { e.sendTaps = append(e.sendTaps, t) }

// datagram is what a send hands the underlay for msg: its wire size and the
// message itself, or under CodecCheck what the codec makes of it.
func (d *Domain) datagram(msg wire.Message) (size int, payload any) {
	if !d.world.CodecCheck {
		return wire.Size(msg), msg
	}
	decoded, err := wire.Unmarshal(wire.Marshal(msg))
	if err != nil {
		panic(fmt.Sprintf("simnet: codec check failed for %s: %v", msg.Kind(), err))
	}
	return wire.Size(msg), decoded
}

// discard is every domain's underlay discard hook: a dropped datagram's
// message goes back to the wire pool, like a delivered one.
func discard(payload any) {
	if msg, ok := payload.(wire.Message); ok {
		wire.Release(msg)
	}
}

// Send implements node.Env. A closed env sends nothing and releases msg.
func (e *Env) Send(to netip.Addr, msg wire.Message) {
	if e.closed {
		wire.Release(msg)
		return
	}
	size, payload := e.domain.datagram(msg)
	for _, tap := range e.sendTaps {
		tap(to, msg, size)
	}
	e.domain.net.Send(e.host, to, size, payload)
}

// Deliver implements underlay.Receiver for this node: the taps, then the
// handler, and then the message goes back to the wire pool (wire.Release).
// A datagram for a closed env goes straight back, like one the underlay
// loses, queue-drops or addresses to no host (see discard).
func (e *Env) Deliver(_ *underlay.Host, from netip.Addr, size int, payload any) {
	msg, ok := payload.(wire.Message)
	if !ok {
		panic(fmt.Sprintf("simnet: non-wire payload %T delivered to %s", payload, e.host.Addr))
	}
	if e.closed {
		wire.Release(msg)
		return
	}
	for _, tap := range e.recvTaps {
		tap(from, msg, size)
	}
	if e.handler != nil {
		e.handler.HandleMessage(from, msg)
	}
	wire.Release(msg)
}

// Close detaches the node from the network and disarms its timers. It is
// idempotent.
func (e *Env) Close() {
	if e.closed {
		return
	}
	e.closed = true
	e.domain.net.Detach(e.host.Addr)
}

// Closed reports whether the env has been closed.
func (e *Env) Closed() bool { return e.closed }

// LiteHandler receives messages for flow-fidelity swarm members, addressed
// by member row index instead of per-member handler objects.
type LiteHandler interface {
	HandleLite(i int, from netip.Addr, msg wire.Message)
}

// LitePort attaches one owner's flow-fidelity members to a domain. A member
// is an underlay.Host in the domain's slab and nothing else — no RNG, timers
// or taps, where a full Env costs roughly 5KB, almost all of it its
// rand.Rand, which a million-member background population cannot afford. The
// port is the Receiver of all its members: a delivery reaches the owner under
// the row index in the host's Tag, and the owner reaches a member's host by
// the member's address.
type LitePort struct {
	domain *Domain
	owner  LiteHandler
}

// NewLitePort returns a port whose members' deliveries go to
// owner.HandleLite.
func (d *Domain) NewLitePort(owner LiteHandler) *LitePort {
	return &LitePort{domain: d, owner: owner}
}

// Spawn allocates an address in the port's domain and attaches a member host
// there. The owner typically needs the address before it can assign a row, so
// the caller sets the host's Tag to the row index, before any event runs.
// The host is the domain's: it must not be used once the member is retired.
func (p *LitePort) Spawn(spec HostSpec) (*underlay.Host, error) {
	d := p.domain
	addr, err := d.allocAddr(spec.ISP)
	if err != nil {
		return nil, err
	}
	var h *underlay.Host
	if k := len(d.liteFree); k > 0 {
		h = d.liteFree[k-1]
		d.liteFree = d.liteFree[:k-1]
	} else {
		if len(d.liteChunk) == 0 {
			d.liteChunk = make([]underlay.Host, liteChunkCells)
		}
		h = &d.liteChunk[0]
		d.liteChunk = d.liteChunk[1:]
	}
	// Datagrams still in flight to the cell's previous occupant hold a
	// pointer to it; the underlay matches them against the address they were
	// sent to, so they count as dropped-no-host and never reach the owner.
	*h = underlay.Host{
		Addr:      addr,
		ISP:       spec.ISP,
		UploadBps: spec.UploadBps,
		ProcDelay: spec.ProcDelay,
	}
	if err := d.net.AttachReceiver(h, p); err != nil {
		d.liteFree = append(d.liteFree, h)
		return nil, err
	}
	return h, nil
}

// Send transmits a message from the member at from, with the same codec
// check Env.Send applies. A retired member sends nothing and releases msg.
func (p *LitePort) Send(from, to netip.Addr, msg wire.Message) {
	h, ok := p.domain.net.Lookup(from)
	if !ok {
		wire.Release(msg)
		return
	}
	size, payload := p.domain.datagram(msg)
	p.domain.net.Send(h, to, size, payload)
}

// UplinkBacklog is the transmit-queue delay now of the member at addr.
func (p *LitePort) UplinkBacklog(addr netip.Addr) time.Duration {
	if h, ok := p.domain.net.Lookup(addr); ok {
		return h.QueueDelay(p.domain.eng.Now())
	}
	return 0
}

// Retire detaches the member at addr and returns its cell to the domain.
func (p *LitePort) Retire(addr netip.Addr) {
	if h := p.domain.net.Detach(addr); h != nil {
		p.domain.liteFree = append(p.domain.liteFree, h)
	}
}

// Deliver implements underlay.Receiver for every member of the port; the
// message goes back to the wire pool once the owner returns.
func (p *LitePort) Deliver(h *underlay.Host, from netip.Addr, _ int, payload any) {
	msg, ok := payload.(wire.Message)
	if !ok {
		panic(fmt.Sprintf("simnet: non-wire payload %T delivered to %s", payload, h.Addr))
	}
	p.owner.HandleLite(int(h.Tag), from, msg)
	wire.Release(msg)
}
