package layers

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sort"
	"time"

	"pplivesim/internal/analysis"
	"pplivesim/internal/asnmap"
	"pplivesim/internal/capture"
	"pplivesim/internal/cdn"
	"pplivesim/internal/eventsim"
	"pplivesim/internal/isp"
	"pplivesim/internal/node"
	"pplivesim/internal/peer"
	"pplivesim/internal/selection"
	"pplivesim/internal/simnet"
	"pplivesim/internal/stream"
	"pplivesim/internal/tracker"
	"pplivesim/internal/underlay"
	"pplivesim/internal/wire"
	"pplivesim/internal/workload"
)

// Result is one layer driver's number: the median over batches of the cost
// of one operation.
type Result struct {
	Name  string
	Unit  string
	Value float64
}

// batches is how many timed batches each driver runs; the median is kept.
const batches = 5

// driver is one layer measured in isolation. batch times one batch and
// returns the cost of one operation in the driver's unit.
type driver struct {
	name, unit string
	// setup builds the driver's fixture once and returns its batch function.
	setup func() (batch func() float64, err error)
}

// Names lists every driver metric with its unit, in run order.
func Names() []Result {
	out := make([]Result, len(drivers))
	for i, d := range drivers {
		out[i] = Result{Name: d.name, Unit: d.unit}
	}
	return out
}

// Run executes every driver. span wraps each driver's timed work so the
// caller's trace gets one span per layer call (it may simply call fn).
func Run(span func(name string, fn func())) ([]Result, error) {
	var out []Result
	for _, d := range drivers {
		batch, err := d.setup()
		if err != nil {
			return nil, fmt.Errorf("layers: %s: %w", d.name, err)
		}
		vals := make([]float64, batches)
		span(d.name, func() {
			for i := range vals {
				vals[i] = batch()
			}
		})
		sort.Float64s(vals)
		out = append(out, Result{Name: d.name, Unit: d.unit, Value: vals[batches/2]})
	}
	return out, nil
}

// perOp times n calls of op and returns nanoseconds per call.
func perOp(n int, op func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		op(i)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// sink keeps results alive so the compiler cannot drop a measured call.
var sink int

func noop(any) {}

var drivers = []driver{
	{"eventsim.schedule_fire_ns", "ns", func() (func() float64, error) {
		// 10 k events pending at all times: each op schedules one event and
		// the run loop fires one.
		const pending, n = 10_000, 50_000
		return func() float64 {
			eng := eventsim.New(1)
			for i := 0; i < pending; i++ {
				eng.AtArg(time.Duration(i+1)*time.Microsecond, noop, nil)
			}
			start := time.Now()
			for i := 0; i < n; i++ {
				eng.AtArg(time.Duration(pending+i+1)*time.Microsecond, noop, nil)
			}
			if err := eng.RunUntil(time.Duration(n) * time.Microsecond); err != nil {
				panic(err)
			}
			return float64(time.Since(start).Nanoseconds()) / n
		}, nil
	}},
	{"eventsim.barrier_ns_w1", "ns", barrierDriver(1)},
	{"eventsim.barrier_ns_w2", "ns", barrierDriver(2)},
	{"underlay.send_deliver_ns", "ns", func() (func() float64, error) {
		const n = 20_000
		return func() float64 {
			eng := eventsim.New(2)
			net := underlay.New(eng, underlay.DefaultConfig())
			// A fat uplink so a burst of n small datagrams never reaches the
			// queue bound: the op is uplink accounting, loss and delay draws,
			// one scheduled delivery and its handler call.
			a := &underlay.Host{Addr: harnessAddr(4, 1), ISP: isp.TELE, UploadBps: 1 << 32}
			b := &underlay.Host{Addr: harnessAddr(4, 2), ISP: isp.TELE, UploadBps: 1 << 32}
			got := 0
			for _, h := range []*underlay.Host{a, b} {
				if err := net.Attach(h, func(netip.Addr, int, any) { got++ }); err != nil {
					panic(err)
				}
			}
			start := time.Now()
			for i := 0; i < n; i++ {
				net.Send(a, b.Addr, 40, nil)
			}
			if err := eng.Run(time.Minute); err != nil {
				panic(err)
			}
			sink += got
			return float64(time.Since(start).Nanoseconds()) / n
		}, nil
	}},
	{"simnet.xshard_send_ns", "ns", func() (func() float64, error) {
		const n = 20_000
		msg := &wire.Have{Channel: 1, Seq: 1, Count: 1}
		return func() float64 {
			w := simnet.NewShardedWorldN(3, 1)
			spawn := func(cat isp.ISP) *simnet.Env {
				env, err := w.DomainsOf(cat)[0].Spawn(simnet.HostSpec{ISP: cat, UploadBps: 1 << 32})
				if err != nil {
					panic(err)
				}
				return env
			}
			a, b := spawn(isp.TELE), spawn(isp.CNC)
			got := 0
			b.SetHandler(node.HandlerFunc(func(netip.Addr, wire.Message) { got++ }))
			// Env.Send through wire.Size, the sender's underlay, the router
			// mailbox, the barrier flush, Inject and the delivery event.
			start := time.Now()
			for i := 0; i < n; i++ {
				a.Send(b.Addr(), msg)
			}
			if err := w.Run(time.Minute, 1); err != nil {
				panic(err)
			}
			sink += got
			return float64(time.Since(start).Nanoseconds()) / n
		}, nil
	}},
	{"wire.size_ns", "ns", func() (func() float64, error) {
		msgs := wireMix()
		return func() float64 {
			return perOp(200_000, func(i int) { sink += wire.Size(msgs[i%len(msgs)]) })
		}, nil
	}},
	{"wire.marshal_ns", "ns", func() (func() float64, error) {
		msgs := wireMix()
		buf := make([]byte, 0, 4096)
		return func() float64 {
			return perOp(30_000, func(i int) {
				buf = wire.AppendMarshal(buf[:0], msgs[i%len(msgs)])
				sink += len(buf)
			})
		}, nil
	}},
	{"wire.unmarshal_ns", "ns", func() (func() float64, error) {
		var enc [][]byte
		for _, m := range wireMix() {
			enc = append(enc, wire.Marshal(m))
		}
		return func() float64 {
			return perOp(30_000, func(i int) {
				m, err := wire.Unmarshal(enc[i%len(enc)])
				if err != nil {
					panic(err)
				}
				sink += int(m.Kind())
			})
		}, nil
	}},
	{"wire.buffermap_setrange_ns", "ns", func() (func() float64, error) {
		bm := wire.MakeBufferMap(0, 2048)
		return func() float64 {
			// The session's learnHas pattern: short ranges near the top.
			return perOp(200_000, func(i int) {
				lo := uint64(1500 + i%500)
				bm.SetRange(lo, lo+uint64(i%8))
			})
		}, nil
	}},
	{"peer.have_ns", "ns", peerDriver(peer.DefaultConfig, func(h *PeerHarness) float64 {
		h.Step()
		edge := h.edge()
		msgs := make([]*wire.Have, 64)
		for i := range msgs {
			msgs[i] = &wire.Have{Channel: h.Spec.Channel, Seq: edge - uint64(i), Count: 1}
		}
		return perOp(50_000, func(i int) {
			h.Client.HandleMessage(h.Neighbors[i%len(h.Neighbors)], msgs[i%len(msgs)])
		})
	})},
	{"peer.data_reply_ns", "ns", peerDriver(peer.DefaultConfig, func(h *PeerHarness) float64 {
		// Requests come from real scheduler ticks (untimed); only the
		// replies' HandleMessage calls are on the clock.
		var total time.Duration
		ops := 0
		h.Env.Keep = true
		for ops < 2_000 {
			h.Advance()
			reqs := h.Tick()
			replies := make([]*wire.DataReply, len(reqs))
			for i, r := range reqs {
				replies[i] = h.Reply(r)
			}
			h.Env.Keep = false
			start := time.Now()
			for i, r := range reqs {
				h.Client.HandleMessage(r.To, replies[i])
			}
			total += time.Since(start)
			h.Env.Keep = true
			ops += len(reqs)
		}
		return float64(total.Nanoseconds()) / float64(ops)
	})},
	{"peer.data_request_ns", "ns", peerDriver(peer.DefaultConfig, func(h *PeerHarness) float64 {
		h.Step()
		reqs := make([]*wire.DataRequest, 256)
		for i := range reqs {
			reqs[i] = &wire.DataRequest{Channel: h.Spec.Channel, Seq: h.HeldSeq(i), Count: 1}
		}
		h.Env.Keep = false
		defer func() { h.Env.Keep = true }()
		before := h.Client.Stats().DataRequestsServed
		ns := perOp(50_000, func(i int) {
			h.Client.HandleMessage(h.Neighbors[i%len(h.Neighbors)], reqs[i%len(reqs)])
		})
		if h.Client.Stats().DataRequestsServed-before != 50_000 {
			panic("layers: data-request driver hit the decline path")
		}
		return ns
	})},
	{"peer.list_request_ns", "ns", peerDriver(peer.DefaultConfig, func(h *PeerHarness) float64 {
		req := &wire.PeerListRequest{Channel: h.Spec.Channel, OwnPeers: h.Neighbors}
		h.Env.Keep = false
		defer func() { h.Env.Keep = true }()
		return perOp(20_000, func(i int) {
			h.Client.HandleMessage(h.Neighbors[i%len(h.Neighbors)], req)
		})
	})},
	{"peer.sched_tick_us", "us", peerDriver(peer.DefaultConfig, schedTickBatch(400))},
	{"peer.sched_tick_bg_us", "us", peerDriver(peer.BackgroundConfig, schedTickBatch(200))},
	{"peer.source_serve_ns", "ns", serverDriver(0, startSource)},
	{"peer.source_shed_ns", "ns", serverDriver(3*time.Second, startSource)},
	{"peer.flow_tick_us_per_100k", "us", func() (func() float64, error) {
		cfg := peer.DefaultFlowConfig(workload.PopularSpec())
		cfg.MeanSession = 30 * time.Minute
		cfg.ReplacementDelay = 30 * time.Second
		return func() float64 {
			// One swarm's life per 100 k members: build, join everyone, and
			// one flow tick (O(1) in population; the joins are the O(n) part).
			port := &flowPort{}
			start := time.Now()
			s, err := peer.NewFlowSwarm(cfg, port, rand.New(rand.NewSource(5)), nil, 100_000)
			if err != nil {
				panic(err)
			}
			for i := 0; i < 100_000; i++ {
				s.Add(netip.AddrFrom4([4]byte{11, byte(i >> 16), byte(i >> 8), byte(i)}))
			}
			port.now += time.Second
			s.Tick(port.now)
			sink += s.Alive()
			return float64(time.Since(start).Nanoseconds()) / 1e3
		}, nil
	}},
	{"tracker.announce_ns", "ns", trackerDriver(func(srv *tracker.Server, peers []netip.Addr) float64 {
		msg := &wire.TrackerAnnounce{Channel: 1}
		return perOp(100_000, func(i int) { srv.HandleMessage(peers[i%len(peers)], msg) })
	})},
	{"tracker.query_ns", "ns", trackerDriver(func(srv *tracker.Server, peers []netip.Addr) float64 {
		msg := &wire.TrackerQuery{Channel: 1}
		return perOp(2_000, func(i int) { srv.HandleMessage(peers[i%len(peers)], msg) })
	})},
	{"selection.sample_uniform_ns", "ns", selectionDriver(selection.Spec{})},
	{"selection.sample_quota_ns", "ns", selectionDriver(selection.Spec{Kind: selection.KindQuota, MaxInterFrac: 0.25})},
	{"selection.sample_ashop_ns", "ns", selectionDriver(selection.Spec{Kind: selection.KindASHop, Bias: selection.DefaultASHopBias})},
	{"capture.observe_ns", "ns", func() (func() float64, error) {
		reg := asnmap.SyntheticInternet()
		peers, err := registryAddrs(reg, 64)
		if err != nil {
			return nil, err
		}
		return func() float64 {
			agg := analysis.NewAggregate(reg, harnessAddr(1, 3), isp.TELE)
			m := capture.NewAggregator(nil, capture.AggregatorConfig{}, agg)
			req := &wire.DataRequest{Channel: 1, Count: 1}
			rep := &wire.DataReply{Channel: 1, Count: 1, PieceLen: wire.SubPieceSize}
			const n = 30_000
			// One op is a matched request/reply pair, 30 ms apart.
			ns := perOp(n, func(i int) {
				at := time.Duration(i) * 40 * time.Millisecond
				p := peers[i%len(peers)]
				req.Seq, rep.Seq = uint64(i), uint64(i)
				m.Observe(at, capture.Out, p, req, 42)
				m.Observe(at+30*time.Millisecond, capture.In, p, rep, 1400)
			})
			m.Close()
			return ns
		}, nil
	}},
	{"analysis.merge_us", "us", func() (func() float64, error) {
		reg := asnmap.SyntheticInternet()
		peers, err := registryAddrs(reg, 5)
		if err != nil {
			return nil, err
		}
		src := harnessAddr(1, 3)
		return func() float64 {
			// The per-barrier flow fold: a window aggregate holding one
			// transmission per source ISP merged into a running total.
			total := analysis.NewAggregate(reg, src, isp.TELE)
			const n = 5_000
			var spent time.Duration
			for i := 0; i < n; i++ {
				window := analysis.NewAggregate(reg, src, isp.TELE)
				at := time.Duration(i) * time.Second
				for k, p := range peers {
					window.DataMatched(capture.Transmission{Peer: p, Seq: uint64(i*5 + k), ReqAt: at, RepAt: at + 40*time.Millisecond, Bytes: 50_000, Pieces: 36})
				}
				start := time.Now()
				total.Merge(window)
				spent += time.Since(start)
			}
			return float64(spent.Nanoseconds()) / n / 1e3
		}, nil
	}},
	{"analysis.report_driver_ms", "ms", func() (func() float64, error) {
		reg := asnmap.SyntheticInternet()
		peers, err := registryAddrs(reg, 300)
		if err != nil {
			return nil, err
		}
		agg := analysis.NewAggregate(reg, harnessAddr(1, 3), isp.TELE)
		// A probe's watch in miniature: 300 peers with skewed activity and a
		// peer list from each.
		for i, p := range peers {
			at := time.Duration(i) * time.Second
			agg.PeerListMatched(capture.ListExchange{Peer: p, ReqAt: at, RepAt: at + 50*time.Millisecond, Addrs: peers[:60]})
			for k := 0; k < 1+3000/(i+1); k++ {
				agg.DataRequest(p, at)
				agg.DataMatched(capture.Transmission{Peer: p, Seq: uint64(i*4000 + k), ReqAt: at, RepAt: at + time.Duration(20+i)*time.Millisecond, Bytes: wire.SubPieceSize, Pieces: 1})
			}
		}
		return func() float64 {
			const n = 20
			return perOp(n, func(int) { sink += len(agg.Report().Peers) }) / 1e6
		}, nil
	}},
	{"cdn.serve_ns", "ns", serverDriver(0, startEdge)},
	{"cdn.shed_ns", "ns", serverDriver(3*time.Second, startEdge)},
}

// barrierDriver times Group.Run over 13 engines (the 12-shard partition)
// with one no-op event per engine per window: what a window costs when the
// shards have nearly nothing to do.
func barrierDriver(workers int) func() (func() float64, error) {
	return func() (func() float64, error) {
		const engines, windows = 13, 5_000
		lookahead := 12 * time.Millisecond
		return func() float64 {
			g := &eventsim.Group{Lookahead: lookahead, Workers: workers, Flush: func() {}}
			for e := 0; e < engines; e++ {
				eng := eventsim.New(int64(e))
				for w := 0; w < windows; w++ {
					eng.AtArg(time.Duration(w)*lookahead, noop, nil)
				}
				g.Engines = append(g.Engines, eng)
			}
			start := time.Now()
			if err := g.Run(windows * lookahead); err != nil {
				panic(err)
			}
			return float64(time.Since(start).Nanoseconds()) / float64(g.Windows)
		}, nil
	}
}

// peerDriver builds one steady-state client per driver and hands it to
// batch.
func peerDriver(config func(stream.Spec, netip.Addr) peer.Config, batch func(h *PeerHarness) float64) func() (func() float64, error) {
	return func() (func() float64, error) {
		h, err := NewPeerHarness(config)
		if err != nil {
			return nil, err
		}
		return func() float64 { return batch(h) }, nil
	}
}

// schedTickBatch times n scheduler ticks; maps are refreshed before and
// requests answered after each tick, both off the clock.
func schedTickBatch(n int) func(h *PeerHarness) float64 {
	return func(h *PeerHarness) float64 {
		var spent time.Duration
		requests := 0
		for i := 0; i < n; i++ {
			h.Advance()
			h.Env.TakeSent()
			start := time.Now()
			h.tick()
			spent += time.Since(start)
			for _, s := range h.Env.TakeSent() {
				if _, ok := s.Msg.(*wire.DataRequest); ok {
					requests++
					h.Client.HandleMessage(s.To, h.Reply(s))
				}
			}
		}
		if requests == 0 {
			panic("layers: scheduler ticks emitted no data requests")
		}
		return float64(spent.Nanoseconds()) / float64(n) / 1e3
	}
}

// serverDriver times HandleMessage of a stream server (source or edge) for
// an 8-piece data request, with the uplink backlog below (serve) or above
// (shed) the 2 s shedding threshold.
func serverDriver(backlog time.Duration, start func(env *StubEnv, spec stream.Spec) (node.Handler, error)) func() (func() float64, error) {
	return func() (func() float64, error) {
		env := NewStubEnv(harnessAddr(1, 3), 7)
		env.Keep = false
		spec := workload.PopularSpec()
		srv, err := start(env, spec)
		if err != nil {
			return nil, err
		}
		env.Advance(10 * time.Minute)
		env.SetBacklog(backlog)
		edge := spec.EdgeSeq(env.Now())
		req := &wire.DataRequest{Channel: spec.Channel, Count: 8}
		from := harnessAddr(2, 1)
		return func() float64 {
			return perOp(100_000, func(i int) {
				req.Seq = edge - 100 - uint64(i%512)
				srv.HandleMessage(from, req)
			})
		}, nil
	}
}

func startSource(env *StubEnv, spec stream.Spec) (node.Handler, error) {
	return peer.NewSource(env, spec)
}

func startEdge(env *StubEnv, spec stream.Spec) (node.Handler, error) {
	e := cdn.NewEdge(env)
	return e, e.AddChannel(spec)
}

// trackerDriver registers 1000 peers on one tracker server (uniform policy,
// 60-address replies) and hands it to batch.
func trackerDriver(batch func(srv *tracker.Server, peers []netip.Addr) float64) func() (func() float64, error) {
	return func() (func() float64, error) {
		env := NewStubEnv(harnessAddr(1, 2), 9)
		env.Keep = false
		srv := tracker.NewServer(env)
		peers := make([]netip.Addr, 1000)
		for i := range peers {
			peers[i] = harnessAddr(5, i+1)
			srv.HandleMessage(peers[i], &wire.TrackerAnnounce{Channel: 1})
		}
		return func() float64 { return batch(srv, peers) }, nil
	}
}

// selectionDriver times Policy.Sample over 1000 candidates, k = 60.
func selectionDriver(spec selection.Spec) func() (func() float64, error) {
	return func() (func() float64, error) {
		reg := asnmap.SyntheticInternet()
		pol, err := spec.Policy(reg)
		if err != nil {
			return nil, err
		}
		c, err := registryAddrs(reg, 1001)
		if err != nil {
			return nil, err
		}
		from, c := c[0], c[1:]
		rng := rand.New(rand.NewSource(1))
		return func() float64 {
			return perOp(3_000, func(int) { sink += pol.Sample(c, from, 60, rng) })
		}, nil
	}
}

// registryAddrs allocates n addresses round-robin over the five ISP
// categories of the synthetic address plan, so resolvers see a realistic mix.
func registryAddrs(reg *asnmap.Registry, n int) ([]netip.Addr, error) {
	cats := isp.All()
	var out []netip.Addr
	for _, cat := range cats {
		pool, err := reg.PoolFor(cat)
		if err != nil {
			return nil, err
		}
		for i := 0; i < (n+len(cats)-1)/len(cats); i++ {
			a, err := pool.Alloc()
			if err != nil {
				return nil, err
			}
			out = append(out, a)
		}
	}
	// Interleave categories (allocation above is grouped by category).
	per := len(out) / len(cats)
	mixed := make([]netip.Addr, 0, n)
	for i := 0; len(mixed) < n; i++ {
		mixed = append(mixed, out[(i%len(cats))*per+i/len(cats)])
	}
	return mixed, nil
}

// wireMix is the Have / DataReply / PeerList mix the codec drivers cycle.
func wireMix() []wire.Message {
	peers := make([]netip.Addr, wire.MaxPeerList)
	for i := range peers {
		peers[i] = harnessAddr(6, i+1)
	}
	return []wire.Message{
		&wire.Have{Channel: 1, Seq: 123456, Count: 1},
		&wire.DataReply{Channel: 1, Seq: 123456, Count: 1, PieceLen: wire.SubPieceSize},
		&wire.PeerListReply{Channel: 1, Peers: peers},
	}
}

// flowPort is a FlowPort that does nothing, so a swarm runs alone.
type flowPort struct{ now time.Duration }

func (p *flowPort) Now() time.Duration                 { return p.now }
func (p *flowPort) Send(int, netip.Addr, wire.Message) {}
func (p *flowPort) UplinkBacklog(int) time.Duration    { return 0 }
func (p *flowPort) Retire(int)                         {}
func (p *flowPort) Respawn(time.Duration)              {}
