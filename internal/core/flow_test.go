package core

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/netip"
	"os"
	"runtime"
	"testing"
	"time"

	"pplivesim/internal/isp"
	"pplivesim/internal/peer"
	"pplivesim/internal/selection"
	"pplivesim/internal/simnet"
	"pplivesim/internal/wire"
	"pplivesim/internal/workload"
)

// TestFlowFidelitySmallRun is the end-to-end check that a full-fidelity
// probe cannot tell flow members from batched Clients where it matters: it
// must discover them through trackers and gossip, handshake in, and stream
// at normal continuity — while the flow-level traffic account shows the
// expected intra-ISP locality.
func TestFlowFidelitySmallRun(t *testing.T) {
	sc := smallScenario(7)
	sc.Name = "flow-small"
	sc.Fidelity = peer.FidelityFlow
	sc.Churn = workload.DefaultChurn()
	res, err := RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.PeersSpawned < sc.Viewers.Total() {
		t.Errorf("spawned %d flow members, want >= %d", res.PeersSpawned, sc.Viewers.Total())
	}
	cont := res.Probes[0].Client.BufferStats().Continuity()
	if cont < 0.9 {
		t.Errorf("probe continuity at flow fidelity = %.3f, want >= 0.9", cont)
	}
	// The probe's own traffic must come overwhelmingly from the flow swarm,
	// not the source: the mesh carries the stream.
	rep, err := res.ProbeReport(0)
	if err != nil {
		t.Fatal(err)
	}
	var peerBytes uint64
	for _, b := range rep.BytesByISP {
		peerBytes += b
	}
	if peerBytes == 0 {
		t.Error("probe streamed nothing from flow members")
	}
	// Flow-level account: TELE swarm traffic stays ~90% inside TELE.
	loc, ok := flowLocality(res, isp.TELE)
	if !ok {
		t.Fatal("no flow traffic recorded for TELE")
	}
	if loc < 0.8 || loc > 0.99 {
		t.Errorf("TELE flow locality = %.3f, want ~0.9", loc)
	}
	if len(res.FlowTraffic) == 0 {
		t.Error("result carries no flow traffic aggregates")
	}
}

// flowLocality returns the intra-ISP fraction of the flow-level background
// bytes the first channel's swarm of viewer category cat streamed. ok is false
// when no such swarm exists or it streamed nothing.
func flowLocality(r *Result, cat isp.ISP) (frac float64, ok bool) {
	for _, ft := range r.FlowTraffic {
		if ft.Channel != r.Channels[0].Spec.Channel || ft.ISP != cat {
			continue
		}
		var total, same uint64
		for src, b := range ft.Aggregate.BytesSnapshot() {
			total += b
			if src == cat {
				same = b
			}
		}
		return float64(same) / float64(total), total > 0
	}
	return 0, false
}

// flowAccountDigest condenses the flow-level traffic account into one
// number: a FNV-1a hash over every (channel, ISP) total's Report, rendered
// as JSON, in build order. The goldens never see this account — they fold
// events, spawns and probe records — so this is what pins it.
func flowAccountDigest(t *testing.T, res *Result) uint64 {
	t.Helper()
	h := fnv.New64a()
	for _, ft := range res.FlowTraffic {
		b, err := json.Marshal(ft.Aggregate.Report())
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%d/%s:", ft.Channel, ft.ISP)
		h.Write(b)
	}
	return h.Sum64()
}

func TestFlowFidelityValidation(t *testing.T) {
	sc := smallScenario(7)
	sc.Fidelity = peer.FidelityFlow
	sc.Switching = workload.DefaultSwitching()
	sc.Switching.Enabled = true
	if _, err := Build(sc); err == nil {
		t.Error("flow fidelity + switching should fail validation")
	}
	sc = smallScenario(7)
	sc.Fidelity = peer.Fidelity(99)
	if _, err := Build(sc); err == nil {
		t.Error("undefined fidelity should fail validation")
	}
}

// TestFlowChurnZeroAlloc gates the churn path through the real port — swarm
// retire → flowDomain.Retire → LitePort.Retire → underlay detach, then the
// scheduled respawn → LitePort.Spawn → attach → swarm row — at 0 allocations
// per event once the world is past warm-up: retired rows, lite cells and event
// slots are all recycled. (TestFlowTickZeroAlloc in internal/peer gates the
// same tick against a stub port.) What remains is one 2 KB host-table leaf per
// 256 fresh addresses, below this gate's resolution. After the churn and a
// kill it checks that the address really is each row's handle. Last, it gates
// the traffic account the same way: a flow tick that books its bytes into the
// window tallies, then the barrier fold into the (channel, ISP) total.
func TestFlowChurnZeroAlloc(t *testing.T) {
	sc := smallScenario(7)
	sc.Name = "flow-churn-alloc"
	sc.Fidelity = peer.FidelityFlow
	// Replacements are due at once, so each round can fire exactly the
	// respawns its own departures scheduled and nothing else in the world.
	sc.Churn = workload.Churn{Enabled: true, MeanSession: 30 * time.Minute}
	sim, err := Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	// Flow members join at t=0, so what Build attached is full hosts.
	full := make([]int, len(sim.doms))
	for i := range sim.doms {
		full[i] = sim.doms[i].dom.Network().NumHosts()
	}
	if err := sim.world.Run(sc.WarmUp, 1); err != nil {
		t.Fatal(err)
	}
	var fd *flowDomain
	for _, f := range sim.flows {
		if f.category == isp.TELE {
			fd = f
		}
	}
	eng := fd.ds.dom.Engine()
	now := eng.Now()
	// One mean inter-departure gap per round: a departure per Tick on average.
	gap := sc.Churn.MeanSession / time.Duration(fd.swarm.Alive())
	events := 0
	round := func() {
		now += gap
		before := fd.swarm.Alive()
		fd.swarm.Tick(now)
		for k := before - fd.swarm.Alive(); k > 0; k-- {
			eng.Step()
			events++
		}
		if fd.swarm.Alive() != before {
			t.Fatalf("alive %d after a churn round, want %d: a step fired something other than a respawn", fd.swarm.Alive(), before)
		}
	}
	for i := 0; i < 100; i++ {
		round()
	}
	spawned := fd.ds.spawned
	events = 0
	allocs := testing.AllocsPerRun(400, round)
	if events < 300 || fd.ds.spawned-spawned != events {
		t.Fatalf("%d churn events, %d respawns: the rounds did not exercise the churn path", events, fd.ds.spawned-spawned)
	}
	if allocs != 0 {
		t.Errorf("churn through flowDomain allocates %.2f objects per round, want 0", allocs)
	}
	// The address is the handle: a live row's address finds a host tagged
	// with that row, a dead row's address finds nothing, and a domain holds
	// its live members, its full hosts and no one else.
	fd.swarm.KillFraction(0.5)
	for i, ps := range sc.Probes {
		if sim.probes[i].Client != nil {
			full[sim.world.DomainsOf(ps.ISP)[0].ID()]++
		}
	}
	live := make([]int, len(sim.doms))
	for _, f := range sim.flows {
		net := f.ds.dom.Network()
		attached := 0
		for i := 0; i < f.swarm.Len(); i++ {
			h, ok := net.Lookup(f.swarm.Addr(i))
			if !ok {
				continue
			}
			attached++
			if int(h.Tag) != i {
				t.Errorf("%s: row %d's address %s finds a host tagged %d", f.ds.dom.Name(), i, h.Addr, h.Tag)
			}
		}
		if attached != f.swarm.Alive() {
			t.Errorf("%s: %d rows have an attached host, %d members are alive", f.ds.dom.Name(), attached, f.swarm.Alive())
		}
		live[f.ds.dom.ID()] += f.swarm.Alive()
	}
	for i := range sim.doms {
		if got, want := sim.doms[i].dom.Network().NumHosts(), live[i]+full[i]; got != want {
			t.Errorf("%s: %d hosts attached, want %d live members + %d full hosts", sim.doms[i].dom.Name(), got, live[i], full[i])
		}
	}

	// Booking and fold. Nothing steps this engine again, so its clock may
	// jump past the events still queued: each round is one flow interval.
	booked := func() (sum uint64) {
		for _, b := range fd.total.Aggregate.BytesSnapshot() {
			sum += b
		}
		return sum
	}
	before := booked()
	eng.FastForward(now)
	allocs = testing.AllocsPerRun(400, func() {
		now += flowTickInterval
		eng.FastForward(now)
		fd.tick()
		sim.foldFlowWindows()
	})
	if booked() <= before {
		t.Fatal("the flow ticks booked no bytes into the total")
	}
	if allocs != 0 {
		t.Errorf("flow tick + window fold allocates %.2f objects per round, want 0", allocs)
	}
}

// TestFlowMessagesZeroAlloc is the allocation gate of what a flow swarm sends
// through the real port: the periodic buffer-map announce over its live
// probe-facing links and the sampled tracker announces, and a member's answers
// to a probe — the handshake ack, the referral reply under a quota policy, the
// pong and the declined data request with its buffer-map piggyback — each
// sent, delivered through World.Run and recycled, at 0 allocations per round
// once warm. The probes are two test hosts, one in the swarm's domain and one
// in another, so both the local and the cross-domain path carry the replies;
// the scenario's own probe joins only after the measurement.
func TestFlowMessagesZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items on purpose under the race detector")
	}
	sc := smallScenario(7)
	sc.Name = "flow-messages-alloc"
	sc.Fidelity = peer.FidelityFlow
	sc.Selection = selection.Spec{Kind: selection.KindQuota, MaxInterFrac: 0.25}
	sc.WarmUp = 24 * time.Hour
	sim, err := Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	var fd *flowDomain
	for _, f := range sim.flows {
		if f.category == isp.TELE {
			fd = f
		}
	}
	spawn := func(d *simnet.Domain) *simnet.Env {
		env, err := d.Spawn(simnet.HostSpec{ISP: d.Category(), UploadBps: 1 << 30})
		if err != nil {
			t.Fatal(err)
		}
		return env
	}
	near, far := spawn(fd.ds.dom), spawn(sim.world.DomainsOf(isp.CNC)[0])
	kinds := map[*simnet.Env]*[wire.TChoke + 1]int{near: {}, far: {}}
	for env, got := range kinds {
		env.TapRecv(func(_ netip.Addr, m wire.Message, _ int) { got[m.Kind()]++ })
	}
	ch := sc.Spec.Channel
	handshake := &wire.Handshake{Channel: ch}
	listRequest := &wire.PeerListRequest{Channel: ch}
	ping := &wire.Ping{Channel: ch, Nonce: 9}
	// Far past the live edge: no member holds it.
	miss := &wire.DataRequest{Channel: ch, Seq: 1 << 40, Count: 1}
	swarm := fd.swarm
	link := func() {
		swarm.Handle(0, near.Addr(), handshake)
		swarm.Handle(1, far.Addr(), handshake)
	}
	// The periodic link announce fires on multiples of five seconds and
	// stamps each link; a round's calls come half-way between two of them,
	// so the piggyback's one-second rate limit has always run out.
	answer := func() {
		swarm.Handle(0, near.Addr(), handshake)
		swarm.Handle(0, near.Addr(), listRequest)
		swarm.Handle(0, near.Addr(), ping)
		swarm.Handle(0, near.Addr(), miss)
		swarm.AnnounceLinks()
		swarm.AnnounceTrackers()
	}
	const period = 5 * time.Second
	horizon := time.Minute
	if err := sim.world.Run(horizon, 1); err != nil {
		t.Fatal(err)
	}
	fd.ds.dom.At(horizon+period/2, link)
	run := func() {
		horizon += period
		if err := sim.world.Run(horizon, 1); err != nil {
			t.Fatal(err)
		}
	}
	round := func() {
		fd.ds.dom.At(horizon+period/2, answer)
		run()
	}
	run()
	for i := 0; i < 100; i++ {
		round()
	}

	const runs, batch = 20, 10
	idle := testing.AllocsPerRun(runs, func() {
		for i := 0; i < batch; i++ {
			run()
		}
	})
	for _, got := range kinds {
		*got = [wire.TChoke + 1]int{}
	}
	_, lostBefore, _, _ := sim.world.NetStats()
	allocs := testing.AllocsPerRun(runs, func() {
		for i := 0; i < batch; i++ {
			round()
		}
	})
	_, lost, _, _ := sim.world.NetStats()
	lost -= lostBefore
	const rounds = (runs + 1) * batch
	nearGot, farGot := kinds[near], kinds[far]
	for _, c := range []struct {
		what      string
		got, want int
	}{
		{"handshake acks", nearGot[wire.THandshakeAck], rounds},
		{"referral replies", nearGot[wire.TPeerListReply], rounds},
		{"pongs", nearGot[wire.TPong], rounds},
		{"declines", nearGot[wire.TDataReply], rounds},
		// The piggyback, the round's announce and the periodic one.
		{"buffer maps near", nearGot[wire.TBufferMap], 3 * rounds},
		{"buffer maps far", farGot[wire.TBufferMap], 2 * rounds},
	} {
		if c.got > c.want || c.got+int(lost) < c.want {
			t.Errorf("%d %s over %d rounds with %d datagrams lost, want %d", c.got, c.what, rounds, lost, c.want)
		}
	}
	t.Logf("%d idle World.Runs: %.0f allocs; as %d rounds: %.0f", batch, idle, batch, allocs)
	if got := allocs - idle; got != 0 {
		t.Errorf("%d flow message rounds allocate %.2f objects beyond %d idle World.Runs (%.0f), want 0", batch, got, batch, idle)
	}
}

// TestFlowMemberBytes pins what a flow member costs end to end: the live heap
// a 200 k-member world adds over an empty process, per member, after warm-up.
// By the layout it is 135 B — the 80-byte host, its 8-byte table slot, 47
// bytes of swarm rows — plus the world's fixed parts spread over the members.
func TestFlowMemberBytes(t *testing.T) {
	sc := Scenario{
		Name: "flow-member-bytes",
		Seed: 7,
		Spec: smallScenario(7).Spec,
		Viewers: workload.Population{
			isp.TELE:    140_000,
			isp.CNC:     40_000,
			isp.CER:     6_000,
			isp.OtherCN: 14_000,
		},
		Probes:   []ProbeSpec{{Name: "tele-probe", ISP: isp.TELE}},
		Fidelity: peer.FidelityFlow,
		Churn:    workload.DefaultChurn(),
		Shards:   12,
		WarmUp:   time.Minute,
		Watch:    time.Minute,
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sim, err := Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.world.Run(sc.WarmUp+10*time.Second, 1); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	alive := sim.FlowAlive()
	if alive < 190_000 {
		t.Fatalf("%d members alive past warm-up, want about 200000", alive)
	}
	perMember := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(alive)
	t.Logf("flow member: %.1f B of live heap each (%d alive, heap %d -> %d MB)",
		perMember, alive, before.HeapAlloc>>20, after.HeapAlloc>>20)
	if perMember > 165 {
		t.Errorf("a flow member costs %.1f B of live heap, want <= 165", perMember)
	}
	runtime.KeepAlive(sim)
}

// TestMillionPeerSmoke is the scale gate: a million-plus flow members on the
// 12-domain scaled partition (>=100k per TELE sub-shard), bounded heap, in
// one CI-sized run. Gated behind PPLIVE_MILLION=1 — it needs a few seconds
// and a quarter of a GB.
func TestMillionPeerSmoke(t *testing.T) {
	if os.Getenv("PPLIVE_MILLION") == "" {
		t.Skip("set PPLIVE_MILLION=1 to run the million-peer smoke test")
	}
	sc := Scenario{
		Name: "million-smoke",
		Seed: 7,
		Spec: smallScenario(7).Spec,
		Viewers: workload.Population{
			isp.TELE:    700_000,
			isp.CNC:     200_000,
			isp.CER:     30_000,
			isp.OtherCN: 70_000,
			isp.Foreign: 50_000,
		},
		Probes:        []ProbeSpec{{Name: "tele-probe", ISP: isp.TELE}},
		Fidelity:      peer.FidelityFlow,
		Churn:         workload.DefaultChurn(),
		Shards:        12,
		ArrivalWindow: 2 * time.Minute,
		WarmUp:        3 * time.Minute,
		Watch:         5 * time.Minute,
	}
	sim, err := Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	// Every TELE sub-shard must own a >=100k slice of the population.
	teleShards := 0
	for _, fd := range sim.flows {
		if fd.category == isp.TELE {
			teleShards++
			if fd.initial < 100_000 {
				t.Errorf("TELE sub-shard %s holds %d members, want >= 100000", fd.ds.dom.Name(), fd.initial)
			}
		}
	}
	if teleShards != 7 {
		t.Errorf("TELE swarm split across %d sub-shards, want 7", teleShards)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.PeersSpawned < 1_050_000 {
		t.Errorf("spawned %d members, want >= 1050000", res.PeersSpawned)
	}
	if alive := sim.FlowAlive(); alive < 1_000_000 {
		t.Errorf("alive at horizon = %d, want >= 1000000 (churn replaces departures)", alive)
	}
	cont := res.Probes[0].Client.BufferStats().Continuity()
	if cont < 0.9 {
		t.Errorf("probe continuity = %.3f, want >= 0.9", cont)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	// Measured HeapAlloc here is 159.9 MB (152.5 MiB) in each of five runs
	// (193.6 MB while a host carried four write-only traffic counters, 271-285
	// MB while a member was a 160-byte cell with a handle and 24-byte address
	// rows); the limit is the highest of them times 1.25, rounded down to a
	// whole MiB.
	const heapLimit = 190 << 20
	if ms.HeapAlloc > heapLimit {
		t.Errorf("heap alloc %d bytes exceeds %d", ms.HeapAlloc, uint64(heapLimit))
	}
	t.Logf("million-smoke: spawned=%d alive=%d events=%d continuity=%.4f heap_mb=%d",
		res.PeersSpawned, sim.FlowAlive(), res.EventsProcessed, cont, ms.HeapAlloc>>20)
}
