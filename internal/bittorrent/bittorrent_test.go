package bittorrent

import (
	"net/netip"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"pplivesim/internal/analysis"
	"pplivesim/internal/capture"
	"pplivesim/internal/isp"
	"pplivesim/internal/node"
	"pplivesim/internal/simnet"
	"pplivesim/internal/tracker"
	"pplivesim/internal/wire"
	"pplivesim/internal/workload"
)

// testSwarm is a one-domain world with a tracker, for the protocol tests.
type testSwarm struct {
	t       *testing.T
	world   *simnet.World
	tracker netip.Addr
}

func newTestSwarm(t *testing.T) *testSwarm {
	t.Helper()
	w := simnet.NewWorld(1)
	env, err := w.Spawn(simnet.HostSpec{ISP: isp.TELE, UploadBps: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	env.SetHandler(tracker.NewServer(env))
	return &testSwarm{t: t, world: w, tracker: env.Addr()}
}

// join spawns a started TELE peer.
func (s *testSwarm) join(up float64, seed bool) (*Peer, *simnet.Env) {
	s.t.Helper()
	env, err := s.world.Spawn(simnet.HostSpec{ISP: isp.TELE, UploadBps: up})
	if err != nil {
		s.t.Fatal(err)
	}
	p := NewPeer(env, s.tracker, seed)
	env.SetHandler(p)
	p.Start()
	return p, env
}

// instrument taps env as a probe whose source is the seed at seed.
func (s *testSwarm) instrument(env *simnet.Env, seed netip.Addr) (*analysis.Aggregate, *capture.Aggregator) {
	return analysis.Instrument(env, s.world.Registry, seed, map[netip.Addr]bool{s.tracker: true}, nil, nil)
}

// run runs the world until the instant d.
func (s *testSwarm) run(d time.Duration) {
	s.t.Helper()
	if err := s.world.Run(d, 1); err != nil {
		s.t.Fatal(err)
	}
}

func TestSeedToSingleLeecher(t *testing.T) {
	s := newTestSwarm(t)
	seed, _ := s.join(2<<20, true)
	if !seed.Done() || seed.Progress() != 1 {
		t.Fatal("seed not complete at start")
	}
	leecher, env := s.join(1<<20, false)
	agg, matcher := s.instrument(env, seed.Addr())
	s.run(10 * time.Minute)
	if !leecher.Done() {
		t.Fatalf("leecher incomplete: progress %.2f", leecher.Progress())
	}
	matcher.Close()
	if got, want := agg.Report().SourceBytes, uint64(numPieces*pieceLen); got < want {
		t.Errorf("leecher got %d bytes from seed, want >= %d", got, want)
	}
}

func TestSwarmCompletesAndShares(t *testing.T) {
	s := newTestSwarm(t)
	seed, _ := s.join(1<<20, true)
	var leechers []*Peer
	var aggs []*analysis.Aggregate
	for i := 0; i < 12; i++ {
		p, env := s.join(96<<10, false)
		agg, _ := s.instrument(env, seed.Addr())
		leechers = append(leechers, p)
		aggs = append(aggs, agg)
	}
	s.run(30 * time.Minute)
	done := 0
	for _, p := range leechers {
		if p.Done() {
			done++
		}
	}
	if done < 10 {
		t.Errorf("only %d of 12 leechers completed", done)
	}
	peerToPeer := false
	for _, agg := range aggs {
		if agg.Report().BytesByISP[isp.TELE] > 0 {
			peerToPeer = true
		}
	}
	if !peerToPeer {
		t.Error("no peer-to-peer transfers observed (all load on seed)")
	}
}

func TestChokedPeerNotServed(t *testing.T) {
	s := newTestSwarm(t)
	seed, _ := s.join(2<<20, true)
	// A direct request from an unknown (never handshaked) address: the seed
	// must ignore it.
	stranger, err := s.world.Spawn(simnet.HostSpec{ISP: isp.TELE, UploadBps: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	received := 0
	stranger.SetHandler(node.HandlerFunc(func(_ netip.Addr, msg wire.Message) {
		if _, ok := msg.(*wire.DataReply); ok {
			received++
		}
	}))
	stranger.Send(seed.Addr(), &wire.DataRequest{Channel: channel, Seq: 0, Count: 1})
	s.run(time.Minute)
	if received != 0 {
		t.Errorf("stranger received %d pieces without unchoke", received)
	}
}

// idle spawns a TELE peer that is not started: it talks only when spoken to.
func (s *testSwarm) idle() *Peer {
	s.t.Helper()
	env, err := s.world.Spawn(simnet.HostSpec{ISP: isp.TELE, UploadBps: 1 << 20})
	if err != nil {
		s.t.Fatal(err)
	}
	p := NewPeer(env, s.tracker, false)
	env.SetHandler(p)
	return p
}

// TestRejectedHandshakeFreesSlot: a peer at its inbound cap rejects a
// handshake, and the dialer frees the slot at once, well before a lost dial
// would time out. A dial to an address nobody answers frees its slot after
// the timeout.
func TestRejectedHandshakeFreesSlot(t *testing.T) {
	s := newTestSwarm(t)
	full, dialer := s.idle(), s.idle()
	for i := 0; i < maxInbound; i++ {
		full.add(netip.AddrFrom4([4]byte{10, 0, 0, byte(i + 1)}))
	}
	dialer.dial([]netip.Addr{full.Addr()})
	if len(dialer.neighbors) != 1 {
		t.Fatalf("dialer holds %d neighbors after one dial, want 1", len(dialer.neighbors))
	}
	s.run(requestTimeout / 4)
	if len(dialer.neighbors) != 0 {
		t.Errorf("dialer holds %d neighbors after the rejection, want 0", len(dialer.neighbors))
	}
	if len(full.neighbors) != maxInbound {
		t.Errorf("full peer holds %d neighbors, want its cap %d", len(full.neighbors), maxInbound)
	}

	dialer.dial([]netip.Addr{netip.MustParseAddr("10.0.1.1")})
	s.run(requestTimeout / 2)
	if len(dialer.neighbors) != 1 {
		t.Fatalf("dialer holds %d neighbors while the dial is pending, want 1", len(dialer.neighbors))
	}
	s.run(2 * requestTimeout)
	if len(dialer.neighbors) != 0 {
		t.Errorf("dialer holds %d neighbors after the dial timed out, want 0", len(dialer.neighbors))
	}
}

// covers reports whether a's bitfield for b holds every piece b holds.
func covers(a, b *Peer) bool {
	nb := a.byAddr[b.Addr()]
	return nb != nil && !lacks(&nb.field, &b.have)
}

// TestDialerBitfieldReachesAcceptor: dialers that already hold pieces dial
// one peer under the default jitter, and each side learns the other's
// bitfield, however the datagrams of the handshake are reordered.
func TestDialerBitfieldReachesAcceptor(t *testing.T) {
	s := newTestSwarm(t)
	target := s.idle()
	for i := uint64(0); i < numPieces; i += 3 {
		target.have.Set(i)
	}
	var dialers []*Peer
	for i := 0; i < 20; i++ {
		d := s.idle()
		for j := uint64(i); j < numPieces; j += 7 {
			d.have.Set(j)
		}
		d.dial([]netip.Addr{target.Addr()})
		dialers = append(dialers, d)
	}
	s.run(requestTimeout / 2)
	for i, d := range dialers {
		if nb := d.byAddr[target.Addr()]; nb == nil || nb.dialing {
			t.Errorf("dialer %d: no live relationship with the target", i)
			continue
		}
		if !covers(target, d) {
			t.Errorf("dialer %d: the target's bitfield for it misses pieces it holds", i)
		}
		if !covers(d, target) {
			t.Errorf("dialer %d: its bitfield for the target misses pieces the target holds", i)
		}
	}
}

// TestOneSidedNeighborIsReset: a peer that holds a neighbor which does not
// hold it back, because the answer to that neighbor's dial was lost or came
// after the dial timed out, is reset by the first message it sends there.
// A late acceptance is taken up again when the dialer has a slot free.
func TestOneSidedNeighborIsReset(t *testing.T) {
	s := newTestSwarm(t)
	seed, _ := s.join(2<<20, true)
	ghost := s.idle()
	seed.add(ghost.Addr())
	seed.rechoke() // unchokes the ghost, which lacks every piece
	s.run(1 * time.Second)
	if seed.byAddr[ghost.Addr()] != nil {
		t.Error("the seed still holds a neighbor that does not hold it")
	}

	// A late acceptance reaches a dialer whose slots have filled meanwhile.
	acceptor, full := s.idle(), s.idle()
	for i := 0; i < maxNeighbors; i++ {
		full.add(netip.AddrFrom4([4]byte{10, 0, 0, byte(i + 1)}))
	}
	acceptor.accept(full.Addr())
	s.run(2 * time.Second)
	if acceptor.byAddr[full.Addr()] != nil || full.byAddr[acceptor.Addr()] != nil {
		t.Error("a late acceptance to a full dialer left a one-sided neighbor")
	}

	// And one whose dialer has room.
	dialer := s.idle()
	dialer.have.Set(7)
	acceptor.accept(dialer.Addr())
	s.run(3 * time.Second)
	if nb := dialer.byAddr[acceptor.Addr()]; nb == nil || nb.dialing {
		t.Error("a late acceptance to a dialer with room was not taken up")
	}
	if !covers(acceptor, dialer) {
		t.Error("the acceptor did not learn the late dialer's bitfield")
	}
}

// TestBaselineWorkerInvariance runs a small swarm across the six domains at
// one and at four workers: the probe's report must be the same.
func TestBaselineWorkerInvariance(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	viewers := workload.Population{isp.TELE: 6, isp.CNC: 3, isp.CER: 1, isp.OtherCN: 1, isp.Foreign: 1}
	var results [2]*Result
	for i, workers := range []int{1, 4} {
		res, err := RunLocality(11, viewers, isp.TELE, 5*time.Minute, workers)
		if err != nil {
			t.Fatal(err)
		}
		results[i] = res
	}
	if results[0].Report.SourceBytes == 0 || len(results[0].Report.BytesByISP) == 0 {
		t.Fatalf("probe downloaded nothing: %+v", results[0])
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Errorf("1 and 4 workers differ:\n%+v\n%+v", results[0], results[1])
	}
}

func TestRunLocalityBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-minute swarms")
	}
	viewers := workload.Population{
		isp.TELE: 24, isp.CNC: 12, isp.CER: 3, isp.OtherCN: 4, isp.Foreign: 5,
	}
	// The tracker samples every registered peer uniformly, so the TELE share
	// of the addresses it returns is the population's (the seed counts as
	// TELE; the probe never sees itself).
	share := float64(viewers[isp.TELE]+1) / float64(viewers.Total()+1)
	const band = 0.08
	var localities []float64
	for seed := int64(1); seed <= 5; seed++ {
		res, err := RunLocality(seed, viewers, isp.TELE, 20*time.Minute, runtime.GOMAXPROCS(0))
		if err != nil {
			t.Fatal(err)
		}
		rep := res.Report
		if res.Progress < 0.5 {
			t.Fatalf("seed %d: probe progress %.2f too low for the test to be meaningful", seed, res.Progress)
		}
		if len(rep.BytesByISP) == 0 {
			t.Fatalf("seed %d: probe downloaded nothing from peers", seed)
		}
		if d := rep.PotentialLocality - share; d < -band || d > band {
			t.Errorf("seed %d: potential locality %.3f, want within %.2f of the TELE share %.3f", seed, rep.PotentialLocality, band, share)
		}
		// Tracker-only discovery: every list the probe got came from the
		// tracker, and it never exchanged a peer list.
		for src := range rep.ReturnedBySource {
			if !src.Tracker {
				t.Errorf("seed %d: a list from %s", seed, src.Label())
			}
		}
		if len(rep.ListRT) != 0 || rep.UnansweredLists != 0 {
			t.Errorf("seed %d: peer-list exchanges %v, %d unanswered", seed, rep.ListRT, rep.UnansweredLists)
		}
		localities = append(localities, rep.TrafficLocality)
	}
	// Random selection: traffic locality should track the population share
	// (≈50% TELE) rather than amplify above it the way the referral+latency
	// system does. Single draws spread widely, so the bound is on the
	// median; it must stay far below the ~0.9 the streaming system reaches.
	sort.Float64s(localities)
	if median := localities[len(localities)/2]; median > 0.75 {
		t.Errorf("baseline median locality %.3f suspiciously high for random selection (%v)", median, localities)
	}
}
