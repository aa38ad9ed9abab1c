package peer

import (
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"pplivesim/internal/stream"
	"pplivesim/internal/wire"
)

// flowTestPort records swarm output without touching a network. The
// zero-alloc tick test swaps in countPort below, which allocates nothing.
type flowTestPort struct {
	now      time.Duration
	backlog  time.Duration
	sent     []flowSent
	retired  []int
	respawns int
}

type flowSent struct {
	member int
	to     netip.Addr
	msg    wire.Message
}

func (p *flowTestPort) Now() time.Duration { return p.now }
func (p *flowTestPort) Send(i int, to netip.Addr, msg wire.Message) {
	p.sent = append(p.sent, flowSent{member: i, to: to, msg: msg})
}
func (p *flowTestPort) UplinkBacklog(int) time.Duration { return p.backlog }
func (p *flowTestPort) Retire(i int)                    { p.retired = append(p.retired, i) }
func (p *flowTestPort) Respawn(time.Duration)           { p.respawns++ }

func flowTestSpec() stream.Spec { return stream.DefaultSpec(1, "flow-test", 500) }

func newTestSwarm(t *testing.T, port *flowTestPort, members int) *FlowSwarm {
	t.Helper()
	cfg := DefaultFlowConfig(flowTestSpec())
	s, err := NewFlowSwarm(cfg, port, rand.New(rand.NewSource(1)), nil, members)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < members; i++ {
		s.Add(netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)}))
	}
	return s
}

func probeAddr() netip.Addr { return netip.AddrFrom4([4]byte{192, 0, 2, 1}) }

func (p *flowTestPort) lastMsg(t *testing.T) wire.Message {
	t.Helper()
	if len(p.sent) == 0 {
		t.Fatal("no message sent")
	}
	return p.sent[len(p.sent)-1].msg
}

func TestFlowSwarmHandshakeAndBufferMap(t *testing.T) {
	// Members join at t=0 (flow swarms spawn fully formed); the probe shows
	// up two minutes in, once holdings exist.
	port := &flowTestPort{}
	s := newTestSwarm(t, port, 4)
	port.now = 2 * time.Minute
	spec := flowTestSpec()

	s.Handle(0, probeAddr(), &wire.Handshake{Channel: spec.Channel})
	ack, ok := port.lastMsg(t).(*wire.HandshakeAck)
	if !ok || !ack.Accepted {
		t.Fatalf("handshake not accepted: %#v", port.lastMsg(t))
	}
	lo, hi, held := s.holdings(0, port.now)
	if !held {
		t.Fatal("member 0 should hold pieces two minutes in")
	}
	for _, seq := range []uint64{lo, (lo + hi) / 2, hi} {
		if !ack.Buffer.Has(seq) {
			t.Errorf("ack buffer map missing held seq %d (holdings [%d,%d])", seq, lo, hi)
		}
	}
	if ack.Buffer.Has(hi + 1) {
		t.Errorf("ack buffer map claims unheld seq %d", hi+1)
	}
	edge := spec.EdgeSeq(port.now)
	if hi >= edge {
		t.Errorf("newest held %d not behind live edge %d", hi, edge)
	}

	// A second handshake from the same probe reuses the link; a dead member
	// never answers.
	links := len(s.links)
	s.Handle(0, probeAddr(), &wire.Handshake{Channel: spec.Channel})
	if len(s.links) != links {
		t.Errorf("repeat handshake grew the link table: %d -> %d", links, len(s.links))
	}
	s.retire(1)
	n := len(port.sent)
	s.Handle(1, probeAddr(), &wire.Handshake{Channel: spec.Channel})
	if len(port.sent) != n {
		t.Error("retired member answered a handshake")
	}
}

func TestFlowSwarmDataRequestSemantics(t *testing.T) {
	port := &flowTestPort{}
	s := newTestSwarm(t, port, 2)
	port.now = 2 * time.Minute
	spec := flowTestSpec()
	s.Handle(0, probeAddr(), &wire.Handshake{Channel: spec.Channel})
	lo, hi, _ := s.holdings(0, port.now)

	// Held run: reply echoes Seq with the contiguous run capped at Count.
	s.Handle(0, probeAddr(), &wire.DataRequest{Channel: spec.Channel, Seq: lo, Count: 4})
	rep := port.lastMsg(t).(*wire.DataReply)
	if rep.Seq != lo || rep.Count != 4 || rep.Busy {
		t.Fatalf("serve reply = %+v, want seq %d count 4", rep, lo)
	}
	if rep.PieceLen != uint16(spec.SubPieceLen) {
		t.Errorf("piece len %d, want %d", rep.PieceLen, spec.SubPieceLen)
	}

	// The run is truncated at the newest held piece.
	s.Handle(0, probeAddr(), &wire.DataRequest{Channel: spec.Channel, Seq: hi, Count: 8})
	if rep := port.lastMsg(t).(*wire.DataReply); rep.Count != 1 {
		t.Errorf("run past newest held = %d, want 1", rep.Count)
	}

	// A miss declines with Count 0 and piggybacks one rate-limited
	// buffer-map announce on the link.
	port.now += 2 * time.Second
	s.Handle(0, probeAddr(), &wire.DataRequest{Channel: spec.Channel, Seq: hi + 100, Count: 1})
	last := port.sent[len(port.sent)-2:]
	if rep := last[0].msg.(*wire.DataReply); rep.Count != 0 || rep.Busy {
		t.Fatalf("miss reply = %+v, want count 0 not busy", rep)
	}
	if _, ok := last[1].msg.(*wire.BufferMapAnnounce); !ok {
		t.Fatalf("miss should piggyback a buffer map, got %T", last[1].msg)
	}
	n := len(port.sent)
	s.Handle(0, probeAddr(), &wire.DataRequest{Channel: spec.Channel, Seq: hi + 100, Count: 1})
	if got := len(port.sent) - n; got != 1 {
		t.Errorf("immediate second miss sent %d messages, want 1 (announce is rate-limited)", got)
	}

	// Uplink pressure sheds with Busy.
	port.backlog = 10 * time.Second
	s.Handle(0, probeAddr(), &wire.DataRequest{Channel: spec.Channel, Seq: lo, Count: 1})
	if rep := port.lastMsg(t).(*wire.DataReply); !rep.Busy || rep.Count != 0 {
		t.Errorf("backlogged reply = %+v, want busy decline", rep)
	}
}

func TestFlowSwarmChurnAndKill(t *testing.T) {
	port := &flowTestPort{}
	cfg := DefaultFlowConfig(flowTestSpec())
	cfg.MeanSession = 100 * time.Second
	cfg.ReplacementDelay = 5 * time.Second
	s, err := NewFlowSwarm(cfg, port, rand.New(rand.NewSource(2)), nil, 200)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		s.Add(netip.AddrFrom4([4]byte{10, 1, byte(i >> 8), byte(i)}))
	}
	// 50 seconds at mean session 100s: about half the population departs,
	// each departure requesting exactly one replacement.
	for step := 0; step < 50; step++ {
		port.now += time.Second
		s.Tick(port.now)
	}
	if got := len(port.retired); got < 60 || got > 140 {
		t.Errorf("departures after 50s/100s mean = %d, want ~100", got)
	}
	if port.respawns != len(port.retired) {
		t.Errorf("respawns %d != departures %d", port.respawns, len(port.retired))
	}
	if s.Alive() != 200-len(port.retired) {
		t.Errorf("alive %d, want %d", s.Alive(), 200-len(port.retired))
	}

	// Kill-churn retires without replacement, and recycled rows rejoin.
	before := s.Alive()
	killed := s.KillFraction(0.5)
	if killed == 0 || s.Alive() != before-killed {
		t.Fatalf("killed %d, alive %d (was %d)", killed, s.Alive(), before)
	}
	if port.respawns != len(port.retired)-killed {
		t.Errorf("kill must not respawn: respawns %d, departures %d, killed %d", port.respawns, len(port.retired), killed)
	}
	rows := s.Len()
	i := s.Add(netip.AddrFrom4([4]byte{10, 2, 0, 1}))
	if s.Len() != rows {
		t.Errorf("rejoin allocated a new row (len %d -> %d), want recycled", rows, s.Len())
	}
	if !s.alive[i] {
		t.Error("rejoined member not alive")
	}
}

func TestFlowSwarmTrackerAnnounceSample(t *testing.T) {
	port := &flowTestPort{}
	cfg := DefaultFlowConfig(flowTestSpec())
	trackers := []netip.Addr{
		netip.AddrFrom4([4]byte{198, 51, 100, 1}),
		netip.AddrFrom4([4]byte{198, 51, 100, 2}),
	}
	const members = flowTrackerSample + 10
	s, err := NewFlowSwarm(cfg, port, rand.New(rand.NewSource(3)), trackers, members)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < members; i++ {
		s.Add(netip.AddrFrom4([4]byte{10, 3, byte(i >> 8), byte(i)}))
	}
	s.AnnounceTrackers()
	if len(port.sent) != flowTrackerSample {
		t.Fatalf("announced %d members, want sample of %d", len(port.sent), flowTrackerSample)
	}
	for k, m := range port.sent {
		if _, ok := m.msg.(*wire.TrackerAnnounce); !ok {
			t.Fatalf("sent %T, want TrackerAnnounce", m.msg)
		}
		if m.to != trackers[k%len(trackers)] {
			t.Errorf("announce %d went to %s, want rotation over the tracker set", k, m.to)
		}
	}
}

// countPort is a FlowPort that allocates nothing, for the alloc gate.
type countPort struct {
	now      time.Duration
	retired  int
	respawns int
}

func (p *countPort) Now() time.Duration                 { return p.now }
func (p *countPort) Send(int, netip.Addr, wire.Message) {}
func (p *countPort) UplinkBacklog(int) time.Duration    { return 0 }
func (p *countPort) Retire(int)                         { p.retired++ }
func (p *countPort) Respawn(time.Duration)              { p.respawns++ }

// TestFlowTickZeroAlloc is the CI gate on the SoA design: advancing a
// churning swarm allocates nothing, no matter how many members it has.
func TestFlowTickZeroAlloc(t *testing.T) {
	port := &countPort{}
	cfg := DefaultFlowConfig(flowTestSpec())
	cfg.MeanSession = 30 * time.Minute
	cfg.ReplacementDelay = 30 * time.Second
	s, err := NewFlowSwarm(cfg, port, rand.New(rand.NewSource(4)), nil, 10000)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		s.Add(netip.AddrFrom4([4]byte{10, 4, byte(i >> 8), byte(i)}))
	}
	allocs := testing.AllocsPerRun(1000, func() {
		port.now += time.Second
		s.Tick(port.now)
	})
	if allocs != 0 {
		t.Errorf("flow tick allocates %.1f objects/op, want 0", allocs)
	}
}

func BenchmarkFlowTick(b *testing.B) {
	port := &countPort{}
	cfg := DefaultFlowConfig(flowTestSpec())
	cfg.MeanSession = 30 * time.Minute
	cfg.ReplacementDelay = 30 * time.Second
	s, err := NewFlowSwarm(cfg, port, rand.New(rand.NewSource(5)), nil, 100000)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 100000; i++ {
		s.Add(netip.AddrFrom4([4]byte{10, byte(5 + i>>16), byte(i >> 8), byte(i)}))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		port.now += time.Second
		s.Tick(port.now)
	}
}
