package cdn

import (
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"pplivesim/internal/isp"
	"pplivesim/internal/node"
	"pplivesim/internal/peer"
	"pplivesim/internal/stream"
	"pplivesim/internal/wire"
)

// fakeEnv is a minimal node.Env for direct Edge tests: a settable clock and
// uplink backlog plus a captured outbox.
type fakeEnv struct {
	addr    netip.Addr
	now     time.Duration
	backlog time.Duration
	rng     *rand.Rand
	sent    []struct {
		to  netip.Addr
		msg wire.Message
	}
}

func newFakeEnv() *fakeEnv {
	return &fakeEnv{
		addr: netip.AddrFrom4([4]byte{61, 200, 0, 1}),
		rng:  rand.New(rand.NewSource(7)),
	}
}

func (e *fakeEnv) Addr() netip.Addr   { return e.addr }
func (e *fakeEnv) Now() time.Duration { return e.now }
func (e *fakeEnv) After(d time.Duration, fn func()) node.Cancel {
	return func() bool { return false }
}
func (e *fakeEnv) Every(d time.Duration, fn func()) node.Cancel {
	return func() bool { return false }
}
func (e *fakeEnv) Rand() *rand.Rand { return e.rng }
func (e *fakeEnv) Send(to netip.Addr, msg wire.Message) {
	e.sent = append(e.sent, struct {
		to  netip.Addr
		msg wire.Message
	}{to, msg})
}
func (e *fakeEnv) UplinkBacklog() time.Duration { return e.backlog }

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  *Config
		ok   bool
	}{
		{"nil config", nil, true},
		{"empty config", &Config{}, true},
		{"valid placements", &Config{Placements: []Placement{
			{ISP: isp.TELE, Count: 2}, {ISP: isp.CNC, Count: 1, UplinkBps: 1 << 20},
		}}, true},
		{"invalid ISP", &Config{Placements: []Placement{{ISP: isp.ISP(99), Count: 1}}}, false},
		{"duplicate ISP", &Config{Placements: []Placement{
			{ISP: isp.TELE, Count: 1}, {ISP: isp.TELE, Count: 1},
		}}, false},
		{"negative count", &Config{Placements: []Placement{{ISP: isp.TELE, Count: -1}}}, false},
		{"count over cap", &Config{Placements: []Placement{{ISP: isp.TELE, Count: 33}}}, false},
		{"negative uplink", &Config{Placements: []Placement{{ISP: isp.TELE, Count: 1, UplinkBps: -1}}}, false},
	}
	for _, tc := range cases {
		if err := tc.cfg.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestConfigEnabled(t *testing.T) {
	var nilCfg *Config
	if nilCfg.Enabled() {
		t.Error("nil config reports enabled")
	}
	if (&Config{}).Enabled() {
		t.Error("empty config reports enabled")
	}
	if (&Config{Placements: []Placement{{ISP: isp.TELE, Count: 0}}}).Enabled() {
		t.Error("zero-count placement reports enabled")
	}
	if !(&Config{Placements: []Placement{{ISP: isp.TELE, Count: 1}}}).Enabled() {
		t.Error("provisioned config reports disabled")
	}
}

func TestPlacementUplinkDefault(t *testing.T) {
	if got := (Placement{ISP: isp.TELE, Count: 1}).Uplink(); got != DefaultUplinkBps {
		t.Errorf("zero uplink resolves to %v, want %v", got, DefaultUplinkBps)
	}
	if got := (Placement{ISP: isp.TELE, Count: 1, UplinkBps: 123}).Uplink(); got != 123 {
		t.Errorf("explicit uplink resolves to %v, want 123", got)
	}
}

// edgeRig is an Edge with one registered channel and a controllable clock.
func edgeRig(t *testing.T) (*fakeEnv, *Edge, stream.Spec) {
	t.Helper()
	env := newFakeEnv()
	e := NewEdge(env)
	spec := stream.DefaultSpec(1, "popular-live", 950_000)
	if err := e.AddChannel(spec); err != nil {
		t.Fatal(err)
	}
	return env, e, spec
}

func TestEdgeServesPrefixRun(t *testing.T) {
	env, e, spec := edgeRig(t)
	env.now = 10 * time.Second
	edge := spec.EdgeSeq(env.now)
	peer := netip.AddrFrom4([4]byte{58, 40, 0, 1})

	e.HandleMessage(peer, &wire.DataRequest{Channel: 1, Seq: edge - 3, Count: 16})
	if len(env.sent) != 1 {
		t.Fatalf("sent %d messages, want 1", len(env.sent))
	}
	rep := env.sent[0].msg.(*wire.DataReply)
	if rep.Busy || rep.Seq != edge-3 || int(rep.Count) != 4 {
		t.Errorf("reply = %+v, want 4-piece run up to live edge %d", rep, edge)
	}
	served, bytes, shed := e.Stats()
	if served != 1 || bytes != uint64(4*spec.SubPieceLen) || shed != 0 {
		t.Errorf("stats = (%d, %d, %d), want (1, %d, 0)", served, bytes, shed, 4*spec.SubPieceLen)
	}

	// Beyond the live edge: no reply at all (same as the source).
	e.HandleMessage(peer, &wire.DataRequest{Channel: 1, Seq: edge + 100, Count: 1})
	if len(env.sent) != 1 {
		t.Error("edge answered a request beyond its live edge")
	}
	// Unknown channel: ignored.
	e.HandleMessage(peer, &wire.DataRequest{Channel: 9, Seq: 0, Count: 1})
	if len(env.sent) != 1 {
		t.Error("edge answered an unregistered channel")
	}
}

func TestEdgeShedsWhenSaturated(t *testing.T) {
	env, e, spec := edgeRig(t)
	env.now = 10 * time.Second
	env.backlog = 3 * time.Second
	peer := netip.AddrFrom4([4]byte{58, 40, 0, 1})

	e.HandleMessage(peer, &wire.DataRequest{Channel: 1, Seq: 0, Count: 16})
	if len(env.sent) != 1 {
		t.Fatalf("sent %d messages, want 1 Busy reply", len(env.sent))
	}
	rep := env.sent[0].msg.(*wire.DataReply)
	if !rep.Busy || rep.Count != 0 || int(rep.PieceLen) != spec.SubPieceLen {
		t.Errorf("reply = %+v, want tiny Busy shed", rep)
	}
	if _, _, shed := e.Stats(); shed != 1 {
		t.Errorf("shed = %d, want 1", shed)
	}
}

func TestEdgeDownDropsEverything(t *testing.T) {
	env, e, _ := edgeRig(t)
	env.now = 10 * time.Second
	peer := netip.AddrFrom4([4]byte{58, 40, 0, 1})

	e.SetDown(true)
	e.HandleMessage(peer, &wire.Handshake{Channel: 1})
	e.HandleMessage(peer, &wire.DataRequest{Channel: 1, Seq: 0, Count: 1})
	e.HandleMessage(peer, &wire.Ping{Channel: 1, Nonce: 7})
	if len(env.sent) != 0 {
		t.Fatalf("down edge sent %d messages", len(env.sent))
	}

	// Recovery: the ingest clock never stopped, so the cache is warm at the
	// current live edge immediately.
	e.SetDown(false)
	env.now = 20 * time.Second
	e.HandleMessage(peer, &wire.Handshake{Channel: 1})
	ack := env.sent[0].msg.(*wire.HandshakeAck)
	if !ack.Accepted {
		t.Fatal("recovered edge rejected handshake")
	}
	if !e.Has(1, e.channel(1).Edge(env.now), env.now) {
		t.Error("recovered edge is not at the live edge")
	}
}

// TestEdgeTakeoverClock pins the out-of-band ingest semantics: the edge's
// per-channel clock starts at AddChannel and advances regardless of source
// state, so a channel registered at t=0 serves sequence spec.EdgeSeq(now)
// even if the origin has been down the whole time.
func TestEdgeTakeoverClock(t *testing.T) {
	env := newFakeEnv()
	env.now = 5 * time.Second
	e := NewEdge(env)
	spec := stream.DefaultSpec(1, "late-registered", 100)
	if err := e.AddChannel(spec); err != nil {
		t.Fatal(err)
	}
	env.now = 15 * time.Second
	// Registered at t=5s, so the edge's live edge is 10 seconds of stream.
	want := spec.EdgeSeq(10 * time.Second)
	if !e.Has(1, want, env.now) {
		t.Errorf("edge lacks sequence %d ten seconds after registration", want)
	}
	if e.Has(1, spec.EdgeSeq(20*time.Second)+1, env.now) {
		t.Error("edge claims sequences beyond its ingest clock")
	}
}

func TestEdgeHandshakeAndPing(t *testing.T) {
	env, e, _ := edgeRig(t)
	env.now = 30 * time.Second
	peer := netip.AddrFrom4([4]byte{58, 40, 0, 1})

	e.HandleMessage(peer, &wire.Handshake{Channel: 1})
	ack := env.sent[0].msg.(*wire.HandshakeAck)
	if !ack.Accepted || ack.Channel != 1 {
		t.Fatalf("ack = %+v", ack)
	}
	if edge := e.channel(1).Edge(env.now); !ack.Buffer.Has(edge) {
		t.Errorf("handshake buffer map lacks the live edge %d; edge should advertise its trailing window", edge)
	}

	e.HandleMessage(peer, &wire.Ping{Channel: 1, Nonce: 42})
	pong := env.sent[1].msg.(*wire.Pong)
	if pong.Nonce != 42 {
		t.Errorf("pong nonce = %d, want 42", pong.Nonce)
	}

	// Handshake for an unregistered channel is dropped.
	e.HandleMessage(peer, &wire.Handshake{Channel: 9})
	if len(env.sent) != 2 {
		t.Error("edge acked an unregistered channel")
	}
}

// TestEdgeAnswersLikeSource drives one request script through a peer.Source
// and a one-channel Edge, each on its own clock-controlled host: the two run
// the same origin server, so every reply and both serve counters must be
// identical. What stays different is outside the script: the source's
// referral list and the edge's channel set.
func TestEdgeAnswersLikeSource(t *testing.T) {
	spec := stream.DefaultSpec(1, "popular-live", 950_000)
	srcEnv, edgeEnv := newFakeEnv(), newFakeEnv()
	src, err := peer.NewSource(srcEnv, spec)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEdge(edgeEnv)
	if err := e.AddChannel(spec); err != nil {
		t.Fatal(err)
	}
	client := netip.AddrFrom4([4]byte{58, 40, 0, 1})
	edge := spec.EdgeSeq(10 * time.Second)
	script := []struct {
		name    string
		backlog time.Duration
		down    bool
		msg     wire.Message
		replies int // cumulative replies after this step
	}{
		{name: "handshake", msg: &wire.Handshake{Channel: 1}, replies: 1},
		{name: "in-range run", msg: &wire.DataRequest{Channel: 1, Seq: 5, Count: 4}, replies: 2},
		{name: "run truncated at the live edge", msg: &wire.DataRequest{Channel: 1, Seq: edge - 1, Count: 4}, replies: 3},
		{name: "future seq", msg: &wire.DataRequest{Channel: 1, Seq: edge + 10, Count: 1}, replies: 3},
		{name: "wrong channel", msg: &wire.DataRequest{Channel: 9, Seq: 0, Count: 1}, replies: 3},
		{name: "saturated uplink", backlog: 3 * time.Second, msg: &wire.DataRequest{Channel: 1, Seq: 5, Count: 4}, replies: 4},
		{name: "down", down: true, msg: &wire.DataRequest{Channel: 1, Seq: 5, Count: 4}, replies: 4},
		{name: "ping", msg: &wire.Ping{Channel: 1, Nonce: 42}, replies: 5},
	}
	for _, step := range script {
		for _, env := range []*fakeEnv{srcEnv, edgeEnv} {
			env.now, env.backlog = 10*time.Second, step.backlog
		}
		src.SetDown(step.down)
		e.SetDown(step.down)
		src.HandleMessage(client, step.msg)
		e.HandleMessage(client, step.msg)
		if len(srcEnv.sent) != step.replies || len(edgeEnv.sent) != step.replies {
			t.Fatalf("%s: source has sent %d replies, edge %d, want %d", step.name, len(srcEnv.sent), len(edgeEnv.sent), step.replies)
		}
	}
	if !reflect.DeepEqual(srcEnv.sent, edgeEnv.sent) {
		t.Errorf("replies differ\nsource: %+v\n  edge: %+v", srcEnv.sent, edgeEnv.sent)
	}
	truncated := edgeEnv.sent[2].msg.(*wire.DataReply)
	if truncated.Seq != edge-1 || truncated.Count != 2 || truncated.Busy {
		t.Errorf("truncated run = %+v, want 2 pieces from %d", truncated, edge-1)
	}
	if busy := edgeEnv.sent[3].msg.(*wire.DataReply); !busy.Busy || busy.Count != 0 {
		t.Errorf("saturated reply = %+v, want an empty Busy", busy)
	}
	srcServed, srcBytes := src.Stats()
	served, bytes, shed := e.Stats()
	if srcServed != served || srcBytes != bytes || served != 2 || bytes != uint64(6*spec.SubPieceLen) || shed != 1 {
		t.Errorf("counters: source (%d, %d), edge (%d, %d, shed %d); want (2, %d) and shed 1",
			srcServed, srcBytes, served, bytes, shed, 6*spec.SubPieceLen)
	}
}
