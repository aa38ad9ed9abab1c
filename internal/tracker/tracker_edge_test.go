package tracker

import (
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"pplivesim/internal/isp"
	"pplivesim/internal/node"
	"pplivesim/internal/selection"
	"pplivesim/internal/wire"
)

// countingSource wraps a rand.Source64 and counts every draw, so tests can
// pin exactly how much randomness a code path consumed.
type countingSource struct {
	src   rand.Source64
	draws int
}

func (c *countingSource) Int63() int64 { c.draws++; return c.src.Int63() }

func (c *countingSource) Uint64() uint64 { c.draws++; return c.src.Uint64() }

func (c *countingSource) Seed(s int64) { c.src.Seed(s) }

// fakeEnv is a minimal node.Env for direct handler tests: a settable clock,
// a captured outbox, and a draw-counting RNG.
type fakeEnv struct {
	addr netip.Addr
	now  time.Duration
	rng  *rand.Rand
	src  *countingSource
	sent []struct {
		to  netip.Addr
		msg wire.Message
	}
}

func newFakeEnv(seed int64) *fakeEnv {
	src := &countingSource{src: rand.NewSource(seed).(rand.Source64)}
	return &fakeEnv{
		addr: netip.AddrFrom4([4]byte{61, 0, 0, 1}),
		rng:  rand.New(src),
		src:  src,
	}
}

func (e *fakeEnv) Addr() netip.Addr { return e.addr }

func (e *fakeEnv) Now() time.Duration { return e.now }

func (e *fakeEnv) After(d time.Duration, fn func()) node.Cancel { return func() bool { return false } }

func (e *fakeEnv) Every(d time.Duration, fn func()) node.Cancel { return func() bool { return false } }

func (e *fakeEnv) Rand() *rand.Rand { return e.rng }

func (e *fakeEnv) Send(to netip.Addr, msg wire.Message) {
	e.sent = append(e.sent, struct {
		to  netip.Addr
		msg wire.Message
	}{to, msg})
}

func (e *fakeEnv) UplinkBacklog() time.Duration { return 0 }

// TestQueryEdges is the table-driven edge sweep of handleQuery: a query for
// an unknown channel, from the sole registered member, or against a
// fully-expired registry must (1) still send a TrackerResponse — an empty
// one, never a silent drop, because the client is blocked waiting on it —
// (2) leave the served counter untouched, and (3) consume zero RNG draws.
func TestQueryEdges(t *testing.T) {
	requester := netip.AddrFrom4([4]byte{58, 40, 0, 1})
	cases := []struct {
		name  string
		setup func(env *fakeEnv, srv *Server)
	}{
		{
			name:  "unknown channel",
			setup: func(env *fakeEnv, srv *Server) {},
		},
		{
			name: "sole registered member",
			setup: func(env *fakeEnv, srv *Server) {
				srv.HandleMessage(requester, &wire.TrackerAnnounce{Channel: 1})
			},
		},
		{
			name: "all entries expired",
			setup: func(env *fakeEnv, srv *Server) {
				srv.HandleMessage(netip.AddrFrom4([4]byte{58, 40, 0, 2}), &wire.TrackerAnnounce{Channel: 1})
				env.now += DefaultEntryTTL + time.Second
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env := newFakeEnv(7)
			srv := NewServer(env)
			tc.setup(env, srv)

			sentBefore := len(env.sent)
			drawsBefore := env.src.draws
			_, _, servedBefore := srv.Stats()

			srv.HandleMessage(requester, &wire.TrackerQuery{Channel: 1})

			if got := len(env.sent) - sentBefore; got != 1 {
				t.Fatalf("sent %d messages, want exactly 1 (empty response, not a drop)", got)
			}
			resp, ok := env.sent[len(env.sent)-1].msg.(*wire.TrackerResponse)
			if !ok {
				t.Fatalf("sent %T, want TrackerResponse", env.sent[len(env.sent)-1].msg)
			}
			if env.sent[len(env.sent)-1].to != requester {
				t.Errorf("response sent to %v, want requester %v", env.sent[len(env.sent)-1].to, requester)
			}
			if resp.Channel != 1 || len(resp.Peers) != 0 {
				t.Errorf("response = %+v, want empty peer list on channel 1", resp)
			}
			if _, _, served := srv.Stats(); served != servedBefore {
				t.Errorf("served inflated: %d -> %d on an empty reply", servedBefore, served)
			}
			if draws := env.src.draws - drawsBefore; draws != 0 {
				t.Errorf("k == 0 query consumed %d RNG draws, want 0", draws)
			}
		})
	}
}

// TestQueryDrawCountMatchesReply pins the uniform policy's RNG consumption
// through the server: exactly one draw per returned address (the partial
// Fisher-Yates, including its final Intn(1)).
func TestQueryDrawCountMatchesReply(t *testing.T) {
	env := newFakeEnv(7)
	srv := NewServer(env)
	for i := 0; i < 10; i++ {
		srv.HandleMessage(netip.AddrFrom4([4]byte{58, 40, 0, byte(i + 2)}), &wire.TrackerAnnounce{Channel: 1})
	}
	requester := netip.AddrFrom4([4]byte{58, 40, 0, 1})
	before := env.src.draws
	srv.HandleMessage(requester, &wire.TrackerQuery{Channel: 1})
	resp := env.sent[len(env.sent)-1].msg.(*wire.TrackerResponse)
	if len(resp.Peers) != 10 {
		t.Fatalf("reply has %d peers, want 10", len(resp.Peers))
	}
	if draws := env.src.draws - before; draws != 10 {
		t.Errorf("10-peer reply consumed %d draws, want 10 (one per returned address)", draws)
	}
}

// prefixResolver maps 10.<i>.0.0/16-style test addresses to ISPs by their
// second octet: 1 → TELE, 2 → CNC.
type prefixResolver struct{}

func (prefixResolver) ISPOf(a netip.Addr) (isp.ISP, bool) {
	switch a.As4()[1] {
	case 1:
		return isp.TELE, true
	case 2:
		return isp.CNC, true
	}
	return 0, false
}

// TestQuotaBiasedReply drives the quota policy through the full server path:
// the reply respects the inter-ISP quota exactly when both pools are ample,
// and fills deterministically from the same-ISP pool on inter shortfall.
func TestQuotaBiasedReply(t *testing.T) {
	requester := netip.AddrFrom4([4]byte{10, 1, 0, 200})

	build := func(nSame, nInter int) (*fakeEnv, *Server) {
		env := newFakeEnv(7)
		srv := NewServer(env)
		pol, err := selection.NewQuota(prefixResolver{}, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		srv.SetPolicy(pol)
		for i := 0; i < nSame; i++ {
			srv.HandleMessage(netip.AddrFrom4([4]byte{10, 1, 0, byte(i + 1)}), &wire.TrackerAnnounce{Channel: 1})
		}
		for i := 0; i < nInter; i++ {
			srv.HandleMessage(netip.AddrFrom4([4]byte{10, 2, 0, byte(i + 1)}), &wire.TrackerAnnounce{Channel: 1})
		}
		return env, srv
	}
	count := func(resp *wire.TrackerResponse) (same, inter int) {
		for _, p := range resp.Peers {
			if cat, _ := (prefixResolver{}).ISPOf(p); cat == isp.TELE {
				same++
			} else {
				inter++
			}
		}
		return
	}

	// Ample pools: exactly floor(0.25*k) inter entries, the rest same-ISP.
	const k = DefaultMaxReply
	env, srv := build(2*k, 2*k)
	srv.HandleMessage(requester, &wire.TrackerQuery{Channel: 1})
	resp := env.sent[len(env.sent)-1].msg.(*wire.TrackerResponse)
	same, inter := count(resp)
	if len(resp.Peers) != k || same != k-k/4 || inter != k/4 {
		t.Errorf("ample pools: reply %d peers (%d same, %d inter), want %d (%d, %d)", len(resp.Peers), same, inter, k, k-k/4, k/4)
	}

	// Inter shortfall (only 2 inter candidates): the same-ISP pool fills the
	// rest of the reply up to k.
	env, srv = build(2*k, 2)
	srv.HandleMessage(requester, &wire.TrackerQuery{Channel: 1})
	resp = env.sent[len(env.sent)-1].msg.(*wire.TrackerResponse)
	same, inter = count(resp)
	if len(resp.Peers) != k || inter != 2 || same != k-2 {
		t.Errorf("inter shortfall: reply %d peers (%d same, %d inter), want %d (%d, 2)", len(resp.Peers), same, inter, k, k-2)
	}

	// Same shortfall (only 3 same candidates): the reply shrinks so its
	// inter fraction stays within the quota — floor(0.25*3/0.75) = 1 inter.
	env, srv = build(3, 40)
	srv.HandleMessage(requester, &wire.TrackerQuery{Channel: 1})
	resp = env.sent[len(env.sent)-1].msg.(*wire.TrackerResponse)
	same, inter = count(resp)
	if same != 3 || inter != 1 {
		t.Errorf("same shortfall: reply %d peers (%d same, %d inter), want 4 (3, 1)", len(resp.Peers), same, inter)
	}
	if frac := float64(inter) / float64(len(resp.Peers)); frac > 0.25+1e-9 {
		t.Errorf("inter fraction %g exceeds quota", frac)
	}
}
