package simnet

// White-box tests for the scaled (Shards > DefaultShards) partition: the
// address-range trie routing, the infrastructure domain, the synthetic
// latency floors, and the legacy partition's invariance for small shard
// counts. These pin the satellite requirements of the million-peer work:
// boundary addresses route to their owning sub-shard, a churned peer
// re-joining through another sub-shard's pool resolves there, and shard
// counts at or below DefaultShards build the exact legacy partition.

import (
	"net/netip"
	"testing"
	"time"

	"pplivesim/internal/asnmap"
	"pplivesim/internal/ipam"
	"pplivesim/internal/isp"
	"pplivesim/internal/underlay"
	"pplivesim/internal/wire"
)

func TestScaledPartitionShape(t *testing.T) {
	const shards = 12
	w := NewShardedWorldN(7, shards)
	if got := len(w.Domains()); got != shards {
		t.Fatalf("domains = %d, want %d", got, shards)
	}
	if got := len(w.DomainsOf(isp.TELE)); got != shards-5 {
		t.Errorf("TELE sub-shards = %d, want %d", got, shards-5)
	}
	for _, cat := range []isp.ISP{isp.CNC, isp.CER, isp.OtherCN, isp.Foreign} {
		if got := len(w.DomainsOf(cat)); got != 1 {
			t.Errorf("%s domains = %d, want 1", cat, got)
		}
	}
	infra := w.InfraDomain(isp.TELE)
	if infra == nil || infra.Name() != "INFRA" {
		t.Fatalf("InfraDomain = %v, want the INFRA domain", infra)
	}
	if infra != w.InfraDomain(isp.CER) {
		t.Error("InfraDomain should be shared across categories")
	}
	// The widened lookahead: TELE sub-shard pairs are floored at TELE's
	// IntraOWD, which becomes the new minimum over all cross-domain pairs.
	cfg := underlay.DefaultConfig()
	if w.lookahead != cfg.IntraOWD[isp.TELE] {
		t.Errorf("lookahead = %v, want %v", w.lookahead, cfg.IntraOWD[isp.TELE])
	}
}

func TestLegacyPartitionUnchangedForSmallShards(t *testing.T) {
	ref := NewShardedWorldN(7, DefaultShards)
	for _, shards := range []int{0, 1, 4} {
		w := NewShardedWorldN(7, shards)
		if len(w.Domains()) != len(ref.Domains()) {
			t.Fatalf("shards=%d: %d domains, want %d", shards, len(w.Domains()), len(ref.Domains()))
		}
		for i, d := range w.Domains() {
			r := ref.Domains()[i]
			if d.Name() != r.Name() || d.Category() != r.Category() {
				t.Errorf("shards=%d: domain %d = %s/%v, want %s/%v", shards, i, d.Name(), d.Category(), r.Name(), r.Category())
			}
		}
		if w.lookahead != ref.lookahead {
			t.Errorf("shards=%d: lookahead %v, want %v", shards, w.lookahead, ref.lookahead)
		}
		if w.infra != nil || w.floors != nil {
			t.Errorf("shards=%d: legacy world must have no infra domain or floors", shards)
		}
	}
}

// scaledTelePartition recomputes the sub-shard prefix groups exactly as the
// world constructor does, so boundary addresses can be checked against the
// trie without exporting pool internals.
func scaledTelePartition(kTele int) (groups [][]ipam.Prefix, infraTail ipam.Prefix) {
	reg := asnmap.SyntheticInternet()
	main, tail, ok := ipam.CarveTail(reg.PrefixesFor(isp.TELE), infraCarveBits)
	if !ok {
		panic("carve failed")
	}
	return ipam.SplitEvenly(main, kTele), tail
}

func TestScaledBoundaryRouting(t *testing.T) {
	const shards = 12
	w := NewShardedWorldN(7, shards)
	groups, infraTail := scaledTelePartition(shards - 5)
	tele := w.DomainsOf(isp.TELE)
	if len(tele) != len(groups) {
		t.Fatalf("TELE sub-shards = %d, want %d", len(tele), len(groups))
	}
	u32 := func(a netip.Addr) uint32 {
		b := a.As4()
		return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
	}
	addrAt := func(p ipam.Prefix, off uint32) netip.Addr {
		v := u32(p.Addr()) + off
		return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
	}
	for gi, g := range groups {
		want := tele[gi].ID()
		for _, p := range g {
			// First usable and last usable address of every prefix — the
			// sub-shard boundaries the trie has to get right.
			for _, a := range []netip.Addr{addrAt(p, 1), addrAt(p, uint32(p.Size()-2))} {
				rem, ok := w.router.Resolve(a)
				if !ok {
					t.Fatalf("Resolve(%s) failed", a)
				}
				if rem.Domain != want {
					t.Errorf("addr %s (prefix %s): domain %d, want %d (%s)", a, p, rem.Domain, want, tele[gi].Name())
				}
				if rem.ISP != isp.TELE {
					t.Errorf("addr %s: ISP %v, want TELE", a, rem.ISP)
				}
				// The ISP registry must agree: sub-sharding repartitions
				// domains, never the IP→ISP mapping the analysis layer uses.
				if got, _ := w.Registry.ISPOf(a); got != isp.TELE {
					t.Errorf("Registry.ISPOf(%s) = %v, want TELE", a, got)
				}
			}
		}
	}
	// The carved infrastructure tail routes to the infra domain, not a TELE
	// sub-shard, while still resolving as TELE in the registry.
	infraAddr := addrAt(infraTail, 1)
	rem, ok := w.router.Resolve(infraAddr)
	if !ok || rem.Domain != w.infra.id {
		t.Errorf("infra tail addr %s: resolved to domain %d ok=%v, want infra domain %d", infraAddr, rem.Domain, ok, w.infra.id)
	}
	if rem.ISP != isp.TELE {
		t.Errorf("infra tail addr %s: ISP %v, want TELE", infraAddr, rem.ISP)
	}
	if got, _ := w.Registry.ISPOf(infraAddr); got != isp.TELE {
		t.Errorf("Registry.ISPOf(%s) = %v, want TELE", infraAddr, got)
	}
}

func TestScaledRejoinDifferentSubShard(t *testing.T) {
	w := NewShardedWorldN(7, 12)
	tele := w.DomainsOf(isp.TELE)
	spec := HostSpec{ISP: isp.TELE, UploadBps: 64 << 10}
	// A peer joins through sub-shard 0, churns away, and re-joins through
	// sub-shard 3: the fresh address must route to its new owning domain.
	env0, err := tele[0].Spawn(spec)
	if err != nil {
		t.Fatal(err)
	}
	env0.Close()
	env3, err := tele[3].Spawn(spec)
	if err != nil {
		t.Fatal(err)
	}
	if env0.Addr() == env3.Addr() {
		t.Fatalf("rejoin reused address %s", env0.Addr())
	}
	rem, ok := w.router.Resolve(env3.Addr())
	if !ok || rem.Domain != tele[3].ID() {
		t.Errorf("rejoined addr %s: domain %d ok=%v, want %d", env3.Addr(), rem.Domain, ok, tele[3].ID())
	}
	// The old address still resolves to its old sub-shard (datagrams in
	// flight to a departed peer must be routed there and dropped there).
	rem0, ok := w.router.Resolve(env0.Addr())
	if !ok || rem0.Domain != tele[0].ID() {
		t.Errorf("departed addr %s: domain %d ok=%v, want %d", env0.Addr(), rem0.Domain, ok, tele[0].ID())
	}
}

func TestScaledFloorMatrix(t *testing.T) {
	w := NewShardedWorldN(7, 12)
	cfg := underlay.DefaultConfig()
	n := len(w.domains)
	intraTele := cfg.IntraOWD[isp.TELE]
	for i, a := range w.domains {
		for j, b := range w.domains {
			got := w.floors[i*n+j]
			var want time.Duration
			switch {
			case i == j:
				want = 0
			case a == w.infra || b == w.infra:
				want = 2 * intraTele
			case a.cat == b.cat:
				want = cfg.IntraOWD[a.cat]
			}
			if got != want {
				t.Errorf("floor[%s→%s] = %v, want %v", a.name, b.name, got, want)
			}
		}
	}
}

// TestScaledFloorEnforced sends a datagram between two TELE sub-shards and
// checks it never arrives before the floor, which is what the widened
// lookahead's correctness rests on.
func TestScaledFloorEnforced(t *testing.T) {
	w := NewShardedWorldN(7, 12)
	tele := w.DomainsOf(isp.TELE)
	src, err := tele[0].Spawn(HostSpec{ISP: isp.TELE, UploadBps: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	dst, err := tele[1].Spawn(HostSpec{ISP: isp.TELE, UploadBps: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	// Tag each datagram with its send time via the nonce so per-send latency
	// is checkable despite jitter reordering and the occasional loss.
	type rx struct {
		sentMs  uint32
		arrival time.Duration
	}
	var got []rx
	dst.SetHandler(handlerFunc(func(from netip.Addr, msg wire.Message) {
		p := msg.(*wire.Ping)
		got = append(got, rx{sentMs: p.Nonce, arrival: tele[1].Engine().Now()})
	}))
	const sends = 50
	for i := 0; i < sends; i++ {
		i := i
		at := time.Duration(i) * time.Millisecond
		src.Domain().At(at, func() { src.Send(dst.Addr(), &wire.Ping{Nonce: uint32(i)}) })
	}
	if err := w.Run(time.Second, 1); err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("no datagrams arrived")
	}
	if late := w.LateInjects(); late != 0 {
		t.Errorf("%d datagrams were injected behind the destination clock", late)
	}
	floor := underlay.DefaultConfig().IntraOWD[isp.TELE]
	for _, r := range got {
		sent := time.Duration(r.sentMs) * time.Millisecond
		if r.arrival-sent < floor {
			t.Errorf("datagram sent at %v arrived at %v: latency %v below the %v floor", sent, r.arrival, r.arrival-sent, floor)
		}
	}
}

type handlerFunc func(from netip.Addr, msg wire.Message)

func (f handlerFunc) HandleMessage(from netip.Addr, msg wire.Message) { f(from, msg) }
