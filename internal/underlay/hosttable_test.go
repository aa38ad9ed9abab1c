package underlay

import (
	"hash/fnv"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"pplivesim/internal/isp"
)

func keyAddr(key uint32) netip.Addr {
	return netip.AddrFrom4([4]byte{byte(key >> 24), byte(key >> 16), byte(key >> 8), byte(key)})
}

// TestHostTableMatchesMap drives random Attach/Detach/Lookup/NumHosts
// sequences against a map model. The address set straddles the boundary of
// every table level and is small enough that nodes empty and refill many
// times; detached hosts are kept and re-attached as the same *Host.
func TestHostTableMatchesMap(t *testing.T) {
	var keys []uint32
	for _, base := range []uint32{
		0x3a000000, // first-octet boundary
		0x3a200000, // second-octet boundary
		0x3a200100, // leaf (/24) boundary
		0x3a200380, // inside a leaf of its own
		0xdc001100, // far from everything else
	} {
		for d := -3; d < 3; d++ {
			keys = append(keys, base+uint32(d))
		}
	}
	_, net := newTestNet(t)
	rng := rand.New(rand.NewSource(42))
	model := make(map[netip.Addr]*Host)
	parked := make(map[netip.Addr]*Host) // detached, to be re-attached as-is

	for step := 0; step < 20000; step++ {
		addr := keyAddr(keys[rng.Intn(len(keys))])
		switch op := rng.Intn(10); {
		case op < 4: // attach (a duplicate when the address is taken)
			h := parked[addr]
			if h == nil || rng.Intn(2) == 0 {
				h = &Host{Addr: addr, ISP: isp.TELE, UploadBps: 1}
			}
			err := net.Attach(h, nil)
			if _, taken := model[addr]; taken != (err != nil) {
				t.Fatalf("step %d: attach %s: taken=%v err=%v", step, addr, taken, err)
			}
			if err == nil {
				model[addr] = h
				delete(parked, addr)
			}
		case op < 7: // detach (a no-op when the address is vacant)
			net.Detach(addr)
			if h, ok := model[addr]; ok {
				parked[addr] = h
				delete(model, addr)
			}
		default: // lookup
			got, ok := net.Lookup(addr)
			want, wok := model[addr]
			if ok != wok || got != want {
				t.Fatalf("step %d: lookup %s = %p,%v, want %p,%v", step, addr, got, ok, want, wok)
			}
		}
		if net.NumHosts() != len(model) {
			t.Fatalf("step %d: NumHosts = %d, want %d", step, net.NumHosts(), len(model))
		}
	}

	for addr, want := range model {
		if got, _ := net.Lookup(addr); got != want {
			t.Errorf("final lookup %s = %p, want %p", addr, got, want)
		}
		net.Detach(addr)
	}
	if net.NumHosts() != 0 {
		t.Errorf("NumHosts = %d after detaching everything", net.NumHosts())
	}
	if net.hosts.root.live != 0 {
		t.Errorf("root has %d live children after the table emptied", net.hosts.root.live)
	}
	for i, kid := range net.hosts.root.kids {
		if kid != nil {
			t.Errorf("root slot %#x still holds a node after the table emptied", i)
		}
	}
}

// TestRecycledHostDropsInFlight: a datagram in flight to a host that detaches
// is dropped even when the same Host storage is attached again under another
// address before the datagram lands — the new occupant must not see it.
func TestRecycledHostDropsInFlight(t *testing.T) {
	eng, net := newTestNet(t)
	a := mkHost("58.32.0.1", isp.TELE)
	b := mkHost("58.32.0.2", isp.TELE)
	if err := net.Attach(a, nil); err != nil {
		t.Fatal(err)
	}
	got := 0
	count := func(netip.Addr, int, any) { got++ }
	if err := net.Attach(b, count); err != nil {
		t.Fatal(err)
	}
	net.Send(a, b.Addr, 100, nil)
	net.Detach(b.Addr)
	*b = Host{Addr: netip.MustParseAddr("58.32.0.3"), ISP: isp.TELE, UploadBps: 64 << 10}
	if err := net.Attach(b, count); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	delivered, _, _, noHost := net.Stats()
	if got != 0 || delivered != 0 || noHost != 1 {
		t.Errorf("handler calls %d, delivered %d, droppedNoHost %d; want 0, 0, 1", got, delivered, noHost)
	}
}

// TestPairKeyMatchesFNV pins the inlined pair hash to hash/fnv: PairOWD, and
// with it every arrival time in every golden, is a function of it.
func TestPairKeyMatchesFNV(t *testing.T) {
	ref := func(a, b netip.Addr) uint64 {
		if b.Less(a) {
			a, b = b, a
		}
		h := fnv.New64a()
		ab, bb := a.As4(), b.As4()
		h.Write(ab[:])
		h.Write(bb[:])
		return h.Sum64()
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10000; i++ {
		a, b := keyAddr(rng.Uint32()), keyAddr(rng.Uint32())
		if i%100 == 0 {
			b = a // a host paired with itself
		}
		if got, want := pairKey(a, b), ref(a, b); got != want {
			t.Fatalf("pairKey(%s, %s) = %#x, want %#x", a, b, got, want)
		}
		if pairKey(a, b) != pairKey(b, a) {
			t.Fatalf("pairKey(%s, %s) is not symmetric", a, b)
		}
	}
}

// BenchmarkHostTableRemovePut is a flow member's churn on the table: a
// million-address /12 (8 MB of leaves), each op removing a random member and
// putting it back, so most removes land on a leaf that is out of cache.
func BenchmarkHostTableRemovePut(b *testing.B) {
	const base, n = 0x3a200000, 1 << 20
	var t hostTable
	h := &Host{}
	for i := uint32(0); i < n; i++ {
		t.put(base+i, h)
	}
	rng := rand.New(rand.NewSource(7))
	keys := make([]uint32, 1<<16)
	for i := range keys {
		keys[i] = base + uint32(rng.Intn(n))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := keys[i&(len(keys)-1)]
		t.put(key, t.remove(key))
	}
}
