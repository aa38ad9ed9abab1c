package ipam

import (
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
)

func TestParsePrefix(t *testing.T) {
	tests := []struct {
		cidr    string
		wantErr bool
	}{
		{"58.32.0.0/11", false},
		{"10.0.0.0/8", false},
		{"192.168.1.0/24", false},
		{"0.0.0.0/0", false},
		{"2001:db8::/32", true},
		{"not-a-prefix", true},
		{"1.2.3.4/33", true},
	}
	for _, tt := range tests {
		_, err := ParsePrefix(tt.cidr)
		if (err != nil) != tt.wantErr {
			t.Errorf("ParsePrefix(%q) error = %v, wantErr %v", tt.cidr, err, tt.wantErr)
		}
	}
}

func TestPrefixMasked(t *testing.T) {
	p, err := ParsePrefix("10.1.2.3/8")
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Addr().String(); got != "10.0.0.0" {
		t.Errorf("Addr() = %s, want masked 10.0.0.0", got)
	}
	if p.Size() != 1<<24 {
		t.Errorf("Size() = %d, want 2^24", p.Size())
	}
}

func TestPoolAllocUniqueAndContained(t *testing.T) {
	pre := MustParsePrefix("192.168.0.0/28") // 16 addrs, 14 usable
	pool := NewPool(pre)
	seen := map[netip.Addr]bool{}
	for i := 0; i < 14; i++ {
		a, err := pool.Alloc()
		if err != nil {
			t.Fatalf("Alloc %d: %v", i, err)
		}
		if seen[a] {
			t.Fatalf("duplicate address %s", a)
		}
		seen[a] = true
		if !pre.Contains(a) {
			t.Fatalf("address %s outside prefix", a)
		}
		if a == pre.Addr() {
			t.Fatalf("allocated network address %s", a)
		}
	}
	if _, err := pool.Alloc(); err != ErrExhausted {
		t.Errorf("Alloc after exhaustion = %v, want ErrExhausted", err)
	}
}

// remaining returns how many addresses p can still allocate.
func remaining(p *Pool) uint64 {
	var total uint64
	for i := p.cursor; i < len(p.prefixes); i++ {
		size := p.prefixes[i].Size() - 2 // minus network and broadcast
		if i == p.cursor {
			size -= min(uint64(p.next)-1, size)
		}
		total += size
	}
	return total
}

func TestPoolSpansPrefixes(t *testing.T) {
	p1 := MustParsePrefix("10.0.0.0/30") // 2 usable
	p2 := MustParsePrefix("10.0.1.0/30") // 2 usable
	pool := NewPool(p1, p2)
	if got := remaining(pool); got != 4 {
		t.Fatalf("Remaining() = %d, want 4", got)
	}
	var addrs []netip.Addr
	for {
		a, err := pool.Alloc()
		if err != nil {
			break
		}
		addrs = append(addrs, a)
	}
	if len(addrs) != 4 {
		t.Fatalf("allocated %d addresses, want 4", len(addrs))
	}
	if !p1.Contains(addrs[0]) || !p2.Contains(addrs[3]) {
		t.Errorf("allocation did not span prefixes in order: %v", addrs)
	}
	if got := remaining(pool); got != 0 {
		t.Errorf("Remaining() = %d after exhaustion, want 0", got)
	}
}

func TestTrieLongestPrefixMatch(t *testing.T) {
	tr := NewTrie()
	tr.Insert(MustParsePrefix("10.0.0.0/8"), 1)
	tr.Insert(MustParsePrefix("10.1.0.0/16"), 2)
	tr.Insert(MustParsePrefix("10.1.2.0/24"), 3)

	tests := []struct {
		addr  string
		want  int
		found bool
	}{
		{"10.9.9.9", 1, true},
		{"10.1.9.9", 2, true},
		{"10.1.2.9", 3, true},
		{"11.0.0.1", 0, false},
	}
	for _, tt := range tests {
		got, ok := tr.Lookup(netip.MustParseAddr(tt.addr))
		if ok != tt.found || (ok && got != tt.want) {
			t.Errorf("Lookup(%s) = (%d,%v), want (%d,%v)", tt.addr, got, ok, tt.want, tt.found)
		}
	}
}

func TestTrieReplaceExact(t *testing.T) {
	tr := NewTrie()
	p := MustParsePrefix("172.16.0.0/12")
	tr.Insert(p, 1)
	tr.Insert(p, 9)
	got, ok := tr.Lookup(netip.MustParseAddr("172.16.5.5"))
	if !ok || got != 9 {
		t.Errorf("Lookup = (%d,%v), want (9,true)", got, ok)
	}
}

func TestTrieDefaultRoute(t *testing.T) {
	tr := NewTrie()
	tr.Insert(MustParsePrefix("0.0.0.0/0"), 42)
	got, ok := tr.Lookup(netip.MustParseAddr("8.8.8.8"))
	if !ok || got != 42 {
		t.Errorf("default route Lookup = (%d,%v), want (42,true)", got, ok)
	}
}

func TestTrieRejectsIPv6(t *testing.T) {
	tr := NewTrie()
	tr.Insert(MustParsePrefix("0.0.0.0/0"), 1)
	if _, ok := tr.Lookup(netip.MustParseAddr("::1")); ok {
		t.Error("IPv6 lookup unexpectedly succeeded")
	}
}

// Property: every address allocated from a pool built over a prefix resolves
// back to that prefix's label via the trie.
func TestPropertyAllocLookupRoundTrip(t *testing.T) {
	f := func(octet uint8, bits uint8) bool {
		b := int(bits%9) + 20 // /20../28
		pre, err := ParsePrefix(netip.AddrFrom4([4]byte{octet | 1, 0, 0, 0}).String() + "/" + itoa(b))
		if err != nil {
			return true
		}
		tr := NewTrie()
		tr.Insert(pre, 7)
		pool := NewPool(pre)
		for i := 0; i < 10; i++ {
			a, err := pool.Alloc()
			if err != nil {
				return true
			}
			if got, ok := tr.Lookup(a); !ok || got != 7 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [4]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// Property: trie lookup agrees with linear scan of inserted prefixes.
func TestPropertyTrieMatchesLinearScan(t *testing.T) {
	prefixes := []Prefix{
		MustParsePrefix("58.32.0.0/11"),
		MustParsePrefix("60.0.0.0/11"),
		MustParsePrefix("59.64.0.0/12"),
		MustParsePrefix("58.32.0.0/16"),
		MustParsePrefix("0.0.0.0/1"),
	}
	tr := NewTrie()
	for i, p := range prefixes {
		tr.Insert(p, i)
	}
	linear := func(a netip.Addr) (int, bool) {
		best, bestBits, found := 0, -1, false
		for i, p := range prefixes {
			if p.Contains(a) && p.Bits() > bestBits {
				best, bestBits, found = i, p.Bits(), true
			}
		}
		return best, found
	}
	f := func(b [4]byte) bool {
		a := netip.AddrFrom4(b)
		g1, ok1 := tr.Lookup(a)
		g2, ok2 := linear(a)
		return ok1 == ok2 && (!ok1 || g1 == g2)
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(4))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
