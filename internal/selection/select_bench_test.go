package selection

import (
	"math/rand"
	"net/netip"
	"slices"
	"testing"

	"pplivesim/internal/isp"
)

// benchCandidates builds a realistic tracker reply pool: 200 candidates
// split across the five ISP categories, registered in a map resolver.
func benchCandidates() ([]netip.Addr, mapResolver, netip.Addr) {
	res := mapResolver{}
	var c []netip.Addr
	cats := isp.All()
	for i := 0; i < 200; i++ {
		a := netip.AddrFrom4([4]byte{10, byte(i / 250), byte(i % 250), 1})
		res[a] = cats[i%len(cats)]
		c = append(c, a)
	}
	req := netip.AddrFrom4([4]byte{10, 9, 9, 9})
	res[req] = isp.TELE
	return c, res, req
}

// BenchmarkSelectUniformBaseline is the legacy inline partial Fisher-Yates —
// the pre-refactor tracker reply path, hand-inlined with no interface call.
// BenchmarkSelectUniform must stay within 5% of it at 0 allocs: that pair is
// the bench-compare gate's proof that the strategy indirection is free.
func BenchmarkSelectUniformBaseline(b *testing.B) {
	c, _, _ := benchCandidates()
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := len(c)
		k := 60
		for j := 0; j < k; j++ {
			m := j + rng.Intn(n-j)
			c[j], c[m] = c[m], c[j]
		}
	}
}

// BenchmarkSelectUniform is the same sample through the Policy interface.
func BenchmarkSelectUniform(b *testing.B) {
	c, _, req := benchCandidates()
	rng := rand.New(rand.NewSource(1))
	var pol Policy = Uniform{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pol.Sample(c, req, 60, rng)
	}
}

// BenchmarkSelectQuota measures the quota policy's partition + dual
// Fisher-Yates reply composition.
func BenchmarkSelectQuota(b *testing.B) {
	c, res, req := benchCandidates()
	pol, err := NewQuota(res, 0.25)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pol.Sample(c, req, 60, rng)
	}
}

// BenchmarkSelectASHop measures the hop-class-bucketed weighted sample.
func BenchmarkSelectASHop(b *testing.B) {
	c, res, req := benchCandidates()
	pol, err := NewASHop(res, 2)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pol.Sample(c, req, 60, rng)
	}
}

// TestUniformSampleZeroAlloc pins the random path at zero allocations — the
// interface indirection must not heap-allocate anything.
func TestUniformSampleZeroAlloc(t *testing.T) {
	c, _, req := benchCandidates()
	rng := rand.New(rand.NewSource(1))
	var pol Policy = Uniform{}
	allocs := testing.AllocsPerRun(200, func() {
		pol.Sample(c, req, 60, rng)
	})
	if allocs != 0 {
		t.Fatalf("Uniform.Sample allocates %.1f/op, want 0", allocs)
	}
}

// referOracle is Quota.Refer as it was first written, with a fresh slice for
// each pool: the reference the allocation-free partition must match.
func referOracle(q *Quota, c []netip.Addr, from netip.Addr) int {
	local, ok := q.res.ISPOf(from)
	if !ok {
		return len(c)
	}
	same := make([]netip.Addr, 0, len(c))
	inter := make([]netip.Addr, 0, len(c))
	for _, a := range c {
		if cat, ok := q.res.ISPOf(a); ok && cat == local {
			same = append(same, a)
		} else {
			inter = append(inter, a)
		}
	}
	sameN, interN := q.quotaCounts(len(same), len(inter), len(c))
	n := copy(c, same[:sameN])
	n += copy(c[n:], inter[:interN])
	return n
}

// TestQuotaReferZeroAlloc pins the quota referral at zero allocations for a
// list of the longest referral length, and checks that it returns what the
// two-slice oracle returns on random tables: lists of up to 300 entries (so
// also past the stack buffer), some addresses the resolver does not know,
// requesters it does and does not know, and quotas from 0 to 1.
func TestQuotaReferZeroAlloc(t *testing.T) {
	res := mapResolver{}
	cats := isp.All()
	rng := rand.New(rand.NewSource(5))
	addrs := make([]netip.Addr, 400)
	for i := range addrs {
		addrs[i] = netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 1})
		if rng.Intn(8) > 0 { // one address in eight is unmappable
			res[addrs[i]] = cats[rng.Intn(len(cats))]
		}
	}
	for trial := 0; trial < 2000; trial++ {
		frac := []float64{0, 0.25, 0.5, 1, rng.Float64()}[trial%5]
		q, err := NewQuota(res, frac)
		if err != nil {
			t.Fatal(err)
		}
		n := rng.Intn(301)
		if trial == 0 {
			n = len(addrs)
		}
		c := make([]netip.Addr, n)
		for i := range c {
			c[i] = addrs[rng.Intn(len(addrs))]
		}
		from := addrs[rng.Intn(len(addrs))]
		want := append([]netip.Addr(nil), c...)
		wantN := referOracle(q, want, from)
		if got := q.Refer(c, from); got != wantN || !slices.Equal(c[:got], want[:wantN]) {
			t.Fatalf("trial %d (quota %.2f, %d entries): Refer gives %d %v, the oracle %d %v",
				trial, frac, n, got, c[:got], wantN, want[:wantN])
		}
	}

	q, err := NewQuota(res, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	from := addrs[0]
	res[from] = isp.TELE
	list := addrs[:referBound]
	c := make([]netip.Addr, len(list))
	var pol Policy = q
	allocs := testing.AllocsPerRun(200, func() {
		copy(c, list)
		pol.Refer(c, from)
	})
	if allocs != 0 {
		t.Fatalf("Quota.Refer of %d entries allocates %.1f/op, want 0", len(list), allocs)
	}
}
