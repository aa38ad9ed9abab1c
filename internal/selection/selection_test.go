package selection

import (
	"math"
	"math/rand"
	"net/netip"
	"testing"

	"pplivesim/internal/isp"
)

// mapResolver is a test resolver over a literal address→ISP table.
type mapResolver map[netip.Addr]isp.ISP

func (m mapResolver) ISPOf(a netip.Addr) (isp.ISP, bool) {
	cat, ok := m[a]
	return cat, ok
}

// addr builds 10.0.<b>.<c>.
func addr(b, c byte) netip.Addr {
	return netip.AddrFrom4([4]byte{10, 0, b, c})
}

// pool builds n addresses 10.0.<b>.1.. and registers them under cat.
func pool(res mapResolver, b byte, n int, cat isp.ISP) []netip.Addr {
	out := make([]netip.Addr, n)
	for i := range out {
		out[i] = addr(b, byte(i+1))
		res[out[i]] = cat
	}
	return out
}

// TestUniformDrawParity proves the Uniform policy is draw-for-draw identical
// to the legacy inline partial Fisher-Yates: same reply, same RNG positions
// consumed — the property the pinned golden digests rest on.
func TestUniformDrawParity(t *testing.T) {
	for _, k := range []int{0, 1, 7, 30, 60, 100} {
		mk := func() []netip.Addr {
			c := make([]netip.Addr, 30)
			for i := range c {
				c[i] = addr(1, byte(i+1))
			}
			return c
		}
		legacy := mk()
		rngA := rand.New(rand.NewSource(99))
		n := len(legacy)
		kk := k
		if kk > n {
			kk = n
		}
		for i := 0; i < kk; i++ {
			j := i + rngA.Intn(n-i)
			legacy[i], legacy[j] = legacy[j], legacy[i]
		}

		got := mk()
		rngB := rand.New(rand.NewSource(99))
		kGot := Uniform{}.Sample(got, addr(9, 9), k, rngB)
		if kGot != kk {
			t.Fatalf("k=%d: Sample returned %d, legacy %d", k, kGot, kk)
		}
		for i := 0; i < kk; i++ {
			if got[i] != legacy[i] {
				t.Fatalf("k=%d: reply[%d] = %v, legacy %v", k, i, got[i], legacy[i])
			}
		}
		// Both streams must now be at the same position.
		if a, b := rngA.Int63(), rngB.Int63(); a != b {
			t.Fatalf("k=%d: RNG positions diverge after sampling (%d vs %d)", k, a, b)
		}
	}
}

// TestUniformZeroDrawsOnEmpty pins that an empty candidate set consumes no
// randomness at all (the tracker's unknown-channel / sole-member edge).
func TestUniformZeroDrawsOnEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ref := rand.New(rand.NewSource(5))
	if k := (Uniform{}).Sample(nil, addr(1, 1), 60, rng); k != 0 {
		t.Fatalf("Sample on empty set returned %d", k)
	}
	if a, b := rng.Int63(), ref.Int63(); a != b {
		t.Fatal("Sample on empty set consumed RNG draws")
	}
}

// TestQuotaExactComposition checks that with ample pools the reply contains
// exactly floor(F*k) inter-ISP entries and k-floor(F*k) same-ISP entries.
func TestQuotaExactComposition(t *testing.T) {
	res := mapResolver{}
	req := addr(1, 200)
	res[req] = isp.TELE
	same := pool(res, 1, 100, isp.TELE)
	inter := pool(res, 2, 100, isp.CNC)
	_ = same

	for _, tc := range []struct {
		frac      float64
		k         int
		wantInter int
		wantTotal int
	}{
		{0.25, 60, 15, 60},
		{0.2, 60, 12, 60},
		{0.15, 60, 9, 60}, // 0.15*60 is exactly 9: the epsilon recovers it from the 8.999... float repr
		{0, 60, 0, 60},
		{1, 60, 60, 60},
		{0.5, 10, 5, 10},
	} {
		c := make([]netip.Addr, 0, 200)
		for i := 0; i < 100; i++ {
			c = append(c, same[i], inter[i])
		}
		q, err := NewQuota(res, tc.frac)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		n := q.Sample(c, req, tc.k, rng)
		if n != tc.wantTotal {
			t.Fatalf("frac=%g k=%d: reply length %d, want %d", tc.frac, tc.k, n, tc.wantTotal)
		}
		gotInter := 0
		for _, a := range c[:n] {
			if res[a] != isp.TELE {
				gotInter++
			}
		}
		if gotInter != tc.wantInter {
			t.Fatalf("frac=%g k=%d: %d inter-ISP entries, want %d", tc.frac, tc.k, gotInter, tc.wantInter)
		}
	}
}

// TestQuotaShortfallClamp checks the hard-clamp behaviour when the same-ISP
// pool cannot fill the reply: the actual reply's inter fraction never exceeds
// F, even if that shortens the reply.
func TestQuotaShortfallClamp(t *testing.T) {
	res := mapResolver{}
	req := addr(1, 200)
	res[req] = isp.TELE
	same := pool(res, 1, 4, isp.TELE) // tiny local pool
	inter := pool(res, 2, 100, isp.CNC)

	q, err := NewQuota(res, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	c := append(append([]netip.Addr{}, same...), inter...)
	rng := rand.New(rand.NewSource(3))
	n := q.Sample(c, req, 60, rng)
	gotSame, gotInter := 0, 0
	for _, a := range c[:n] {
		if res[a] == isp.TELE {
			gotSame++
		} else {
			gotInter++
		}
	}
	if gotSame != 4 {
		t.Fatalf("same-ISP entries = %d, want all 4 available", gotSame)
	}
	// 4 same at F=0.2 allows floor(0.2*4/0.8) = 1 inter entry.
	if gotInter != 1 {
		t.Fatalf("inter entries = %d, want 1 (hard clamp)", gotInter)
	}
	if frac := float64(gotInter) / float64(n); frac > 0.2+1e-9 {
		t.Fatalf("inter fraction %g exceeds quota 0.2", frac)
	}
}

// TestQuotaReferDeterministic checks Refer is a pure function: same-ISP
// entries first in original order, inter entries clamped, and byte-identical
// across calls with no RNG involved.
func TestQuotaReferDeterministic(t *testing.T) {
	res := mapResolver{}
	req := addr(1, 200)
	res[req] = isp.TELE
	same := pool(res, 1, 6, isp.TELE)
	inter := pool(res, 2, 6, isp.CNC)
	q, err := NewQuota(res, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	mk := func() []netip.Addr {
		c := make([]netip.Addr, 0, 12)
		for i := 0; i < 6; i++ {
			c = append(c, inter[i], same[i]) // interleaved, inter first
		}
		return c
	}
	a, b := mk(), mk()
	na, nb := q.Refer(a, req), q.Refer(b, req)
	if na != nb {
		t.Fatalf("Refer lengths differ: %d vs %d", na, nb)
	}
	for i := 0; i < na; i++ {
		if a[i] != b[i] {
			t.Fatalf("Refer not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
	// Same-ISP entries come first, in their original relative order.
	for i := 0; i < 6; i++ {
		if a[i] != same[i] {
			t.Fatalf("Refer[%d] = %v, want same-ISP %v", i, a[i], same[i])
		}
	}
	// 6 same at F=0.25 allows floor(0.25*6/0.75) = 2 inter entries.
	if na != 8 {
		t.Fatalf("Refer length = %d, want 8 (6 same + 2 inter)", na)
	}
}

// TestQuotaUnknownRequesterFallsBack checks an unmappable requester gets the
// plain uniform sample (no locality to bias toward).
func TestQuotaUnknownRequesterFallsBack(t *testing.T) {
	res := mapResolver{}
	cands := pool(res, 1, 20, isp.TELE)
	q, err := NewQuota(res, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := append([]netip.Addr{}, cands...)
	rng := rand.New(rand.NewSource(8))
	// Requester unknown to the resolver: even F=0 must return a full reply.
	if n := q.Sample(c, addr(9, 9), 10, rng); n != 10 {
		t.Fatalf("unknown requester reply length = %d, want 10", n)
	}
}

// TestASHopSampleBias checks the exponent steers composition: higher bias
// yields more same-ISP entries on a balanced candidate set, and bias 0 is
// statistically uniform.
func TestASHopSampleBias(t *testing.T) {
	res := mapResolver{}
	req := addr(1, 200)
	res[req] = isp.TELE
	same := pool(res, 1, 50, isp.TELE)
	far := pool(res, 3, 50, isp.Foreign)

	sameCount := func(bias float64, seed int64) int {
		p, err := NewASHop(res, bias)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		total := 0
		for trial := 0; trial < 50; trial++ {
			c := append(append([]netip.Addr{}, same...), far...)
			n := p.Sample(c, req, 20, rng)
			if n != 20 {
				t.Fatalf("bias=%g: reply length %d, want 20", bias, n)
			}
			seen := map[netip.Addr]bool{}
			for _, a := range c[:n] {
				if seen[a] {
					t.Fatalf("bias=%g: duplicate %v in reply", bias, a)
				}
				seen[a] = true
				if res[a] == isp.TELE {
					total++
				}
			}
		}
		return total
	}
	uniform := sameCount(0, 41) // expect ~500 of 1000
	biased := sameCount(3, 41)  // (1+3)^-3 = 1/64 weight on Foreign: nearly all same
	if math.Abs(float64(uniform)-500) > 80 {
		t.Errorf("bias 0 same-ISP count %d not ~500 of 1000", uniform)
	}
	if biased < 900 {
		t.Errorf("bias 3 same-ISP count %d, want >= 900 of 1000", biased)
	}
}

// TestASHopReferOrder checks the deterministic nearest-first reorder.
func TestASHopReferOrder(t *testing.T) {
	res := mapResolver{}
	req := addr(1, 200)
	res[req] = isp.TELE
	a0 := pool(res, 1, 2, isp.TELE)    // hop 0
	a1 := pool(res, 2, 2, isp.CER)     // hop 1
	a2 := pool(res, 3, 2, isp.CNC)     // hop 2 (TELE↔CNC penalty tier)
	a3 := pool(res, 4, 2, isp.Foreign) // hop 3
	p, err := NewASHop(res, 2)
	if err != nil {
		t.Fatal(err)
	}
	c := []netip.Addr{a3[0], a2[0], a1[0], a0[0], a3[1], a2[1], a1[1], a0[1]}
	n := p.Refer(c, req)
	if n != 8 {
		t.Fatalf("Refer dropped entries: %d of 8", n)
	}
	want := []netip.Addr{a0[0], a0[1], a1[0], a1[1], a2[0], a2[1], a3[0], a3[1]}
	for i, w := range want {
		if c[i] != w {
			t.Fatalf("Refer[%d] = %v, want %v (nearest-first stable order)", i, c[i], w)
		}
	}
}

// TestHopsMatrix pins the AS-hop tiers against the underlay's delay tiers.
func TestHopsMatrix(t *testing.T) {
	cases := []struct {
		a, b isp.ISP
		want int
	}{
		{isp.TELE, isp.TELE, 0},
		{isp.Foreign, isp.Foreign, 0},
		{isp.TELE, isp.CNC, 2},
		{isp.CNC, isp.TELE, 2},
		{isp.TELE, isp.CER, 1},
		{isp.CER, isp.OtherCN, 1},
		{isp.TELE, isp.Foreign, 3},
		{isp.Foreign, isp.CNC, 3},
	}
	for _, tc := range cases {
		if got := Hops(tc.a, tc.b); got != tc.want {
			t.Errorf("Hops(%v, %v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

// TestSpecParseRoundTrip checks ParseSpec and String agree.
func TestSpecParseRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Spec
		out  string
	}{
		{"", Spec{}, "random"},
		{"random", Spec{}, "random"},
		{"quota", Spec{Kind: KindQuota, MaxInterFrac: 0.2}, "quota:0.2"},
		{"quota:0.5", Spec{Kind: KindQuota, MaxInterFrac: 0.5}, "quota:0.5"},
		{"quota:0", Spec{Kind: KindQuota}, "quota:0"},
		{"ashop", Spec{Kind: KindASHop, Bias: 2}, "ashop:2"},
		{"ashop:3.5", Spec{Kind: KindASHop, Bias: 3.5}, "ashop:3.5"},
	} {
		sp, err := ParseSpec(tc.in)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", tc.in, err)
		}
		if sp != tc.want {
			t.Fatalf("ParseSpec(%q) = %+v, want %+v", tc.in, sp, tc.want)
		}
		if s := sp.String(); s != tc.out {
			t.Fatalf("String(%+v) = %q, want %q", sp, s, tc.out)
		}
		if rt, err := ParseSpec(sp.String()); err != nil || rt != sp {
			t.Fatalf("round trip of %q failed: %+v, %v", tc.in, rt, err)
		}
	}
	for _, bad := range []string{"quota:1.5", "quota:-0.1", "ashop:-1", "nearest", "random:1", "quota:x", "quota:NaN", "ashop:NaN", "ashop:Inf"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted invalid spec", bad)
		}
	}
}

// FuzzParseSpec checks the parse gate against the others: a spec ParseSpec
// accepts passes Validate, builds its policy, and survives String and a
// second parse unchanged.
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{"", "random", "quota", "quota:0.25", "ashop:3.5", "quota:NaN", "ashop:NaN", "ashop:Inf"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sp, err := ParseSpec(s)
		if err != nil {
			return
		}
		if err := sp.Validate(); err != nil {
			t.Fatalf("ParseSpec(%q) = %+v, which Validate rejects: %v", s, sp, err)
		}
		if _, err := sp.Policy(mapResolver{}); err != nil {
			t.Fatalf("ParseSpec(%q) = %+v, whose policy does not build: %v", s, sp, err)
		}
		if rt, err := ParseSpec(sp.String()); err != nil || rt != sp {
			t.Fatalf("ParseSpec(%q) = %+v, but ParseSpec(%q) = %+v, %v", s, sp, sp.String(), rt, err)
		}
	})
}

// TestShapeContracts checks every policy's flow-mix shaping: Uniform applies
// only the emergent boost; quota clamps the inter share; ashop:0 equals
// Uniform exactly (the frontier's continuity anchor).
func TestShapeContracts(t *testing.T) {
	cats := []isp.ISP{isp.TELE, isp.CNC, isp.Foreign}
	base := []float64{55, 25, 20}
	mk := func() []float64 { return append([]float64{}, base...) }

	uni := mk()
	Uniform{}.Shape(isp.TELE, cats, uni)
	if uni[0] != 55*8 || uni[1] != 25 || uni[2] != 20 {
		t.Fatalf("Uniform.Shape = %v, want [440 25 20]", uni)
	}

	res := mapResolver{}
	ah, err := NewASHop(res, 0)
	if err != nil {
		t.Fatal(err)
	}
	zero := mk()
	ah.Shape(isp.TELE, cats, zero)
	for i := range zero {
		if zero[i] != uni[i] {
			t.Fatalf("ashop:0 Shape[%d] = %g, want Uniform's %g", i, zero[i], uni[i])
		}
	}

	q, err := NewQuota(res, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	w := mk()
	q.Shape(isp.TELE, cats, w)
	sameW := w[0]
	interW := w[1] + w[2]
	if frac := interW / (sameW + interW); frac > 0.1+1e-9 {
		t.Fatalf("quota:0.1 Shape inter share %g exceeds cap", frac)
	}

	// F=0 zeroes the inter weights entirely (hard clamp) when local
	// population exists.
	q0, err := NewQuota(res, 0)
	if err != nil {
		t.Fatal(err)
	}
	w0 := mk()
	q0.Shape(isp.TELE, cats, w0)
	if w0[1] != 0 || w0[2] != 0 {
		t.Fatalf("quota:0 Shape kept inter weights: %v", w0)
	}

	// No local population: weights pass through un-clamped (nothing local
	// to shift bytes onto — avoids a zero-sum mix).
	wf := []float64{25, 20}
	q0.Shape(isp.TELE, []isp.ISP{isp.CNC, isp.Foreign}, wf)
	if wf[0] != 25 || wf[1] != 20 {
		t.Fatalf("quota:0 Shape without local population altered weights: %v", wf)
	}
}
