// Package selection makes peer selection a pluggable strategy. The paper's
// PPLive tracker samples peers with no locality awareness whatsoever (§3.2)
// and locality still emerges in the mesh; the related work instead engineers
// it — biased tracker replies with inter-ISP quotas ("Pushing BitTorrent
// Locality to the Limit") and AS-hop-aware ranking (Fukushima et al.). A
// Policy abstracts the choice so the tracker reply path, the peer referral
// path, and the flow-fidelity byte mix all bias (or don't) the same way, and
// the bias knob can be swept from pure-random to hard-clamped.
//
// Determinism contract: Uniform is the faithful PPLive behaviour and
// reproduces the legacy code paths bit-exactly — the same partial
// Fisher-Yates draw sequence on tracker replies (one Intn per returned
// address, zero when the reply is empty), zero RNG draws and an identity
// reorder on referrals, and the same float operations in the flow mix. The
// pinned golden digests depend on that. Biased policies draw only from the
// RNG stream they are handed (the owning domain's), so their trajectories
// are worker-count invariant too and get their own pinned golden.
//
// Policies hold no mutable state: one instance is shared by every tracker,
// session, and flow swarm across all shard-domain workers.
package selection

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"strconv"

	"pplivesim/internal/isp"
)

// Resolver maps an address to its ISP category (the asnmap.Registry
// signature). Policies that need topology consult it; Uniform never does.
type Resolver interface {
	ISPOf(addr netip.Addr) (isp.ISP, bool)
}

// Policy decides which peers a reply contains. Implementations must be
// stateless (safe for concurrent use from multiple shard workers) and must
// draw randomness only from the *rand.Rand they are passed.
type Policy interface {
	// Name returns the policy's spec string (e.g. "quota:0.25").
	Name() string

	// Sample composes a tracker reply: it permutes candidates in place so
	// that the first k' entries form the reply, and returns k' (<= k).
	// Entries beyond k' are unspecified. candidates arrives in address order
	// with the requester already excluded; k is the reply bound. rng is the
	// tracker's own deterministic stream.
	Sample(candidates []netip.Addr, from netip.Addr, k int, rng *rand.Rand) int

	// Refer shapes a peer referral reply: it reorders candidates in place
	// (most-preferred first) and returns how many to send. Referrals are
	// deterministic — no RNG — so the legacy gossip trajectory is preserved
	// exactly under Uniform (identity reorder, full length).
	Refer(candidates []netip.Addr, from netip.Addr) int

	// Shape rescales the flow-fidelity byte-mix weights in place: weights[i]
	// is the (unnormalized) share of a category-`local` swarm's streamed
	// bytes attributed to source ISP cats[i], initialized to that ISP's
	// population count. Every policy first applies the emergent same-ISP
	// boost (the flow-level stand-in for the full mesh's latency-bias
	// locality, which exists under any tracker policy) and then its own
	// engineered bias on top. The caller normalizes afterwards.
	Shape(local isp.ISP, cats []isp.ISP, weights []float64)
}

// sameISPBoost is the emergent-locality multiplier of the flow-fidelity
// byte mix (previously core's flowLocalityBoost): with the paper's TELE
// population share (~0.55) it lands intra-ISP traffic near the ~0.9 fraction
// the full-fidelity mesh converges to (Table 2 of the paper). It models the
// mesh's latency-biased neighbor acquisition, not the tracker, so biased
// policies multiply it rather than replace it.
const sameISPBoost = 8.0

// uniformSample is the legacy locality-unaware reply: a partial Fisher-Yates
// over the candidates, exactly k Intn draws (including the final Intn(1)),
// zero allocations.
func uniformSample(c []netip.Addr, k int, rng *rand.Rand) int {
	n := len(c)
	if k > n {
		k = n
	}
	for i := 0; i < k; i++ {
		j := i + rng.Intn(n-i)
		c[i], c[j] = c[j], c[i]
	}
	return k
}

// Uniform is the faithful PPLive policy: uniform random tracker samples,
// referral lists passed through untouched, and the plain emergent-boost flow
// mix. It is the zero-Spec default and the one the legacy golden digests pin.
type Uniform struct{}

// Name implements Policy.
func (Uniform) Name() string { return "random" }

// Sample implements Policy.
func (Uniform) Sample(c []netip.Addr, _ netip.Addr, k int, rng *rand.Rand) int {
	return uniformSample(c, k, rng)
}

// Refer implements Policy: identity — the recency order the session already
// maintains is the reply.
func (Uniform) Refer(c []netip.Addr, _ netip.Addr) int { return len(c) }

// Shape implements Policy: the emergent same-ISP boost only.
func (Uniform) Shape(local isp.ISP, cats []isp.ISP, weights []float64) {
	for i := range cats {
		if cats[i] == local {
			weights[i] *= sameISPBoost
		}
	}
}

// Quota biases replies toward the requester's ISP with a hard cap on the
// inter-ISP fraction, filling any inter-ISP shortfall from same-ISP
// candidates (and vice versa never: the quota is a ceiling, not a target).
// MaxInterFrac 0 clamps replies to same-ISP only; 1 disables the clamp.
type Quota struct {
	res          Resolver
	maxInterFrac float64
}

// NewQuota creates a quota policy; maxInterFrac must be in [0, 1].
func NewQuota(res Resolver, maxInterFrac float64) (*Quota, error) {
	if res == nil {
		return nil, fmt.Errorf("selection: quota policy needs a resolver")
	}
	if err := checkQuotaFrac(maxInterFrac); err != nil {
		return nil, err
	}
	return &Quota{res: res, maxInterFrac: maxInterFrac}, nil
}

// Name implements Policy.
func (q *Quota) Name() string { return "quota:" + trimFloat(q.maxInterFrac) }

// quotaCounts splits a reply of up to k entries between nSame same-ISP and
// nInter inter-ISP candidates: the inter count is capped at
// floor(F*k) and, when the same-ISP pool cannot fill the rest, further
// clamped so the *actual* reply's inter fraction never exceeds F (shortfall
// shrinks the reply rather than diluting the quota). Pure integer/float
// arithmetic — deterministic and shared by Sample and Refer.
func (q *Quota) quotaCounts(nSame, nInter, k int) (sameN, interN int) {
	interN = int(q.maxInterFrac*float64(k) + 1e-9)
	if interN > nInter {
		interN = nInter
	}
	for {
		sameN = k - interN
		if sameN > nSame {
			sameN = nSame
		}
		if q.maxInterFrac >= 1 {
			return sameN, interN
		}
		lim := int(q.maxInterFrac*float64(sameN)/(1-q.maxInterFrac) + 1e-9)
		if interN <= lim {
			return sameN, interN
		}
		interN = lim
	}
}

// Sample implements Policy: stable-partition the candidates into same-ISP
// and inter-ISP pools (address order preserved within each), apply the
// quota arithmetic, and draw each pool's share by partial Fisher-Yates —
// same-pool draws first, then inter-pool, so the draw sequence is a pure
// function of the candidate set.
func (q *Quota) Sample(c []netip.Addr, from netip.Addr, k int, rng *rand.Rand) int {
	if k > len(c) {
		k = len(c)
	}
	if k <= 0 {
		return 0
	}
	local, ok := q.res.ISPOf(from)
	if !ok {
		// Unmappable requester (no locality to bias toward): plain uniform.
		return uniformSample(c, k, rng)
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
	sameN, interN := q.quotaCounts(len(same), len(inter), k)
	for i := 0; i < sameN; i++ {
		j := i + rng.Intn(len(same)-i)
		same[i], same[j] = same[j], same[i]
	}
	for i := 0; i < interN; i++ {
		j := i + rng.Intn(len(inter)-i)
		inter[i], inter[j] = inter[j], inter[i]
	}
	n := copy(c, same[:sameN])
	n += copy(c[n:], inter[:interN])
	return n
}

// referBound is the longest referral list Quota.Refer partitions without
// allocating: a referral reply holds at most 255 entries (ReferralSize).
const referBound = 255

// Refer implements Policy: same-ISP entries first (original order), then
// inter-ISP entries up to the quota — deterministic, no RNG. The same-ISP
// entries move to the front of c in place and the inter-ISP ones wait in a
// stack buffer, so a list of up to referBound entries allocates nothing.
func (q *Quota) Refer(c []netip.Addr, from netip.Addr) int {
	local, ok := q.res.ISPOf(from)
	if !ok {
		return len(c)
	}
	var buf [referBound]netip.Addr
	inter := buf[:0]
	nSame := 0
	for _, a := range c {
		if cat, ok := q.res.ISPOf(a); ok && cat == local {
			c[nSame] = a
			nSame++
		} else {
			inter = append(inter, a)
		}
	}
	sameN, interN := q.quotaCounts(nSame, len(inter), len(c))
	return sameN + copy(c[sameN:], inter[:interN])
}

// Shape implements Policy: emergent boost, then rescale the inter-ISP
// weights so their normalized share cannot exceed MaxInterFrac. A swarm with
// no same-ISP population keeps its weights (there is nothing local to shift
// the bytes onto).
func (q *Quota) Shape(local isp.ISP, cats []isp.ISP, weights []float64) {
	Uniform{}.Shape(local, cats, weights)
	if q.maxInterFrac >= 1 {
		return
	}
	var sameW, interW float64
	for i := range cats {
		if cats[i] == local {
			sameW += weights[i]
		} else {
			interW += weights[i]
		}
	}
	if sameW == 0 || interW == 0 {
		return
	}
	limit := sameW * q.maxInterFrac / (1 - q.maxInterFrac)
	if interW <= limit {
		return
	}
	f := limit / interW
	for i := range cats {
		if cats[i] != local {
			weights[i] *= f
		}
	}
}

// Hops is the AS-hop distance between two ISP categories, mirroring the
// underlay's one-way-delay tiers (underlay.Config / core's flowRTT): 0 inside
// one ISP, 1 across domestic ISPs, 2 across the congested TELE-CNC transit,
// 3 for anything transoceanic.
func Hops(a, b isp.ISP) int {
	switch {
	case a == b:
		return 0
	case a == isp.Foreign || b == isp.Foreign:
		return 3
	case (a == isp.TELE && b == isp.CNC) || (a == isp.CNC && b == isp.TELE):
		return 2
	default:
		return 1
	}
}

// maxHops is the number of distinct Hops classes.
const maxHops = 4

// ASHop prefers AS-topologically close peers: a candidate at hop distance h
// from the requester is sampled with weight (1+h)^-Bias. Bias 0 is a uniform
// sample (soft), large Bias approaches nearest-first (but never starves a
// class outright — unlike Quota there is no hard clamp).
type ASHop struct {
	res  Resolver
	bias float64
	w    [maxHops]float64 // (1+h)^-bias, precomputed
}

// NewASHop creates an AS-hop policy; bias must be finite and >= 0.
func NewASHop(res Resolver, bias float64) (*ASHop, error) {
	if res == nil {
		return nil, fmt.Errorf("selection: ashop policy needs a resolver")
	}
	if err := checkBias(bias); err != nil {
		return nil, err
	}
	p := &ASHop{res: res, bias: bias}
	for h := 0; h < maxHops; h++ {
		p.w[h] = math.Pow(float64(1+h), -bias)
	}
	return p, nil
}

// Name implements Policy.
func (p *ASHop) Name() string { return "ashop:" + trimFloat(p.bias) }

// hopOf classifies a candidate; unmappable addresses count as farthest.
func (p *ASHop) hopOf(local isp.ISP, a netip.Addr) int {
	cat, ok := p.res.ISPOf(a)
	if !ok {
		return maxHops - 1
	}
	return Hops(local, cat)
}

// Sample implements Policy: weighted sampling without replacement. The
// candidates bucket into the four hop classes (two Float64/Intn draws per
// pick: class by mass, then uniform within the class), so the cost is
// O(n + k) and the draw count depends only on k.
func (p *ASHop) Sample(c []netip.Addr, from netip.Addr, k int, rng *rand.Rand) int {
	if k > len(c) {
		k = len(c)
	}
	if k <= 0 {
		return 0
	}
	local, ok := p.res.ISPOf(from)
	if !ok {
		return uniformSample(c, k, rng)
	}
	var buckets [maxHops][]netip.Addr
	for _, a := range c {
		h := p.hopOf(local, a)
		buckets[h] = append(buckets[h], a)
	}
	for picked := 0; picked < k; picked++ {
		var total float64
		for h := 0; h < maxHops; h++ {
			total += float64(len(buckets[h])) * p.w[h]
		}
		r := rng.Float64() * total
		h := 0
		for ; h < maxHops-1; h++ {
			mass := float64(len(buckets[h])) * p.w[h]
			if r < mass {
				break
			}
			r -= mass
		}
		for len(buckets[h]) == 0 {
			// Float roundoff landed on an empty class; take the next
			// non-empty one (deterministic, no extra draw).
			h = (h + 1) % maxHops
		}
		b := buckets[h]
		j := rng.Intn(len(b))
		c[picked] = b[j]
		b[j] = b[len(b)-1]
		buckets[h] = b[:len(b)-1]
	}
	return k
}

// Refer implements Policy: with any positive bias, a stable nearest-first
// reorder (hop class ascending, original order within a class); bias 0 keeps
// the caller's order. Deterministic, no RNG, nothing dropped.
func (p *ASHop) Refer(c []netip.Addr, from netip.Addr) int {
	if p.bias == 0 {
		return len(c)
	}
	local, ok := p.res.ISPOf(from)
	if !ok {
		return len(c)
	}
	var buckets [maxHops][]netip.Addr
	for _, a := range c {
		h := p.hopOf(local, a)
		buckets[h] = append(buckets[h], a)
	}
	n := 0
	for h := 0; h < maxHops; h++ {
		n += copy(c[n:], buckets[h])
	}
	return n
}

// Shape implements Policy: emergent boost times the hop-class weight.
func (p *ASHop) Shape(local isp.ISP, cats []isp.ISP, weights []float64) {
	Uniform{}.Shape(local, cats, weights)
	for i := range cats {
		weights[i] *= p.w[Hops(local, cats[i])]
	}
}

// trimFloat formats a knob value the way ParseSpec accepts it back.
func trimFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
