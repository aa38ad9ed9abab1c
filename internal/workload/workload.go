// Package workload generates scenario populations: per-ISP viewer counts for
// popular and unpopular channels, access-capacity distributions, churn
// processes, and the 28-day schedule behind the paper's Figure 6.
//
// The paper measured from Oct 11 to Nov 7 2008 with probes in TELE, CNC,
// CER, and a US campus. Channel popularity in China drives the per-ISP mix:
// a popular channel is dominated by TELE viewers (China Telecom covers most
// residential users), an unpopular one has a smaller, CNC-tilted audience,
// and only a thin slice of either audience is outside China.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"pplivesim/internal/isp"
	"pplivesim/internal/stream"
)

// Population is the steady-state concurrent viewer count per ISP.
type Population map[isp.ISP]int

// Total returns the total concurrent viewers.
func (p Population) Total() int {
	sum := 0
	for _, n := range p {
		sum += n
	}
	return sum
}

// Scale returns a copy with every count multiplied by f (rounded, min 1 for
// non-zero inputs).
func (p Population) Scale(f float64) Population {
	out := make(Population, len(p))
	for k, n := range p {
		if n == 0 {
			continue
		}
		scaled := int(math.Round(float64(n) * f))
		if scaled < 1 {
			scaled = 1
		}
		out[k] = scaled
	}
	return out
}

// PopularPopulation models a prime-time popular channel: TELE-dominated with
// meaningful CNC and Foreign contingents (PPLive "has a large number of
// users outside China as well").
func PopularPopulation() Population {
	return Population{
		isp.TELE:    720,
		isp.CNC:     330,
		isp.CER:     45,
		isp.OtherCN: 105,
		isp.Foreign: 130,
	}
}

// UnpopularPopulation models a niche channel: a small audience in which CNC
// slightly outnumbers TELE (as Figure 3(a) shows for returned addresses) and
// very few Foreign viewers (the paper attributes the Mason probe's poor
// locality on this channel to exactly that scarcity).
func UnpopularPopulation() Population {
	return Population{
		isp.TELE:    70,
		isp.CNC:     85,
		isp.CER:     10,
		isp.OtherCN: 28,
		isp.Foreign: 12,
	}
}

// Churn configures the background-viewer session process.
type Churn struct {
	// Enabled turns churn on; when off, the initial population stays for
	// the whole run.
	Enabled bool
	// MeanSession is the mean viewer session length (log-normal-ish:
	// exponential clipped below at MinSession).
	MeanSession time.Duration
	// MinSession clips very short sessions.
	MinSession time.Duration
	// ReplacementDelay is the mean delay before a departed viewer's
	// replacement joins (keeps the population roughly stationary while
	// growing the set of unique addresses the probes observe, as in the
	// real traces).
	ReplacementDelay time.Duration
}

// DefaultChurn matches live-TV viewing: mean half-hour sessions.
func DefaultChurn() Churn {
	return Churn{
		Enabled:          true,
		MeanSession:      30 * time.Minute,
		MinSession:       2 * time.Minute,
		ReplacementDelay: 30 * time.Second,
	}
}

// SessionLength draws one session duration.
func (c Churn) SessionLength(rng *rand.Rand) time.Duration {
	d := time.Duration(rng.ExpFloat64() * float64(c.MeanSession))
	if d < c.MinSession {
		d = c.MinSession
	}
	return d
}

// Switching configures the channel-browsing process of the paper's user
// behaviour study (§5): a fraction of viewers hop between the scenario's
// channels, dwelling on each for a log-normally distributed time and picking
// the next channel with popularity-proportional probability.
type Switching struct {
	// Enabled turns switching on. When off (the zero value), every viewer
	// stays on their initial channel and no extra RNG draws happen, so
	// single-channel scenarios are bit-identical to the pre-switching code.
	Enabled bool
	// SwitcherFraction is the share of viewers that browse at all; the rest
	// are loyal to their arrival channel.
	SwitcherFraction float64
	// MedianDwell is the median time a switcher stays on one channel before
	// hopping; dwell times are log-normal around it with shape SigmaDwell.
	MedianDwell time.Duration
	// SigmaDwell is the log-normal shape parameter (σ of ln dwell).
	SigmaDwell float64
	// MinDwell clips implausibly fast hops (a viewer needs a few seconds to
	// judge a channel).
	MinDwell time.Duration
}

// DefaultSwitching models casual channel browsing: roughly a third of the
// audience hops, staying a few minutes per channel.
func DefaultSwitching() Switching {
	return Switching{
		Enabled:          true,
		SwitcherFraction: 0.35,
		MedianDwell:      4 * time.Minute,
		SigmaDwell:       0.9,
		MinDwell:         20 * time.Second,
	}
}

// Validate checks the parameters (only when enabled).
func (s Switching) Validate() error {
	if !s.Enabled {
		return nil
	}
	if s.SwitcherFraction < 0 || s.SwitcherFraction > 1 {
		return fmt.Errorf("workload: switcher fraction %v outside [0,1]", s.SwitcherFraction)
	}
	if s.MedianDwell <= 0 {
		return fmt.Errorf("workload: non-positive median dwell %v", s.MedianDwell)
	}
	if s.SigmaDwell < 0 {
		return fmt.Errorf("workload: negative dwell sigma %v", s.SigmaDwell)
	}
	return nil
}

// IsSwitcher draws whether a freshly arrived viewer browses channels.
func (s Switching) IsSwitcher(rng *rand.Rand) bool {
	return rng.Float64() < s.SwitcherFraction
}

// Dwell draws one log-normal dwell time: MedianDwell · exp(σ·N(0,1)),
// clipped below at MinDwell.
func (s Switching) Dwell(rng *rand.Rand) time.Duration {
	d := time.Duration(float64(s.MedianDwell) * math.Exp(s.SigmaDwell*rng.NormFloat64()))
	if d < s.MinDwell {
		d = s.MinDwell
	}
	return d
}

// Next picks the next channel index with probability proportional to
// weights (channel popularity), excluding the current channel cur. With a
// single channel it returns cur. The walk over weights is index-ordered, so
// the draw is deterministic for a given RNG stream.
func (s Switching) Next(rng *rand.Rand, weights []float64, cur int) int {
	total := 0.0
	for i, w := range weights {
		if i == cur || w <= 0 {
			continue
		}
		total += w
	}
	if total <= 0 {
		return cur
	}
	x := rng.Float64() * total
	for i, w := range weights {
		if i == cur || w <= 0 {
			continue
		}
		if x < w {
			return i
		}
		x -= w
	}
	// Float round-off: fall back to the last eligible index.
	for i := len(weights) - 1; i >= 0; i-- {
		if i != cur && weights[i] > 0 {
			return i
		}
	}
	return cur
}

// FlashCrowd configures an arrival spike at a channel's event start: a
// popular program begins and a burst of extra viewers joins within a short
// window, the load shape the locality literature warns inverts steady-state
// savings. Like Switching, the zero value is fully off and costs no RNG
// draws, so scenarios without a spike keep their pre-flash-crowd
// trajectories bit for bit.
type FlashCrowd struct {
	// Enabled turns the spike on.
	Enabled bool
	// Channel is the scenario channel index (not wire ID) the spike targets.
	Channel int
	// At is the event start: spike arrivals begin at this instant.
	At time.Duration
	// Multiplier sizes the spike: the burst adds Multiplier × the base
	// steady-state population (10 means a 10× arrival spike). The per-ISP
	// burst counts are a deterministic function of the base population — no
	// RNG — so only arrival instants draw randomness.
	Multiplier float64
	// Window is the interval the spike arrivals spread over; offsets are
	// drawn front-loaded (truncated exponential) so the burst peaks at the
	// event start like a real tune-in wave.
	Window time.Duration
}

// DefaultFlashCrowd is the paper-motivated stress case: a 10× arrival spike
// packed into the two minutes after the event starts.
func DefaultFlashCrowd(at time.Duration) FlashCrowd {
	return FlashCrowd{
		Enabled:    true,
		Channel:    0,
		At:         at,
		Multiplier: 10,
		Window:     2 * time.Minute,
	}
}

// Validate checks the parameters (only when enabled).
func (f FlashCrowd) Validate() error {
	if !f.Enabled {
		return nil
	}
	if f.Channel < 0 {
		return fmt.Errorf("workload: flash-crowd channel %d negative", f.Channel)
	}
	if f.At < 0 {
		return fmt.Errorf("workload: flash-crowd start %v negative", f.At)
	}
	if f.Multiplier <= 0 {
		return fmt.Errorf("workload: flash-crowd multiplier %v not positive", f.Multiplier)
	}
	if f.Window <= 0 {
		return fmt.Errorf("workload: flash-crowd window %v not positive", f.Window)
	}
	return nil
}

// SpikeCount returns the number of spike arrivals for an ISP whose base
// steady-state population is base: a deterministic rounding of Multiplier ×
// base, so worker partitioning can never change how many viewers each shard
// spawns.
func (f FlashCrowd) SpikeCount(base int) int {
	if !f.Enabled || base <= 0 {
		return 0
	}
	return int(math.Round(f.Multiplier * float64(base)))
}

// ArrivalOffset draws one spike arrival's offset past At: truncated
// exponential with mean Window/3, clipped to [0, Window), front-loading the
// burst at the event start. Callers must pass the owning shard's RNG stream
// so the spike is worker-count invariant.
func (f FlashCrowd) ArrivalOffset(rng *rand.Rand) time.Duration {
	d := time.Duration(rng.ExpFloat64() * float64(f.Window) / 3)
	if d >= f.Window {
		d = f.Window - 1
	}
	return d
}

// UploadCapacity draws an access uplink capacity (bytes/sec) for a viewer in
// the given ISP: 2008-era residential ADSL in China (512 kbit/s – 1 Mbit/s
// up), campus connectivity on CERNET, and residential broadband abroad
// (PPLive's overseas audience was overwhelmingly consumer DSL/cable; modest
// asymmetric uplinks, slightly richer than Chinese ADSL).
func UploadCapacity(rng *rand.Rand, category isp.ISP) float64 {
	uniform := func(lo, hi float64) float64 { return lo + rng.Float64()*(hi-lo) }
	switch category {
	case isp.CER:
		return uniform(150<<10, 400<<10)
	case isp.Foreign:
		return uniform(56<<10, 144<<10)
	default: // TELE, CNC, OtherCN residential ADSL
		return uniform(48<<10, 112<<10)
	}
}

// ProcDelay draws a per-host application processing delay.
func ProcDelay(rng *rand.Rand) time.Duration {
	return time.Duration(2+rng.Intn(8)) * time.Millisecond
}

// PopularSpec returns the popular channel's stream spec.
func PopularSpec() stream.Spec {
	return stream.DefaultSpec(1, "popular-live", 950_000)
}

// UnpopularSpec returns the unpopular channel's stream spec.
func UnpopularSpec() stream.Spec {
	return stream.DefaultSpec(2, "unpopular-live", 1_200)
}

// DayFactor returns the population multiplier for day d (0-based) of the
// 4-week window: a weekly rhythm (weekend bumps) plus a deterministic
// per-day wobble. Day 0 is a Saturday (Oct 11 2008 was).
func DayFactor(day int) float64 {
	weekday := day % 7
	base := 1.0
	if weekday == 0 || weekday == 1 { // Sat, Sun
		base = 1.25
	}
	// Deterministic wobble in [0.85, 1.15] from a hash of the day.
	h := uint64(day)*2654435761 + 12345
	h ^= h >> 13
	wobble := 0.85 + 0.30*float64(h%1000)/1000.0
	return base * wobble
}

// ForeignDayFactor is the day multiplier applied to the Foreign contingent
// only. The paper finds the Mason probe's locality "varies significantly
// even for the popular program because the popular program in China is not
// necessarily popular outside China" — foreign interest is much more
// volatile, so its wobble is wider.
func ForeignDayFactor(day int) float64 {
	h := uint64(day)*40503 + 99991
	h ^= h >> 11
	return 0.25 + 1.6*float64(h%1000)/1000.0
}
