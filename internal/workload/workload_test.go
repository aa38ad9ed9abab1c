package workload

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"pplivesim/internal/isp"
)

func TestPopulationTotals(t *testing.T) {
	pop := PopularPopulation()
	if pop.Total() < 1000 {
		t.Errorf("popular total = %d, want a large audience", pop.Total())
	}
	unpop := UnpopularPopulation()
	if unpop.Total() > 300 {
		t.Errorf("unpopular total = %d, want a small audience", unpop.Total())
	}
	if pop[isp.TELE] <= pop[isp.CNC] {
		t.Error("popular channel should be TELE-dominated")
	}
	if unpop[isp.CNC] <= unpop[isp.TELE] {
		t.Error("unpopular channel should have CNC slightly ahead (Fig. 3a)")
	}
	if unpop[isp.Foreign] >= 20 {
		t.Error("unpopular channel should have very few foreign viewers (Fig. 5)")
	}
}

func TestPopulationScale(t *testing.T) {
	pop := Population{isp.TELE: 100, isp.CNC: 1, isp.CER: 0}
	half := pop.Scale(0.5)
	if half[isp.TELE] != 50 {
		t.Errorf("TELE scaled = %d", half[isp.TELE])
	}
	if half[isp.CNC] != 1 {
		t.Errorf("non-zero class scaled to %d, want floor of 1", half[isp.CNC])
	}
	if _, ok := half[isp.CER]; ok {
		t.Error("zero class materialized")
	}
	if pop[isp.TELE] != 100 {
		t.Error("Scale mutated the receiver")
	}
}

func TestChurnSessionLength(t *testing.T) {
	c := DefaultChurn()
	rng := rand.New(rand.NewSource(1))
	var sum time.Duration
	const n = 2000
	for i := 0; i < n; i++ {
		d := c.SessionLength(rng)
		if d < c.MinSession {
			t.Fatalf("session %v below minimum %v", d, c.MinSession)
		}
		sum += d
	}
	mean := sum / n
	if mean < c.MeanSession/2 || mean > 2*c.MeanSession {
		t.Errorf("mean session %v far from configured %v", mean, c.MeanSession)
	}
}

func TestUploadCapacityRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		for _, category := range isp.All() {
			up := UploadCapacity(rng, category)
			if up <= 0 {
				t.Fatalf("%s capacity %f", category, up)
			}
			switch category {
			case isp.TELE, isp.CNC, isp.OtherCN:
				if up < 48<<10 || up > 112<<10 {
					t.Fatalf("%s ADSL capacity %f out of range", category, up)
				}
			case isp.CER:
				if up < 150<<10 {
					t.Fatalf("campus capacity %f below range", up)
				}
			}
		}
	}
}

func TestProcDelayBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		d := ProcDelay(rng)
		if d < 2*time.Millisecond || d > 10*time.Millisecond {
			t.Fatalf("proc delay %v out of range", d)
		}
	}
}

// TestChannelSpecs pins the standard scenarios' channel IDs (1 popular,
// 2 unpopular) and their order on the channel list.
func TestChannelSpecs(t *testing.T) {
	pop, unpop := PopularSpec(), UnpopularSpec()
	if pop.Channel != 1 || unpop.Channel != 2 {
		t.Errorf("channel IDs = %d, %d, want 1, 2", pop.Channel, unpop.Channel)
	}
	if pop.Rating <= unpop.Rating {
		t.Error("popular channel must out-rate unpopular")
	}
}

func TestDayFactors(t *testing.T) {
	// Deterministic.
	if DayFactor(3) != DayFactor(3) || ForeignDayFactor(3) != ForeignDayFactor(3) {
		t.Error("day factors not deterministic")
	}
	// Weekend (days 0,1 = Sat,Sun with Oct 11 2008 a Saturday) above weekday
	// on average.
	var weekend, weekday float64
	weekendN, weekdayN := 0, 0
	for d := 0; d < 28; d++ {
		f := DayFactor(d)
		if f <= 0 {
			t.Fatalf("DayFactor(%d) = %f", d, f)
		}
		if d%7 <= 1 {
			weekend += f
			weekendN++
		} else {
			weekday += f
			weekdayN++
		}
	}
	if weekend/float64(weekendN) <= weekday/float64(weekdayN) {
		t.Error("weekend factor not above weekday on average")
	}
}

// Property: ForeignDayFactor varies much more than DayFactor (the paper's
// explanation for Mason's volatile locality).
func TestForeignVolatilityExceedsDomestic(t *testing.T) {
	spread := func(f func(int) float64) float64 {
		lo, hi := f(0), f(0)
		for d := 1; d < 28; d++ {
			v := f(d)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		return hi - lo
	}
	if spread(ForeignDayFactor) <= spread(DayFactor) {
		t.Error("foreign day factor spread not wider than domestic")
	}
}

// Property: Scale with factor 1 reproduces counts; factor in (0,1] keeps
// totals within bounds.
func TestPropertyScaleBounds(t *testing.T) {
	f := func(counts [5]uint8, factorRaw uint8) bool {
		pop := Population{}
		for i, c := range counts {
			pop[isp.All()[i]] = int(c)
		}
		one := pop.Scale(1)
		for k, v := range pop {
			if v != 0 && one[k] != v {
				return false
			}
		}
		factor := float64(factorRaw%100+1) / 100.0
		scaled := pop.Scale(factor)
		return scaled.Total() <= pop.Total()+len(pop)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(9))}); err != nil {
		t.Error(err)
	}
}

func TestFlashCrowdValidate(t *testing.T) {
	if err := (FlashCrowd{}).Validate(); err != nil {
		t.Errorf("disabled zero value invalid: %v", err)
	}
	if err := DefaultFlashCrowd(10 * time.Minute).Validate(); err != nil {
		t.Errorf("default flash crowd invalid: %v", err)
	}
	cases := []FlashCrowd{
		{Enabled: true, Channel: -1, At: time.Minute, Multiplier: 10, Window: time.Minute},
		{Enabled: true, At: -time.Second, Multiplier: 10, Window: time.Minute},
		{Enabled: true, At: time.Minute, Multiplier: 0, Window: time.Minute},
		{Enabled: true, At: time.Minute, Multiplier: 10, Window: 0},
	}
	for i, f := range cases {
		if err := f.Validate(); err == nil {
			t.Errorf("case %d: invalid flash crowd accepted: %+v", i, f)
		}
	}
}

func TestFlashCrowdSpikeCount(t *testing.T) {
	f := DefaultFlashCrowd(10 * time.Minute)
	if got := f.SpikeCount(720); got != 7200 {
		t.Errorf("SpikeCount(720) = %d, want 7200", got)
	}
	if got := f.SpikeCount(0); got != 0 {
		t.Errorf("SpikeCount(0) = %d, want 0", got)
	}
	if got := (FlashCrowd{}).SpikeCount(720); got != 0 {
		t.Errorf("disabled SpikeCount = %d, want 0", got)
	}
	// Deterministic: no RNG anywhere in the sizing.
	if f.SpikeCount(45) != f.SpikeCount(45) {
		t.Error("SpikeCount not deterministic")
	}
}

func TestFlashCrowdArrivalOffsetFrontLoaded(t *testing.T) {
	f := DefaultFlashCrowd(10 * time.Minute)
	rng := rand.New(rand.NewSource(7))
	firstHalf := 0
	const n = 10000
	for i := 0; i < n; i++ {
		off := f.ArrivalOffset(rng)
		if off < 0 || off >= f.Window {
			t.Fatalf("offset %v outside [0, %v)", off, f.Window)
		}
		if off < f.Window/2 {
			firstHalf++
		}
	}
	// Truncated exponential with mean Window/3: well over half the arrivals
	// land in the first half of the window.
	if frac := float64(firstHalf) / n; frac < 0.7 {
		t.Errorf("first-half arrival share = %v, want front-loaded (>0.7)", frac)
	}
}
