package analysis

import (
	"math"
	"time"
)

// RTSketch is a bounded, mergeable response-time distribution summary: a
// fixed-centroid sketch in the t-digest family, with centroids pinned to a
// geometric grid rather than adapted to the data so that merging is exact
// (bin-wise addition) and streaming/merged results are bit-identical to a
// single-pass build regardless of shard order.
//
// The grid spans sketchFloor..sketchCeil in sketchBins-2 geometric steps;
// bin 0 collects underflow and the last bin overflow. At 64 bins the ratio
// between adjacent centroids is ~1.21, i.e. quantile estimates carry ~10%
// relative error — ample for response-time distributions spanning four
// orders of magnitude. Exact Count/Sum/Min/Max ride along, so Mean is exact
// and quantiles clamp into the observed range.
type RTSketch struct {
	Count uint64
	Sum   time.Duration
	Min   time.Duration
	Max   time.Duration
	Bins  [sketchBins]uint64
}

const (
	sketchBins  = 64
	sketchFloor = time.Millisecond
	sketchCeil  = 100 * time.Second
)

// sketchStep is the log of the ratio between adjacent bin boundaries.
var sketchStep = math.Log(float64(sketchCeil)/float64(sketchFloor)) / float64(sketchBins-2)

// sketchBin maps a duration to its bin index.
func sketchBin(d time.Duration) int {
	if d < sketchFloor {
		return 0
	}
	if d >= sketchCeil {
		return sketchBins - 1
	}
	i := 1 + int(math.Log(float64(d)/float64(sketchFloor))/sketchStep)
	if i < 1 {
		i = 1
	}
	if i > sketchBins-2 {
		i = sketchBins - 2
	}
	return i
}

// sketchCentroid is the representative duration of a bin: the geometric
// midpoint of its boundaries (half the floor for underflow, the ceiling for
// overflow).
func sketchCentroid(i int) time.Duration {
	switch {
	case i <= 0:
		return sketchFloor / 2
	case i >= sketchBins-1:
		return sketchCeil
	default:
		lo := float64(sketchFloor) * math.Exp(float64(i-1)*sketchStep)
		return time.Duration(lo * math.Exp(sketchStep/2))
	}
}

// Add folds one observation into the sketch.
func (s *RTSketch) Add(d time.Duration) { s.AddN(d, 1) }

// AddN folds n observations of the same duration into the sketch, exactly as
// n calls of Add would.
func (s *RTSketch) AddN(d time.Duration, n uint64) {
	if n == 0 {
		return
	}
	if s.Count == 0 || d < s.Min {
		s.Min = d
	}
	if s.Count == 0 || d > s.Max {
		s.Max = d
	}
	s.Count += n
	s.Sum += time.Duration(n) * d
	s.Bins[sketchBin(d)] += n
}

// Merge folds another sketch into this one. Because centroids are fixed,
// merging loses nothing: the result equals a sketch built from the
// concatenated observations.
func (s *RTSketch) Merge(o *RTSketch) {
	if o == nil || o.Count == 0 {
		return
	}
	if s.Count == 0 || o.Min < s.Min {
		s.Min = o.Min
	}
	if s.Count == 0 || o.Max > s.Max {
		s.Max = o.Max
	}
	s.Count += o.Count
	s.Sum += o.Sum
	for i := range s.Bins {
		s.Bins[i] += o.Bins[i]
	}
}

// Mean returns the exact mean (Sum/Count), zero when empty.
func (s *RTSketch) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// Quantile estimates the q-quantile (q in [0,1]) as the centroid of the bin
// holding the rank-⌈q·Count⌉ observation, clamped to [Min, Max]. Empty
// sketches return zero.
func (s *RTSketch) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q <= 0 {
		return s.Min
	}
	if q >= 1 {
		return s.Max
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, n := range s.Bins {
		cum += n
		if cum >= rank {
			est := sketchCentroid(i)
			if est < s.Min {
				est = s.Min
			}
			if est > s.Max {
				est = s.Max
			}
			return est
		}
	}
	return s.Max
}
