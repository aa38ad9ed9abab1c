package fault

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"
	"time"

	"pplivesim/internal/isp"
)

// recordLen is the size of one fault in the fuzz encoding: kind, target, the
// two ISP categories and the partition flag, then At, Recover and AddDelay as
// int64 and the loss or fraction as float64 bits.
const recordLen = 5 + 4*8

// encodeFault appends one fault record. kind indexes the Schedule's slices in
// declaration order: 0 source crash, 1 tracker outage, 2 link fault, 3 burst
// loss, 4 peer kill, 5 edge crash.
func encodeFault(b []byte, kind, target int, a, bISP isp.ISP, partition bool, at, rec, delay time.Duration, x float64) []byte {
	var flag byte
	if partition {
		flag = 1
	}
	b = append(b, byte(kind), byte(int8(target)), byte(a), byte(bISP), flag)
	for _, v := range []uint64{uint64(at), uint64(rec), uint64(delay), math.Float64bits(x)} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b
}

// encodeSchedule is the fuzz encoding of s, so decodeSchedule(encodeSchedule(s))
// rebuilds s.
func encodeSchedule(s *Schedule) []byte {
	var b []byte
	for _, f := range s.SourceCrashes {
		b = encodeFault(b, 0, f.Channel, 0, 0, false, f.At, f.Recover, 0, 0)
	}
	for _, f := range s.TrackerOutages {
		b = encodeFault(b, 1, f.Group, 0, 0, false, f.At, f.Recover, 0, 0)
	}
	for _, f := range s.LinkFaults {
		b = encodeFault(b, 2, 0, f.A, f.B, f.Partition, f.At, f.Recover, f.AddDelay, f.AddLoss)
	}
	for _, f := range s.BurstLosses {
		b = encodeFault(b, 3, 0, 0, 0, false, f.At, f.Recover, 0, f.Loss)
	}
	for _, f := range s.PeerKills {
		b = encodeFault(b, 4, 0, f.ISP, 0, false, f.At, 0, 0, f.Fraction)
	}
	for _, f := range s.EdgeCrashes {
		b = encodeFault(b, 5, f.Edge, 0, 0, false, f.At, f.Recover, 0, 0)
	}
	return b
}

// decodeSchedule reads whole fault records from b and ignores a trailing
// partial one.
func decodeSchedule(b []byte) *Schedule {
	s := new(Schedule)
	for ; len(b) >= recordLen; b = b[recordLen:] {
		target, a, bISP, partition := int(int8(b[1])), isp.ISP(b[2]), isp.ISP(b[3]), b[4]&1 != 0
		word := func(i int) uint64 { return binary.LittleEndian.Uint64(b[5+8*i:]) }
		at, rec, delay, x := time.Duration(word(0)), time.Duration(word(1)), time.Duration(word(2)), math.Float64frombits(word(3))
		switch b[0] % 6 {
		case 0:
			s.SourceCrashes = append(s.SourceCrashes, SourceCrash{Channel: target, At: at, Recover: rec})
		case 1:
			s.TrackerOutages = append(s.TrackerOutages, TrackerOutage{Group: target, At: at, Recover: rec})
		case 2:
			s.LinkFaults = append(s.LinkFaults, LinkFault{A: a, B: bISP, At: at, Recover: rec, AddLoss: x, AddDelay: delay, Partition: partition})
		case 3:
			s.BurstLosses = append(s.BurstLosses, BurstLoss{At: at, Recover: rec, Loss: x})
		case 4:
			s.PeerKills = append(s.PeerKills, PeerKill{ISP: a, Fraction: x, At: at})
		case 5:
			s.EdgeCrashes = append(s.EdgeCrashes, EdgeCrash{Edge: target, At: at, Recover: rec})
		}
	}
	return s
}

// FuzzValidate holds Validate to what a run relies on: whenever it accepts a
// schedule, every fault window starts inside the horizon and does not end
// before it starts, and every loss and kill fraction is a finite number in
// [0, 1].
func FuzzValidate(f *testing.F) {
	warmUp, watch := 3*time.Minute, 6*time.Minute
	horizon := int64(warmUp + watch)
	for _, name := range PresetNames() {
		s, err := Preset(name, warmUp, watch)
		if err != nil {
			f.Fatal(err)
		}
		if got := decodeSchedule(encodeSchedule(s)); !reflect.DeepEqual(got, s) {
			f.Fatalf("preset %q does not survive the fuzz encoding: %+v", name, got)
		}
		f.Add(horizon, uint8(1), uint8(1), uint8(0), encodeSchedule(s))
	}
	nan := &Schedule{BurstLosses: []BurstLoss{{At: warmUp, Recover: warmUp + time.Minute, Loss: math.NaN()}}}
	f.Add(horizon, uint8(1), uint8(1), uint8(0), encodeSchedule(nan))

	f.Fuzz(func(t *testing.T, horizon int64, channels, groups, edges uint8, data []byte) {
		s := decodeSchedule(data)
		h := time.Duration(horizon)
		if s.Validate(int(channels), int(groups), int(edges), h) != nil {
			return
		}
		for _, w := range s.Windows() {
			if w.Start < 0 || w.End < w.Start || w.Start >= h {
				t.Errorf("accepted window %s [%v, %v) with horizon %v", w.Label, w.Start, w.End, h)
			}
		}
		check := func(what string, x float64) {
			if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 || x > 1 {
				t.Errorf("accepted %s %v", what, x)
			}
		}
		for _, lf := range s.LinkFaults {
			check("link fault AddLoss", lf.AddLoss)
		}
		for _, bl := range s.BurstLosses {
			check("burst loss", bl.Loss)
		}
		for _, pk := range s.PeerKills {
			check("peer kill fraction", pk.Fraction)
		}
	})
}
