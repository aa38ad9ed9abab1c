// Package fault defines the declarative fault-injection schedule the core
// orchestrator executes against a running scenario: source crash/recovery,
// tracker outage windows, per-ISP-pair transit degradation and partition,
// swarm-wide burst loss, and abrupt peer kills (crash without Leave).
//
// Determinism contract: a Schedule is pure data. The core layer translates it
// into events on the owning shard's engine at Build time, and every random
// draw a fault needs (which peers a kill selects) comes from that shard's own
// RNG stream — so a fault run is bit-reproducible at any worker count. A nil
// schedule installs no events, enables no resilience code paths, and performs
// no RNG draws, leaving fault-free trajectories bit-identical to a build
// without this package (the pinned golden digests enforce this).
package fault

import (
	"fmt"
	"time"

	"pplivesim/internal/isp"
)

// SourceCrash takes one channel's source server down for a window: while
// down, the source drops every inbound datagram (UDP crash semantics — no
// RST, peers only see silence). On recovery it serves again, including every
// piece emitted while it was down (the encoder kept running).
type SourceCrash struct {
	// Channel is the index into the scenario's channel set (0 = first).
	Channel int
	At      time.Duration
	Recover time.Duration
}

// TrackerOutage takes a tracker group's servers down for a window; down
// trackers drop every inbound datagram before any processing (and before any
// RNG draw, so their reply streams resume unperturbed on recovery).
type TrackerOutage struct {
	// Group selects one of the tracker groups (0-based); -1 takes every
	// group down (a full control-plane outage).
	Group   int
	At      time.Duration
	Recover time.Duration
}

// LinkFault degrades (or fully partitions) the transit path between two ISP
// categories for a window, symmetrically. A == B degrades an ISP's internal
// fabric. AddLoss is added to the path's base loss probability; AddDelay is
// added to every surviving datagram's one-way delay (delay is only ever
// added, so the PDES lookahead bound still holds). Partition drops every
// datagram on the pair for the window.
type LinkFault struct {
	A, B      isp.ISP
	At        time.Duration
	Recover   time.Duration
	AddLoss   float64
	AddDelay  time.Duration
	Partition bool
}

// BurstLoss adds Loss to every path in the world for a window — correlated
// loss, as in a routing flap or an overloaded exchange.
type BurstLoss struct {
	At      time.Duration
	Recover time.Duration
	Loss    float64
}

// EdgeCrash takes a CDN edge cache down for a window: while down the edge
// drops every inbound datagram (same UDP crash semantics as SourceCrash).
// Its out-of-band ingest clock keeps running, so the cache is warm again the
// moment it recovers.
type EdgeCrash struct {
	// Edge is the index into the scenario's edge set in placement order;
	// -1 crashes every edge (a full CDN outage).
	Edge    int
	At      time.Duration
	Recover time.Duration
}

// PeerKill abruptly crashes a fraction of the currently-alive background
// viewers at an instant: no tracker Leaving announce, no goodbye — their
// entries linger in tracker registries until TTL and in neighbor tables
// until silence/keepalive eviction, exactly like a real mass crash. Distinct
// from workload churn, whose departures leave gracefully.
type PeerKill struct {
	// ISP restricts the kill to one category; zero kills across all ISPs.
	ISP      isp.ISP
	Fraction float64
	At       time.Duration
}

// Schedule is the full declarative fault plan for one scenario run. The zero
// value (or a nil *Schedule) injects nothing; core only enables the peers'
// resilience behaviours when a non-nil schedule is present.
type Schedule struct {
	SourceCrashes  []SourceCrash
	TrackerOutages []TrackerOutage
	LinkFaults     []LinkFault
	BurstLosses    []BurstLoss
	PeerKills      []PeerKill
	EdgeCrashes    []EdgeCrash

	// SampleInterval is the probe-side resilience sampling period (continuity
	// and per-ISP byte counters); zero means DefaultSampleInterval.
	SampleInterval time.Duration
}

// DefaultSampleInterval is the resilience sampling period when the schedule
// does not set one.
const DefaultSampleInterval = 2 * time.Second

// SampleEvery returns the effective resilience sampling period.
func (s *Schedule) SampleEvery() time.Duration {
	if s.SampleInterval > 0 {
		return s.SampleInterval
	}
	return DefaultSampleInterval
}

// Validate checks the schedule against a scenario's shape: channels is the
// channel count, trackerGroups the tracker group count, edges the CDN edge
// count, and horizon the total simulated time.
func (s *Schedule) Validate(channels, trackerGroups, edges int, horizon time.Duration) error {
	window := func(kind string, at, rec time.Duration) error {
		if at < 0 || rec <= at {
			return fmt.Errorf("fault: %s window [%s, %s) is empty or negative", kind, at, rec)
		}
		if at >= horizon {
			return fmt.Errorf("fault: %s starts at %s, beyond the %s horizon", kind, at, horizon)
		}
		return nil
	}
	for _, f := range s.SourceCrashes {
		if f.Channel < 0 || f.Channel >= channels {
			return fmt.Errorf("fault: source crash targets channel %d of %d", f.Channel, channels)
		}
		if err := window("source crash", f.At, f.Recover); err != nil {
			return err
		}
	}
	for _, f := range s.TrackerOutages {
		if f.Group < -1 || f.Group >= trackerGroups {
			return fmt.Errorf("fault: tracker outage targets group %d of %d", f.Group, trackerGroups)
		}
		if err := window("tracker outage", f.At, f.Recover); err != nil {
			return err
		}
	}
	for _, f := range s.LinkFaults {
		if !f.A.Valid() || !f.B.Valid() {
			return fmt.Errorf("fault: link fault on invalid ISP pair (%v, %v)", f.A, f.B)
		}
		if err := window("link fault", f.At, f.Recover); err != nil {
			return err
		}
		if !(f.AddLoss >= 0 && f.AddLoss <= 1) {
			return fmt.Errorf("fault: link fault AddLoss %v out of [0, 1]", f.AddLoss)
		}
		if f.AddDelay < 0 {
			return fmt.Errorf("fault: link fault AddDelay %v negative", f.AddDelay)
		}
		if !f.Partition && f.AddLoss == 0 && f.AddDelay == 0 {
			return fmt.Errorf("fault: link fault on (%v, %v) degrades nothing", f.A, f.B)
		}
	}
	for _, f := range s.BurstLosses {
		if err := window("burst loss", f.At, f.Recover); err != nil {
			return err
		}
		if !(f.Loss > 0 && f.Loss <= 1) {
			return fmt.Errorf("fault: burst loss %v out of (0, 1]", f.Loss)
		}
	}
	for _, f := range s.PeerKills {
		if f.ISP != 0 && !f.ISP.Valid() {
			return fmt.Errorf("fault: peer kill targets invalid ISP %v", f.ISP)
		}
		if !(f.Fraction > 0 && f.Fraction <= 1) {
			return fmt.Errorf("fault: peer kill fraction %v out of (0, 1]", f.Fraction)
		}
		if f.At < 0 || f.At >= horizon {
			return fmt.Errorf("fault: peer kill at %s outside the %s horizon", f.At, horizon)
		}
	}
	for _, f := range s.EdgeCrashes {
		if edges == 0 {
			return fmt.Errorf("fault: edge crash scheduled but the scenario deploys no edges")
		}
		if f.Edge < -1 || f.Edge >= edges {
			return fmt.Errorf("fault: edge crash targets edge %d of %d", f.Edge, edges)
		}
		if err := window("edge crash", f.At, f.Recover); err != nil {
			return err
		}
	}
	return nil
}

// Window is one fault's active interval, labeled for reporting. Instantaneous
// faults (peer kills) have End == Start; recovery metrics still measure from
// Start.
type Window struct {
	Label      string
	Start, End time.Duration
}

// Windows lists every fault's interval in schedule order, for the resilience
// analysis.
func (s *Schedule) Windows() []Window {
	var out []Window
	for _, f := range s.SourceCrashes {
		out = append(out, Window{Label: fmt.Sprintf("source-crash(ch%d)", f.Channel), Start: f.At, End: f.Recover})
	}
	for _, f := range s.TrackerOutages {
		label := fmt.Sprintf("tracker-outage(g%d)", f.Group)
		if f.Group < 0 {
			label = "tracker-outage(all)"
		}
		out = append(out, Window{Label: label, Start: f.At, End: f.Recover})
	}
	for _, f := range s.LinkFaults {
		kind := "link-degrade"
		if f.Partition {
			kind = "partition"
		}
		out = append(out, Window{Label: fmt.Sprintf("%s(%v-%v)", kind, f.A, f.B), Start: f.At, End: f.Recover})
	}
	for _, f := range s.BurstLosses {
		out = append(out, Window{Label: fmt.Sprintf("burst-loss(%.0f%%)", 100*f.Loss), Start: f.At, End: f.Recover})
	}
	for _, f := range s.PeerKills {
		who := "all"
		if f.ISP != 0 {
			who = f.ISP.String()
		}
		out = append(out, Window{Label: fmt.Sprintf("kill(%s,%.0f%%)", who, 100*f.Fraction), Start: f.At, End: f.At})
	}
	for _, f := range s.EdgeCrashes {
		label := fmt.Sprintf("edge-crash(e%d)", f.Edge)
		if f.Edge < 0 {
			label = "edge-crash(all)"
		}
		out = append(out, Window{Label: label, Start: f.At, End: f.Recover})
	}
	return out
}

// PresetNames lists the chaos presets Preset accepts, for CLI help text.
func PresetNames() []string {
	return []string{"source-crash", "tracker-outage", "link-degrade", "partition", "burst-loss", "kill-churn", "combo"}
}

// Preset builds a canned chaos schedule scaled to a probe's observation
// window: faults land inside [warmUp, warmUp+watch) so the probe's telemetry
// brackets them with healthy baseline on both sides.
func Preset(name string, warmUp, watch time.Duration) (*Schedule, error) {
	// Anchor faults a quarter into the watch and size windows to an eighth of
	// it, so even short watches get a visible dip plus recovery room.
	at := warmUp + watch/4
	dur := watch / 8
	if dur < 15*time.Second {
		dur = 15 * time.Second
	}
	switch name {
	case "source-crash":
		return &Schedule{SourceCrashes: []SourceCrash{{Channel: 0, At: at, Recover: at + dur}}}, nil
	case "tracker-outage":
		return &Schedule{TrackerOutages: []TrackerOutage{{Group: -1, At: at, Recover: at + 2*dur}}}, nil
	case "link-degrade":
		return &Schedule{LinkFaults: []LinkFault{{
			A: isp.TELE, B: isp.CNC, At: at, Recover: at + 2*dur, AddLoss: 0.25, AddDelay: 80 * time.Millisecond,
		}}}, nil
	case "partition":
		return &Schedule{LinkFaults: []LinkFault{{
			A: isp.TELE, B: isp.CNC, At: at, Recover: at + dur, Partition: true,
		}}}, nil
	case "burst-loss":
		return &Schedule{BurstLosses: []BurstLoss{{At: at, Recover: at + dur, Loss: 0.15}}}, nil
	case "kill-churn":
		return &Schedule{PeerKills: []PeerKill{{Fraction: 0.3, At: at}}}, nil
	case "combo":
		return &Schedule{
			SourceCrashes:  []SourceCrash{{Channel: 0, At: at, Recover: at + dur}},
			TrackerOutages: []TrackerOutage{{Group: 0, At: at + 2*dur, Recover: at + 3*dur}},
			LinkFaults: []LinkFault{{
				A: isp.TELE, B: isp.CNC, At: at + 3*dur, Recover: at + 4*dur,
				AddLoss: 0.2, AddDelay: 60 * time.Millisecond,
			}},
			PeerKills: []PeerKill{{ISP: isp.TELE, Fraction: 0.2, At: at + 4*dur}},
		}, nil
	default:
		return nil, fmt.Errorf("fault: unknown preset %q (have %v)", name, PresetNames())
	}
}
