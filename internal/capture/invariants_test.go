package capture

import (
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
	"time"

	"pplivesim/internal/wire"
)

// genTrace builds a random but causally plausible trace: requests go out,
// and a random subset is answered later.
func genTrace(rng *rand.Rand) []Record {
	peers := []netip.Addr{
		netip.MustParseAddr("58.32.0.1"),
		netip.MustParseAddr("60.0.0.1"),
		netip.MustParseAddr("129.174.0.1"),
	}
	var records []Record
	now := time.Duration(0)
	type pend struct {
		peer netip.Addr
		seq  uint64
	}
	var pending []pend
	n := 5 + rng.Intn(100)
	for i := 0; i < n; i++ {
		now += time.Duration(rng.Intn(500)) * time.Millisecond
		switch {
		case len(pending) > 0 && rng.Intn(2) == 0:
			// Answer a random pending request.
			idx := rng.Intn(len(pending))
			p := pending[idx]
			pending = append(pending[:idx], pending[idx+1:]...)
			records = append(records, Record{
				At: now, Dir: In, Peer: p.peer, Type: wire.TDataReply,
				Seq: p.seq, Count: 1, Payload: 1380,
			})
		default:
			p := pend{peer: peers[rng.Intn(len(peers))], seq: uint64(rng.Intn(10000))}
			// Avoid duplicate outstanding keys, which would shadow.
			dup := false
			for _, q := range pending {
				if q == p {
					dup = true
				}
			}
			if dup {
				continue
			}
			pending = append(pending, p)
			records = append(records, Record{
				At: now, Dir: Out, Peer: p.peer, Type: wire.TDataRequest, Seq: p.seq,
			})
		}
	}
	return records
}

// Property: matching invariants hold on arbitrary plausible traces —
// transmissions + unanswered = requests, response times are non-negative,
// and every transmission pairs identical peer/seq records.
func TestPropertyMatchInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		records := genTrace(rng)
		requests := 0
		for _, r := range records {
			if r.Dir == Out && r.Type == wire.TDataRequest {
				requests++
			}
		}
		m := Match(records, nil)
		if len(m.Transmissions)+m.UnansweredData != requests {
			return false
		}
		for _, tx := range m.Transmissions {
			if tx.ResponseTime() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Error(err)
	}
}

// Property: matching is insensitive to unrelated record types interleaved
// into the trace.
func TestPropertyMatchIgnoresNoise(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		records := genTrace(rng)
		noisy := make([]Record, 0, 2*len(records))
		peer := netip.MustParseAddr("58.32.0.9")
		for _, r := range records {
			if rng.Intn(3) == 0 {
				noisy = append(noisy, Record{
					At: r.At, Dir: In, Peer: peer, Type: wire.TBufferMap, Size: 100,
				})
			}
			noisy = append(noisy, r)
		}
		clean := Match(records, nil)
		withNoise := Match(noisy, nil)
		return len(clean.Transmissions) == len(withNoise.Transmissions) &&
			clean.UnansweredData == withNoise.UnansweredData
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Error(err)
	}
}
