package peer

import (
	"fmt"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"pplivesim/internal/stream"
	"pplivesim/internal/wire"
)

// benchSwarm builds a client in steady playback with nbs connected neighbors
// whose buffer maps densely (but not fully) cover the want window, so a
// scheduler tick does full-sized, representative work: ~MaxOutstanding wanted
// sequences, urgent and non-urgent, with most sequences covered by most
// neighbors.
func benchSwarm(tb testing.TB, nbs, batch int) (*fakeEnv, *Client) {
	tb.Helper()
	env := newFakeEnv("58.32.0.1")
	env.now = 10 * time.Minute
	cfg := DefaultConfig(stream.DefaultSpec(1, "bench", 100), bootstrapAddr)
	cfg.BatchCount = batch
	cfg.MaxNeighbors = nbs
	c, err := New(env, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	c.Start()
	c.HandleMessage(bootstrapAddr, &wire.ChannelListResponse{
		Channels: []wire.ChannelInfo{{ID: 1, Name: "bench"}},
	})
	c.HandleMessage(bootstrapAddr, &wire.PlaylinkResponse{
		Channel:  1,
		Source:   sourceAddr,
		Trackers: trackerAddrs,
	})
	env.take()

	// One minute into playback.
	env.now += cfg.StartupDelay + time.Minute
	now := env.now
	c.active.buffer.AdvanceTo(now)
	ph := c.active.buffer.Playhead()

	// Each neighbor announces ~85% coverage of [ph-64, ph+1472), which spans
	// the whole want window; distinct scores so the argmin scan does real work.
	const mapBits = 1536
	mapRng := rand.New(rand.NewSource(99))
	for i := 0; i < nbs; i++ {
		a := netip.AddrFrom4([4]byte{10, 1, byte(i / 250), byte(1 + i%250)})
		bits := make([]byte, mapBits/8)
		for j := range bits {
			bits[j] = byte(mapRng.Intn(256) | mapRng.Intn(256))
		}
		nb := c.active.addNeighbor(a, bufferMapFromBytes(ph-64, bits))
		nb.score = time.Duration(50+13*i%400) * time.Millisecond
		nb.minRTT = nb.score / 2
	}
	return env, c
}

// resetSched reverts a tick's bookkeeping (outstanding requests and in-flight
// coverage) so every benchmark iteration schedules the same full batch.
func resetSched(c *Client) {
	for _, nb := range c.active.neighbors {
		for nb.reqHead >= 0 {
			c.active.clearOutstanding(nb, -1, nb.reqHead)
		}
	}
}

// BenchmarkScheduler measures one full scheduler tick: playhead advance,
// request expiry, want computation, shuffle, provider selection, and request
// bookkeeping, with the wire send stubbed out (emitRequest hook) so the
// number isolates scheduling cost. Reported ns/op includes the per-iteration
// state reset (clearing ~MaxOutstanding bookkeeping entries), which is the
// same work a reply burst performs in a real run.
func BenchmarkScheduler(b *testing.B) {
	for _, bc := range []struct {
		nbs, batch int
	}{
		{16, 1},
		{60, 1},
		{60, 8},
	} {
		b.Run(fmt.Sprintf("nbs=%d/batch=%d", bc.nbs, bc.batch), func(b *testing.B) {
			_, c := benchSwarm(b, bc.nbs, bc.batch)
			reqs := 0
			c.emitRequest = func(netip.Addr, uint64, int) { reqs++ }
			c.active.schedulerTick() // warm scratch state
			if reqs == 0 {
				b.Fatal("scheduler tick issued no requests")
			}
			resetSched(c)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.active.schedulerTick()
				resetSched(c)
			}
		})
	}
}

// BenchmarkPickProvider measures provider selection for one tick's worth of
// wanted sequences (urgent head in deadline order, shuffled tail), without
// request bookkeeping. One op = assigning every wanted sequence.
func BenchmarkPickProvider(b *testing.B) {
	for _, nbs := range []int{16, 60} {
		b.Run(fmt.Sprintf("nbs=%d", nbs), func(b *testing.B) {
			env, c := benchSwarm(b, nbs, 1)
			now := env.now
			c.active.buffer.AdvanceTo(now)
			budget := c.cfg.MaxOutstanding * c.cfg.BatchCount
			limit := c.active.buffer.Playhead() + uint64(c.cfg.FetchLead.Seconds()*c.cfg.Channel.Rate())
			want := c.active.buffer.AppendWant(nil, now, budget, limit, nil)
			if len(want) == 0 {
				b.Fatal("no wanted sequences")
			}
			urgentBound := c.active.buffer.Playhead() + uint64(2*c.cfg.Channel.Rate())
			var sink *neighbor
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.active.buildSchedPlan(want[0], want[len(want)-1], now)
				for _, seq := range want {
					if nb := c.active.pickProvider(seq, now, seq < urgentBound); nb != nil {
						sink = nb
					}
				}
			}
			_ = sink
		})
	}
}
