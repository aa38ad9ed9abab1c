package peer

import (
	"fmt"
	"net/netip"
	"testing"
)

// addBenchEdges installs n CDN edges into a benchSwarm session the way the
// playlink handler does: origins in affinity order, all ahead of the source,
// in the neighbor table but out of the mesh.
func addBenchEdges(c *Client, n int) {
	s := c.active
	src := s.origins[len(s.origins)-1]
	s.origins = s.origins[:0]
	for i := 0; i < n; i++ {
		s.addOrigin(netip.AddrFrom4([4]byte{61, 200, 0, byte(1 + i)}), originEdge)
	}
	s.origins = append(s.origins, src)
}

// BenchmarkCDNUrgentMiss measures the urgent-miss fallback in pickProvider —
// the only scheduling path the CDN integration touches. edges=0 is the
// pure-P2P configuration every legacy scenario runs: the origin walk finds
// the source at once (TestCDNIdleHooksZeroAlloc holds it, and the edges=3
// walk, to zero allocations). edges=3 adds the affinity-order walk a hybrid
// deployment pays on the same miss.
func BenchmarkCDNUrgentMiss(b *testing.B) {
	for _, edges := range []int{0, 3} {
		b.Run(fmt.Sprintf("edges=%d", edges), func(b *testing.B) {
			env, c := benchSwarm(b, 60, 1)
			addBenchEdges(c, edges)
			s := c.active
			now := env.now
			// One sequence past every neighbor's buffer map: k == 0, so the
			// pick walks the miss chain (edges, then the source).
			seq := s.buffer.Playhead() + 1500
			s.buildSchedPlan(seq, seq, now)
			nb := s.pickProvider(seq, now, true)
			if nb == nil {
				b.Fatal("urgent miss found no provider")
			}
			if edges == 0 && nb.addr != sourceAddr {
				b.Fatalf("idle-CDN urgent miss picked %v, want the source", nb.addr)
			}
			if edges > 0 && nb.origin != originEdge {
				b.Fatalf("urgent miss with edges picked %v, want an edge", nb.addr)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.pickProvider(seq, now, true)
			}
		})
	}
}

// TestCDNIdleHooksZeroAlloc pins the cost contract the benchmark measures:
// the urgent-miss walk over the session's origins allocates nothing, with no
// edges deployed (the source alone) or with a hybrid edge set in front of it.
func TestCDNIdleHooksZeroAlloc(t *testing.T) {
	for _, edges := range []int{0, 3} {
		t.Run(fmt.Sprintf("edges=%d", edges), func(t *testing.T) {
			env, c := benchSwarm(t, 16, 1)
			addBenchEdges(c, edges)
			s := c.active
			now := env.now
			seq := s.buffer.Playhead() + 1500
			s.buildSchedPlan(seq, seq, now) // warm the plan scratch
			if got := testing.AllocsPerRun(200, func() {
				s.buildSchedPlan(seq, seq, now)
				if s.pickProvider(seq, now, true) == nil {
					t.Fatal("urgent miss found no provider")
				}
			}); got != 0 {
				t.Errorf("urgent-miss path with %d edges allocates %.1f per op, want 0", edges, got)
			}
		})
	}
}
