//go:build !race

// Alloc-regression guard for the oscillator's word arithmetic, excluded
// under the race detector like the other alloc guards.

package clock

import (
	"testing"

	"odrips/internal/sim"
)

// TestEdgeQueriesDoNotAllocate pins the exact edge arithmetic the exit
// flow's wake-on-edge and every fingerprint run through at zero
// allocations.
func TestEdgeQueriesDoNotAllocate(t *testing.T) {
	s, o := newTestOsc(t, 32_768, -37)
	s.RunFor(sim.Second)
	at := s.Now() + 12_345
	var sink uint64
	allocs := testing.AllocsPerRun(100, func() {
		sink += uint64(o.EdgeTime(1_000_003))
		k, _, _ := o.NextEdge(at)
		sink += k + o.EdgesBetween(0, at)
		hi, lo, _ := o.PhaseFingerprint(at)
		sink += hi + lo
	})
	if allocs != 0 {
		t.Fatalf("edge queries allocate %.1f times per run, want 0", allocs)
	}
	_ = sink
}
