//go:build !race

// Alloc-regression guard for the fleet path, excluded under the race
// detector, whose instrumentation inserts its own allocations.

package odrips

import "testing"

// TestFleet10kWarmAllocBound pins BenchmarkFleet10kWarm's allocation
// budget: expanding 10,000 devices keys their memo and run classes once
// per perturbation tuple, not once per device, so the warm job stays
// within 100k allocations.
func TestFleet10kWarmAllocBound(t *testing.T) {
	withWarmMemoStore(t)
	spec := fleet10kSpec()
	run := func() {
		if _, err := Fleet(spec); err != nil {
			t.Fatal(err)
		}
	}
	run() // populate the store (cold)
	if n := testing.AllocsPerRun(3, run); n > 100_000 {
		t.Fatalf("warm 10k-device fleet allocates %.0f/op, want at most 100000", n)
	}
}
