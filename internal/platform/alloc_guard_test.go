//go:build !race

// Alloc-regression guard for platform construction, excluded under the
// race detector, whose instrumentation inserts its own allocations.

package platform

import "testing"

// TestPlatformNewAllocBound pins BenchmarkPlatformNew's allocation budget:
// New on an already-seen seed takes the context images and the MEE
// metadata image from the seed-asset table and writes the metadata into
// DRAM in one slab, so it allocates only the platform's own components.
func TestPlatformNewAllocBound(t *testing.T) {
	for _, c := range []struct {
		name  string
		cfg   Config
		bound float64
	}{{"odrips", ODRIPSConfig(), 200}, {"baseline", DefaultConfig(), 110}} {
		run := func() {
			if _, err := New(c.cfg); err != nil {
				t.Fatal(err)
			}
		}
		run() // the seed's assets
		if n := testing.AllocsPerRun(5, run); n > c.bound {
			t.Errorf("%s: New allocates %.0f/op, want at most %.0f", c.name, n, c.bound)
		}
	}
}
