//go:build !race

// Alloc-regression guard for the scheduler hot path (excluded under the
// race detector, whose instrumentation allocates). Locks in the PR 1
// allocation-free schedule/cancel/step churn.

package sim

import "testing"

func TestSchedulerChurnAllocFree(t *testing.T) {
	s := NewScheduler()
	nop := func() {}
	churn := func() {
		victim := s.After(2*Nanosecond, "churn-cancel", nop)
		s.After(Nanosecond, "churn", nop)
		s.Cancel(victim)
		s.Step()
		// Peripheral events share the slab and free list.
		victim = s.AfterPeripheral(2*Nanosecond, "churn-periph-cancel", nop)
		s.AfterPeripheral(Nanosecond, "churn-periph", nop)
		s.Cancel(victim)
		s.Step()
	}
	// Warm the event freelist past the churn working set.
	for i := 0; i < 256; i++ {
		churn()
	}
	if n := testing.AllocsPerRun(500, churn); n != 0 {
		t.Fatalf("scheduler churn allocates %.1f/op, want 0", n)
	}
	if s.Pending() != 0 || s.PeripheralPending() != 0 {
		t.Fatalf("churn left %d events (%d peripheral) queued", s.Pending(), s.PeripheralPending())
	}
}
