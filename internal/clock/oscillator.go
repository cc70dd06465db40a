// Package clock models the platform clock sources: board crystal
// oscillators (the 24 MHz fast crystal and the 32.768 kHz real-time-clock
// crystal of the paper's Fig. 1(a)) and gateable clock domains derived from
// them.
//
// Edge arithmetic is exact. An oscillator's true frequency is
// nominal*(1+ppb/1e9) Hz, so the k-th rising edge after stabilization falls
// at phase + floor(k * 1e21 / (nominal*(1e9+ppb))) picoseconds. The
// arithmetic is exact integer math on 64-bit words (math/bits), so that
// multi-hour simulations (used by the 1 ppb timer-drift property tests)
// accumulate no floating-point error and edge queries never allocate. The
// denominator nominal*(1e9+ppb) must fit in a uint64 (a 24 MHz crystal uses
// about 2.4e16 of its 1.8e19 range); the 1e21 numerator is carried as
// 1e12*1e9 so every intermediate fits in two or three words.
package clock

import (
	"fmt"
	"math/bits"

	"odrips/internal/sim"
)

// The period numerator 1e21 = 1e12 ps/s * 1e9 (the ppb scale), kept as its
// two word-sized factors.
const (
	psPerSecond = 1_000_000_000_000
	ppbScale    = 1_000_000_000
)

// Oscillator is a crystal oscillator. The zero value is not usable; use
// NewOscillator. Oscillators start powered off.
type Oscillator struct {
	name      string
	nominalHz uint64
	ppb       int64        // true frequency error in parts per billion
	startup   sim.Duration // stabilization latency after power-on
	sched     *sim.Scheduler

	on       bool
	stableAt sim.Time // epoch of edge 0 for the current power-on period
	denom    uint64   // nominalHz * (1e9 + ppb)

	// OnPower, if non-nil, is invoked whenever the oscillator is switched
	// on or off. The platform uses it to charge oscillator power.
	OnPower func(on bool)
}

// NewOscillator creates an oscillator. ppb is the crystal's frequency error
// in parts per billion (positive runs fast). startup is the stabilization
// latency from power-on until the first usable edge.
func NewOscillator(sched *sim.Scheduler, name string, nominalHz uint64, ppb int64, startup sim.Duration) *Oscillator {
	if nominalHz == 0 {
		panic("clock: oscillator with zero nominal frequency")
	}
	return &Oscillator{
		name:      name,
		nominalHz: nominalHz,
		ppb:       ppb,
		startup:   startup,
		sched:     sched,
		denom:     periodDenom(name, nominalHz, ppb),
	}
}

// periodDenom validates a frequency error and returns the period
// denominator nominalHz*(1e9+ppb), panicking on a non-positive frequency or
// a denominator wider than 64 bits.
func periodDenom(name string, nominalHz uint64, ppb int64) uint64 {
	if ppb <= -ppbScale {
		panic(fmt.Sprintf("clock: oscillator %s ppb %d implies non-positive frequency", name, ppb))
	}
	// 1e9+ppb is positive and below 2^64, so the wrapping uint64 sum is exact.
	hi, denom := bits.Mul64(nominalHz, uint64(ppb)+ppbScale)
	if hi != 0 {
		panic(fmt.Sprintf("clock: oscillator %s ppb %d: %d Hz * (1e9%+d) overflows 64 bits", name, ppb, nominalHz, ppb))
	}
	return denom
}

// Name returns the oscillator's label.
func (o *Oscillator) Name() string { return o.name }

// NominalHz returns the nominal frequency in Hz.
func (o *Oscillator) NominalHz() uint64 { return o.nominalHz }

// PPB returns the crystal frequency error in parts per billion.
func (o *Oscillator) PPB() int64 { return o.ppb }

// ActualHz returns the true frequency in Hz.
func (o *Oscillator) ActualHz() float64 {
	return float64(o.nominalHz) * (1 + float64(o.ppb)/1e9)
}

// PeriodPs returns the true period in picoseconds (for display only; edge
// arithmetic never uses this float).
func (o *Oscillator) PeriodPs() float64 { return 1e12 / o.ActualHz() }

// On reports whether the oscillator is powered.
func (o *Oscillator) On() bool { return o.on }

// Stable reports whether the oscillator is powered and past its
// stabilization latency at the current instant.
func (o *Oscillator) Stable() bool {
	return o.on && !o.sched.Now().Before(o.stableAt)
}

// StableAt returns the instant the current power-on period became (or will
// become) stable. Meaningless when off.
func (o *Oscillator) StableAt() sim.Time { return o.stableAt }

// PowerOn enables the oscillator. Edges restart: the crystal loses phase
// across a power cycle, so edge 0 of the new period is at now+startup.
// Powering an already-on oscillator is a no-op.
func (o *Oscillator) PowerOn() {
	if o.on {
		return
	}
	o.on = true
	o.stableAt = o.sched.Now().Add(o.startup)
	if o.OnPower != nil {
		o.OnPower(true)
	}
}

// PowerOff disables the oscillator. Idempotent.
func (o *Oscillator) PowerOff() {
	if !o.on {
		return
	}
	o.on = false
	if o.OnPower != nil {
		o.OnPower(false)
	}
}

// Retune changes the crystal's frequency error from the current instant
// onward (temperature drift, aging). Edge continuity is preserved: the
// most recent rising edge becomes edge 0 of the retuned timebase, so the
// next edge falls one new-period later. Consumers that count edges
// lazily (timer counters) must materialize their state immediately before
// a retune; edges spanning the retune boundary are otherwise misattributed
// to the new frequency.
func (o *Oscillator) Retune(ppb int64) {
	denom := periodDenom(o.name, o.nominalHz, ppb)
	if o.on && o.Stable() {
		// Re-anchor at the most recent edge at or before now.
		now := o.sched.Now()
		k, at, ok := o.NextEdge(now)
		if ok {
			if at.After(now) && k > 0 {
				at = o.EdgeTime(k - 1)
			}
			o.stableAt = at
		}
	}
	o.ppb, o.denom = ppb, denom
}

// EdgeTime returns the instant of rising edge k (k=0 at stabilization) of
// the current power-on period.
func (o *Oscillator) EdgeTime(k uint64) sim.Time {
	// offset = floor(k * 1e12 * 1e9 / denom): a three-word product divided
	// by one word, schoolbook style (each partial remainder is < denom, so
	// every Div64 is in range).
	hi, lo := bits.Mul64(k, psPerSecond)
	c0, w0 := bits.Mul64(lo, ppbScale)
	c1, w1 := bits.Mul64(hi, ppbScale)
	w1, carry := bits.Add64(w1, c0, 0)
	w2 := c1 + carry
	q2, r := w2/o.denom, w2%o.denom
	q1, r := bits.Div64(r, w1, o.denom)
	q0, _ := bits.Div64(r, w0, o.denom)
	if q2 != 0 || q1 != 0 || q0 > 1<<63-1 {
		panic(fmt.Sprintf("clock: edge %d of %s overflows sim time", k, o.name))
	}
	return o.stableAt.Add(sim.Duration(q0))
}

// scaledPhase splits the exact edge position of an instant d picoseconds
// after stabilization, d*denom/1e21, into its integer part q and the
// residue d*denom mod 1e21 = r9*1e12 + r12 (r9 < 1e9, r12 < 1e12). With
// d <= 2^63 and denom < 2^64 the product is below 2^127, so q < 2^58 and
// every division below is in range.
func (o *Oscillator) scaledPhase(d uint64) (q, r9, r12 uint64) {
	hi, lo := bits.Mul64(d, o.denom)
	// floor(floor(x/1e12)/1e9) = floor(x/1e21).
	qhi, r := hi/psPerSecond, hi%psPerSecond
	qlo, r12 := bits.Div64(r, lo, psPerSecond)
	q, r9 = bits.Div64(qhi, qlo, ppbScale)
	return q, r9, r12
}

// NextEdge returns the index and instant of the first rising edge at or
// after t. ok is false if the oscillator is off, or if t precedes
// stabilization and the oscillator will never produce an edge before it is
// reconfigured — in that case the first stable edge (index 0) is returned
// with ok=true when t <= stableAt.
func (o *Oscillator) NextEdge(t sim.Time) (k uint64, at sim.Time, ok bool) {
	if !o.on {
		return 0, 0, false
	}
	if !t.After(o.stableAt) {
		return 0, o.stableAt, true
	}
	// k = ceil((t-stableAt) * denom / 1e21)
	q, r9, r12 := o.scaledPhase(uint64(t.Sub(o.stableAt)))
	if r9 != 0 || r12 != 0 {
		q++
	}
	return q, o.EdgeTime(q), true
}

// EdgesBetween returns the number of rising edges in the half-open interval
// (t1, t2] for the current power-on period. Both instants must not precede
// stabilization.
func (o *Oscillator) EdgesBetween(t1, t2 sim.Time) uint64 {
	if t2.Before(t1) {
		panic("clock: EdgesBetween with t2 < t1")
	}
	return o.edgesUpTo(t2) - o.edgesUpTo(t1)
}

// edgesUpTo counts edges with EdgeTime <= t (edge 0 included when stable).
func (o *Oscillator) edgesUpTo(t sim.Time) uint64 {
	if t.Before(o.stableAt) {
		return 0
	}
	// count = floor((t-stableAt) * denom / 1e21) + 1  (edge 0 at stableAt)
	q, _, _ := o.scaledPhase(uint64(t.Sub(o.stableAt)))
	return q + 1
}

// PhaseFingerprint returns the oscillator's exact phase residue at t for
// the platform fast-forward fingerprint (DESIGN.md §12): the numerator of
// the fractional edge position, ((t-stableAt) * denom) mod 1e21, split
// into two uint64 words. Two on, stable oscillators with equal ppb and
// equal residues produce identical edge grids relative to t, so every
// future edge offset is identical — which is what makes an
// absolute-time-free fingerprint sound. neg reports t before stableAt
// (the residue is then of stableAt-t).
func (o *Oscillator) PhaseFingerprint(t sim.Time) (hi, lo uint64, neg bool) {
	d := t.Sub(o.stableAt)
	if d < 0 {
		d, neg = -d, true
	}
	_, r9, r12 := o.scaledPhase(uint64(d))
	hi, lo = bits.Mul64(r9, psPerSecond)
	lo, carry := bits.Add64(lo, r12, 0)
	return hi + carry, lo, neg
}

// ReplayRebase re-anchors the edge grid at stableAt, for whole-cycle
// replays where the power cycling that would have re-derived the anchor
// was skipped. The caller guarantees the rebased grid is the one the
// skipped cycles would have produced.
func (o *Oscillator) ReplayRebase(stableAt sim.Time) { o.stableAt = stableAt }

// ScheduleEdge schedules fn at the first rising edge at or after the
// current instant and returns the event, or an invalid (zero) event if the
// oscillator is off. This is how firmware flows "wait for the rising edge"
// of a clock (paper Fig. 3(b)).
func (o *Oscillator) ScheduleEdge(name string, fn func()) sim.Event {
	_, at, ok := o.NextEdge(o.sched.Now())
	if !ok {
		return sim.Event{}
	}
	return o.sched.At(at, name, fn)
}

// ScheduleNthEdge schedules fn n edges after the first edge at or after now
// (n=0 means the next edge). Returns an invalid (zero) event if the
// oscillator is off.
func (o *Oscillator) ScheduleNthEdge(n uint64, name string, fn func()) sim.Event {
	k, _, ok := o.NextEdge(o.sched.Now())
	if !ok {
		return sim.Event{}
	}
	return o.sched.At(o.EdgeTime(k+n), name, fn)
}
