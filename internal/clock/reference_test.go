package clock

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"odrips/internal/sim"
)

// This file checks the word-arithmetic edge math against a straightforward
// math/big reference of the same formulas. The reference lives only here:
// the production code never touches big.Int.

var refE21 = new(big.Int).Mul(big.NewInt(1e12), big.NewInt(1e9))

// refOsc is the reference model of one oscillator's edge grid.
type refOsc struct {
	denom    *big.Int // nominalHz * (1e9 + ppb)
	stableAt sim.Time
}

func newRefOsc(hz uint64, ppb int64, stableAt sim.Time) refOsc {
	d := new(big.Int).SetUint64(hz)
	d.Mul(d, new(big.Int).Add(big.NewInt(ppb), big.NewInt(1e9)))
	return refOsc{denom: d, stableAt: stableAt}
}

// fits reports whether the reference denominator fits in a uint64 — the
// oscillator's construction precondition.
func (r refOsc) fits() bool { return r.denom.IsUint64() }

// edgeTime returns floor(k*1e21/denom) past stableAt; ok is false when
// that offset overflows sim time.
func (r refOsc) edgeTime(k uint64) (sim.Time, bool) {
	n := new(big.Int).SetUint64(k)
	n.Mul(n, refE21)
	n.Quo(n, r.denom)
	if !n.IsInt64() {
		return 0, false
	}
	return r.stableAt.Add(sim.Duration(n.Int64())), true
}

// nextEdge returns ceil((t-stableAt)*denom/1e21) for t after stableAt.
func (r refOsc) nextEdge(t sim.Time) uint64 {
	d := new(big.Int).SetInt64(int64(t.Sub(r.stableAt)))
	d.Mul(d, r.denom)
	rem := new(big.Int)
	d.QuoRem(d, refE21, rem)
	if rem.Sign() != 0 {
		d.Add(d, big.NewInt(1))
	}
	return d.Uint64()
}

// edgesUpTo returns floor((t-stableAt)*denom/1e21)+1 for t at or after
// stableAt.
func (r refOsc) edgesUpTo(t sim.Time) uint64 {
	if t.Before(r.stableAt) {
		return 0
	}
	d := new(big.Int).SetInt64(int64(t.Sub(r.stableAt)))
	d.Mul(d, r.denom)
	d.Quo(d, refE21)
	return d.Uint64() + 1
}

// phase returns (|t-stableAt|*denom) mod 1e21 as two words.
func (r refOsc) phase(t sim.Time) (hi, lo uint64, neg bool) {
	d := t.Sub(r.stableAt)
	if d < 0 {
		d, neg = -d, true
	}
	n := new(big.Int).SetInt64(int64(d))
	n.Mul(n, r.denom)
	n.Mod(n, refE21)
	lo = n.Uint64()
	hi = new(big.Int).Rsh(n, 64).Uint64()
	return hi, lo, neg
}

// panics reports whether fn panics.
func panics(fn func()) (did bool) {
	defer func() { did = recover() != nil }()
	fn()
	return false
}

// checkAgainstRef compares every edge query of o at instant t and edge
// index k with the reference.
func checkAgainstRef(t *testing.T, o *Oscillator, ref refOsc, at sim.Time, k uint64) {
	t.Helper()
	if want, ok := ref.edgeTime(k); ok {
		if got := o.EdgeTime(k); got != want {
			t.Fatalf("hz %d ppb %d stable %d: EdgeTime(%d) = %d, want %d", o.nominalHz, o.ppb, o.stableAt, k, got, want)
		}
	} else if !panics(func() { o.EdgeTime(k) }) {
		t.Fatalf("hz %d ppb %d: EdgeTime(%d) overflows sim time but did not panic", o.nominalHz, o.ppb, k)
	}
	hi, lo, neg := o.PhaseFingerprint(at)
	whi, wlo, wneg := ref.phase(at)
	if hi != whi || lo != wlo || neg != wneg {
		t.Fatalf("hz %d ppb %d stable %d: PhaseFingerprint(%d) = %d,%d,%v, want %d,%d,%v",
			o.nominalHz, o.ppb, o.stableAt, at, hi, lo, neg, whi, wlo, wneg)
	}
	if got, want := o.edgesUpTo(at), ref.edgesUpTo(at); got != want {
		t.Fatalf("hz %d ppb %d stable %d: edgesUpTo(%d) = %d, want %d", o.nominalHz, o.ppb, o.stableAt, at, got, want)
	}
	if !at.After(o.stableAt) {
		return
	}
	wk := ref.nextEdge(at)
	wat, ok := ref.edgeTime(wk)
	if !ok {
		return // the next edge itself lies past the end of sim time
	}
	gk, gat, gok := o.NextEdge(at)
	if !gok || gk != wk || gat != wat {
		t.Fatalf("hz %d ppb %d stable %d: NextEdge(%d) = %d,%d,%v, want %d,%d,true",
			o.nominalHz, o.ppb, o.stableAt, at, gk, gat, gok, wk, wat)
	}
}

// randOscParams draws an oscillator whose denominator fits in 64 bits,
// mixing realistic crystals with extreme frequencies and errors.
func randOscParams(rng *rand.Rand) (hz uint64, ppb int64) {
	for {
		switch rng.Intn(3) {
		case 0:
			hz = []uint64{32_768, 24_000_000, 19_200_000, 38_400_000}[rng.Intn(4)]
		case 1:
			hz = uint64(rng.Int63n(1<<34)) + 1
		default:
			hz = uint64(rng.Int63n(64)) + 1
		}
		switch rng.Intn(3) {
		case 0:
			ppb = rng.Int63n(20_001) - 10_000
		case 1:
			ppb = rng.Int63n(2e9) - 999_999_999
		default:
			ppb = rng.Int63n(math.MaxInt64/4) - 999_999_999
		}
		if newRefOsc(hz, ppb, 0).fits() {
			return hz, ppb
		}
	}
}

// randInstant draws an instant at a random magnitude.
func randInstant(rng *rand.Rand) sim.Time {
	return sim.Time(rng.Int63n(int64(1) << uint(rng.Intn(62)+1)))
}

func TestOscillatorMatchesBigReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 20_000; i++ {
		hz, ppb := randOscParams(rng)
		o := NewOscillator(sim.NewScheduler(), "ref", hz, ppb, 0)
		o.PowerOn()
		stable := randInstant(rng)
		o.ReplayRebase(stable)
		ref := newRefOsc(hz, ppb, stable)
		at := randInstant(rng) // before or after stableAt: both phases
		k := uint64(rng.Int63()) >> uint(rng.Intn(64))
		checkAgainstRef(t, o, ref, at, k)
		// Exact edges are where floor/ceil disagreements would show.
		if e, ok := ref.edgeTime(k); ok {
			checkAgainstRef(t, o, ref, e, k)
			if e > 0 {
				checkAgainstRef(t, o, ref, e-1, k)
			}
		}
	}
}

func TestPhaseFingerprintNegativeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2_000; i++ {
		hz, ppb := randOscParams(rng)
		o := NewOscillator(sim.NewScheduler(), "neg", hz, ppb, 0)
		stable := sim.Time(1<<62) + randInstant(rng)
		o.ReplayRebase(stable)
		at := stable - randInstant(rng) - 1
		hi, lo, neg := o.PhaseFingerprint(at)
		whi, wlo, wneg := newRefOsc(hz, ppb, stable).phase(at)
		if !neg || !wneg || hi != whi || lo != wlo {
			t.Fatalf("hz %d ppb %d: PhaseFingerprint(%d) before stableAt %d = %d,%d,%v, want %d,%d,%v",
				hz, ppb, at, stable, hi, lo, neg, whi, wlo, wneg)
		}
	}
}

func TestRetuneMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		hz, ppb := randOscParams(rng)
		s := sim.NewScheduler()
		o := NewOscillator(s, "retune", hz, ppb, 0)
		o.PowerOn()
		s.RunFor(sim.Duration(rng.Int63n(int64(sim.Second))) + 1)
		_, ppb2 := randOscParams(rng)
		if !newRefOsc(hz, ppb2, 0).fits() {
			continue
		}
		// The re-anchor is the latest old-grid edge at or before now.
		now := s.Now()
		ref := newRefOsc(hz, ppb, 0)
		wantAnchor, _ := ref.edgeTime(ref.edgesUpTo(now) - 1)
		o.Retune(ppb2)
		if o.StableAt() != wantAnchor || o.PPB() != ppb2 {
			t.Fatalf("hz %d: retune %d->%d at %d anchored at %d ppb %d, want %d ppb %d",
				hz, ppb, ppb2, now, o.StableAt(), o.PPB(), wantAnchor, ppb2)
		}
		checkAgainstRef(t, o, newRefOsc(hz, ppb2, wantAnchor), now+randInstant(rng)%sim.Time(sim.Hour), uint64(rng.Int63n(1<<40)))
	}
}

func TestOscillatorDenominatorOverflowRejected(t *testing.T) {
	cases := []struct {
		hz  uint64
		ppb int64
	}{
		{math.MaxUint64, 0},
		{18_446_744_074, 0},             // 1e9 * hz just past 2^64
		{1 << 40, 1 << 40},              // large on both sides
		{3, math.MaxInt64 - 1e9},        // 1e9+ppb fits, the product does not
		{1 << 35, math.MaxInt64 / 1024}, // a huge error on a modest crystal
	}
	for _, c := range cases {
		if newRefOsc(c.hz, c.ppb, 0).fits() {
			t.Fatalf("case %d Hz %d ppb fits; the table is wrong", c.hz, c.ppb)
		}
		if !panics(func() { NewOscillator(sim.NewScheduler(), "big", c.hz, c.ppb, 0) }) {
			t.Errorf("NewOscillator(%d Hz, %d ppb) overflows 64 bits but did not panic", c.hz, c.ppb)
		}
	}
	// Retune validates before re-anchoring: a rejected retune leaves the
	// oscillator untouched.
	s, o := newTestOsc(t, 1<<20, 0)
	s.RunFor(sim.Millisecond + 7)
	stable := o.StableAt()
	if !panics(func() { o.Retune(1 << 50) }) {
		t.Fatal("Retune to an overflowing ppb did not panic")
	}
	if o.PPB() != 0 || o.StableAt() != stable {
		t.Fatalf("rejected retune mutated the oscillator: ppb %d stableAt %d", o.PPB(), o.StableAt())
	}
	// The largest fitting denominator still works.
	hz := uint64(math.MaxUint64) / 1_000_000_000
	o = NewOscillator(sim.NewScheduler(), "edge", hz, 0, 0)
	o.PowerOn()
	checkAgainstRef(t, o, newRefOsc(hz, 0, 0), sim.Time(sim.Hour), 1<<62)
}

// FuzzOscillatorEdges drives the word arithmetic with arbitrary
// frequencies, errors, anchors, instants and edge indices against the
// math/big reference.
func FuzzOscillatorEdges(f *testing.F) {
	f.Add(uint64(32_768), int64(0), int64(0), int64(1_000_000_000_000), uint64(32_768))
	f.Add(uint64(24_000_000), int64(-250), int64(5_000), int64(1), uint64(3))
	f.Add(uint64(18_446_744_073), int64(0), int64(1<<50), int64(1<<62), uint64(1<<63))
	f.Add(uint64(1), int64(math.MaxInt64-1e9), int64(7), int64(3), uint64(math.MaxUint64))
	f.Fuzz(func(t *testing.T, hz uint64, ppb, stable, at int64, k uint64) {
		if hz == 0 || ppb <= -1e9 || stable < 0 || at < 0 {
			return
		}
		ref := newRefOsc(hz, ppb, sim.Time(stable))
		if !ref.fits() {
			if !panics(func() { NewOscillator(sim.NewScheduler(), "fuzz", hz, ppb, 0) }) {
				t.Fatalf("NewOscillator(%d Hz, %d ppb) overflows 64 bits but did not panic", hz, ppb)
			}
			return
		}
		o := NewOscillator(sim.NewScheduler(), "fuzz", hz, ppb, 0)
		o.PowerOn()
		o.ReplayRebase(sim.Time(stable))
		checkAgainstRef(t, o, ref, sim.Time(at), k)
	})
}
