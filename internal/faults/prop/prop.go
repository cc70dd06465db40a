// Package prop is the property/metamorphic harness for the fault-injection
// plane: it generates randomized (workload, config, fault-plan) cases and
// checks the recovery-edge invariants the platform promises —
//
//  1. the empty plan is inert: results and flow traces are byte-identical
//     to a platform with no fault plane installed;
//  2. an aborted entry can only cost energy: a run with entry aborts (and
//     no timer-drift injection, which legitimately moves wake instants)
//     spends at least as much battery energy as the fault-free run;
//  3. degradation moves idle power monotonically toward the
//     retention-SRAM floor: fault-free idle power <= degraded-run idle
//     power <= the same configuration with the off-chip context store
//     stripped.
//
// The fast-forward metamorphic test additionally attaches a NIC to some
// cases (WithNIC), and starts some on a memo plane that already holds
// their class's records (Case.Plane), so faulted, device-driven and
// record-adopting runs are compared across every -fastforward mode.
//
// A failing case shrinks to a minimal fault plan before being reported, so
// a reproducer is one short -faults string plus the logged seed.
package prop

import (
	"fmt"
	"math/rand"

	"odrips/internal/device"
	"odrips/internal/faults"
	"odrips/internal/platform"
	"odrips/internal/sim"
	"odrips/internal/workload"
)

// Case is one generated scenario: a platform configuration, a workload,
// and a fault plan to inject into it.
type Case struct {
	Seed   int64
	Config platform.Config
	Cycles []workload.Cycle
	Plan   faults.Plan
	// NIC, when set, attaches a NIC whose coalesced RX wakes race the
	// workload's own wakes (a device-driven run).
	NIC *device.NICConfig
	// Plane, when set, is the memo plane the platform attaches to, so
	// the run adopts whatever records earlier runs left in its class.
	Plane *platform.MemoPlane
}

// String renders the case compactly for failure reports.
func (c Case) String() string {
	s := fmt.Sprintf("seed=%d techniques=%v emram=%v cycles=%d plan=%q",
		c.Seed, c.Config.Techniques, c.Config.CtxInEMRAM, len(c.Cycles), c.Plan.String())
	if c.NIC != nil {
		s += fmt.Sprintf(" nic=%gKB/s,%dB,seed=%d", c.NIC.RateKBps, c.NIC.BufferBytes, c.NIC.Seed)
	}
	if c.Plane != nil {
		s += " plane"
	}
	return s
}

// WithNIC returns c with a randomly drawn NIC attached. Its ingress rate
// fills the high-water mark within tens of milliseconds, so its wakes land
// inside the generated 20-140 ms idle windows.
func WithNIC(c Case, rng *rand.Rand) Case {
	c.NIC = &device.NICConfig{
		Name:        "nic",
		RateKBps:    []float64{200, 400, 800}[rng.Intn(3)],
		PacketBytes: 1500,
		BufferBytes: 16 << 10,
		Seed:        rng.Int63(),
	}
	return c
}

// techniqueMenu holds the valid technique combinations Generate draws from
// (AON-IO-GATE requires WAKE-UP-OFF, so free bit mixing is not legal).
var techniqueMenu = []platform.Technique{
	0,
	platform.WakeUpOff,
	platform.WakeUpOff | platform.AONIOGate,
	platform.CtxSGXDRAM,
	platform.WakeUpOff | platform.CtxSGXDRAM,
	platform.ODRIPS,
}

// Generate draws a random case. Workloads force the deepest state so every
// cycle actually exercises the entry/exit flows the injections target.
func Generate(rng *rand.Rand) Case {
	cfg := platform.ODRIPSConfig()
	cfg.Techniques = techniqueMenu[rng.Intn(len(techniqueMenu))]
	if !cfg.Techniques.Has(platform.CtxSGXDRAM) && rng.Intn(3) == 0 {
		cfg.CtxInEMRAM = true
	}
	cfg.ForceDeepest = true
	cfg.Seed = rng.Int63n(1 << 30)

	// 2-3 cycles: enough for cross-cycle effects (degradation persists,
	// recalibration re-anchors) while every trace fits the ring buffer, so
	// Check's marker counting never reads a truncated window.
	n := 2 + rng.Intn(2)
	cycles := make([]workload.Cycle, n)
	for i := range cycles {
		idle := sim.Duration(20+rng.Intn(120)) * sim.Millisecond
		var wake workload.WakeKind
		switch rng.Intn(4) {
		case 0:
			wake = workload.WakeExternal
		case 1:
			wake = workload.WakeThermal
		default:
			wake = workload.WakeTimer
		}
		cycles[i] = workload.Cycle{Idle: idle, Wake: wake}
	}

	plan := faults.Random(rng, rng.Intn(5), n, 9, 10)
	return Case{Seed: cfg.Seed, Config: cfg, Cycles: cycles, Plan: plan}
}

// Outcome is one executed run of a case.
type Outcome struct {
	Result   platform.Result
	Trace    []platform.FlowStep
	Degraded bool
}

// TotalJ returns the run's total battery energy.
func (o Outcome) TotalJ() float64 {
	return o.Result.AvgPowerMW * 1e-3 * o.Result.Duration.Seconds()
}

// Run executes the case with the given plan installed (which may differ
// from c.Plan — the shrinker and the baseline comparisons substitute their
// own).
func Run(c Case, plan faults.Plan) (Outcome, error) {
	out, _, err := run(c, &plan, platform.DefaultFastForward())
	return out, err
}

// RunMode executes the case with the plan installed and an explicit
// fast-forward mode — the two sides of the fast-forward metamorphic
// invariant (results must be byte-identical at every mode). It also
// returns the engine's counters, which legitimately differ across modes.
func RunMode(c Case, plan faults.Plan, mode platform.FFMode) (Outcome, platform.FFStats, error) {
	return run(c, &plan, mode)
}

// RunBare executes the case with no fault plane installed at all — the
// reference side of the empty-plan-is-inert invariant.
func RunBare(c Case) (Outcome, error) {
	out, _, err := run(c, nil, platform.DefaultFastForward())
	return out, err
}

// run builds the case's platform (attaching its plane and NIC, if any),
// installs plan unless it is nil, and runs the workload.
func run(c Case, plan *faults.Plan, mode platform.FFMode) (Outcome, platform.FFStats, error) {
	p, err := platform.New(c.Config)
	if err != nil {
		return Outcome{}, platform.FFStats{}, err
	}
	c.Plane.Attach(p)
	if err := p.SetFastForward(mode); err != nil {
		return Outcome{}, platform.FFStats{}, err
	}
	if c.NIC != nil {
		nic, err := device.NewNIC(p.Scheduler(), p.LTR(), p, *c.NIC)
		if err != nil {
			return Outcome{}, platform.FFStats{}, err
		}
		nic.Start()
		p.OnQuiesce(nic.Stop)
	}
	if plan != nil {
		if err := p.InjectFaults(*plan); err != nil {
			return Outcome{}, platform.FFStats{}, err
		}
	}
	res, err := p.RunCycles(c.Cycles)
	if err != nil {
		return Outcome{}, platform.FFStats{}, err
	}
	return Outcome{Result: res, Trace: p.FlowTrace(), Degraded: p.Degraded()}, p.FFStats(), nil
}

// floorConfig strips the off-chip context store: the configuration a
// degraded platform effectively runs with.
func floorConfig(cfg platform.Config) platform.Config {
	cfg.Techniques &^= platform.CtxSGXDRAM
	cfg.CtxInEMRAM = false
	return cfg
}

// hasDrift reports whether the plan carries a timer-drift injection, which
// legitimately moves wake instants (exempting the energy invariant).
func hasDrift(plan faults.Plan) bool {
	for _, inj := range plan.Injections {
		if inj.Kind == faults.TimerDrift {
			return true
		}
	}
	return false
}

// Check runs the case and its fault-free reference and verifies every
// applicable invariant, returning the first violation.
func Check(c Case) error {
	base, err := RunBare(c)
	if err != nil {
		return fmt.Errorf("fault-free run: %w", err)
	}
	got, err := Run(c, c.Plan)
	if err != nil {
		return fmt.Errorf("faulted run: %w", err)
	}
	st := got.Result.Faults

	// Invariant 2: aborts (and the other pure-cost recovery edges) only
	// add energy. Two legitimate exemptions: a drift injection moves wake
	// instants, and an injected entry wake that lands after the flow
	// completes (quantized past the last step) is an ordinary early wake
	// that truncates the idle period. The trace tells the two apart: every
	// "wake" marker that did not abort truncated an idle window.
	wakeMarkers := uint64(0)
	for _, fs := range got.Trace {
		if fs.Flow == "fault" && fs.Step == "wake" {
			wakeMarkers++
		}
	}
	allAborted := wakeMarkers == st.EntryAborts
	costly := st.EntryAborts > 0 || st.MEERetries > 0 || st.FETRetries > 0
	if costly && allAborted && !hasDrift(c.Plan) {
		// Recovery edges delay the cycles that follow them, which re-aligns
		// later 32 kHz-quantized idle windows by up to one slow period each
		// (~2 uJ) in either direction. Real recovery work costs two orders
		// of magnitude more, so a small allowance keeps the invariant sharp.
		const quantSlackJ = 2e-5
		baseJ, gotJ := base.TotalJ(), got.TotalJ()
		if gotJ < baseJ-quantSlackJ {
			return fmt.Errorf("energy shrank under faults: %.9f J < fault-free %.9f J (stats %+v)",
				gotJ, baseJ, st)
		}
	}

	// Invariant 3: degradation lands idle power between the fault-free
	// level and the stripped-context floor.
	if st.Degradations > 0 {
		if !got.Degraded {
			return fmt.Errorf("stats count a degradation but the platform is not degraded")
		}
		floor, err := RunBare(Case{Config: floorConfig(c.Config), Cycles: c.Cycles})
		if err != nil {
			return fmt.Errorf("floor run: %w", err)
		}
		idle := got.Result.IdlePowerMW()
		lo := base.Result.IdlePowerMW()
		hi := floor.Result.IdlePowerMW()
		const eps = 0.05 // mW; idle-share jitter from flow-adjacent samples
		if idle < lo-eps {
			return fmt.Errorf("degraded idle power %.3f mW below fault-free %.3f mW", idle, lo)
		}
		if idle > hi+eps {
			return fmt.Errorf("degraded idle power %.3f mW above retention-SRAM floor %.3f mW", idle, hi)
		}
	}

	// Bookkeeping sanity on every case: one-shot injections can fire or
	// be skipped at most once each, never both.
	if st.Fired+st.Skipped > st.Planned {
		return fmt.Errorf("fired %d + skipped %d exceeds planned %d", st.Fired, st.Skipped, st.Planned)
	}
	return nil
}

// CheckInert verifies invariant 1 for the case's config and workload: the
// empty plan changes nothing observable against a bare platform.
func CheckInert(c Case) error {
	base, err := RunBare(c)
	if err != nil {
		return err
	}
	armed, err := Run(c, faults.Plan{})
	if err != nil {
		return err
	}
	if err := equalOutcome(base, armed); err != nil {
		return fmt.Errorf("empty plan not inert: %w", err)
	}
	return nil
}

func equalOutcome(a, b Outcome) error {
	if a.Result.AvgPowerMW != b.Result.AvgPowerMW ||
		a.Result.Duration != b.Result.Duration ||
		a.Result.Faults != b.Result.Faults {
		return fmt.Errorf("results differ: %.9f mW / %v vs %.9f mW / %v",
			a.Result.AvgPowerMW, a.Result.Duration, b.Result.AvgPowerMW, b.Result.Duration)
	}
	if len(a.Trace) != len(b.Trace) {
		return fmt.Errorf("trace lengths differ: %d vs %d", len(a.Trace), len(b.Trace))
	}
	for i := range a.Trace {
		if a.Trace[i] != b.Trace[i] {
			return fmt.Errorf("trace step %d differs: %+v vs %+v", i, a.Trace[i], b.Trace[i])
		}
	}
	return nil
}

// Shrink greedily minimizes the failing case's fault plan: it repeatedly
// drops any single injection whose removal preserves the failure, until no
// further drop does. The returned case fails check (assuming the input
// does) and its plan is locally minimal.
func Shrink(c Case, check func(Case) error) Case {
	for {
		shrunk := false
		for i := range c.Plan.Injections {
			trial := c
			trial.Plan = faults.Plan{Injections: append(
				append([]faults.Injection(nil), c.Plan.Injections[:i]...),
				c.Plan.Injections[i+1:]...)}
			if check(trial) != nil {
				c = trial
				shrunk = true
				break
			}
		}
		if !shrunk {
			return c
		}
	}
}
