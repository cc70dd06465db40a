// Package fleet is the sharded multi-device simulation engine: it runs N
// device configurations — a base platform configuration crossed with
// per-device perturbations (seed, crystal drift, battery capacity, wake
// period jitter, optional fault plans) — against one shared, bounded,
// concurrent cycle-memo plane (platform.MemoPlane), and reports
// deterministic fleet aggregates: battery-life percentiles, residency
// histogram, wake statistics, and cross-device memo hit rates.
//
// The paper's headline numbers are population claims (99.5% DRIPS
// residency, 28% battery-life extension for devices, plural); this
// package is the engine that evaluates them at population scale without
// paying population cost. Three collapse layers stack:
//
//  1. Run-level dedup. Devices identical up to output-inert parameters
//     share one simulation: the seed only varies DRAM context bytes
//     (size-based accounting, never content-based — the identity
//     platform.MemoClassKey documents and TestSeedInertness pins), and
//     battery capacity is applied to the result downstream of the
//     simulation. A 10k-device homogeneous-spread fleet therefore
//     simulates a handful of run classes and copies.
//
//  2. Cross-device cycle replay. Distinct run classes of one memo class
//     (jittered wake periods, post-fault steady states) adopt each
//     other's steady-state cycle records through the shared plane, so
//     only the first device pays for each cycle class.
//
//  3. Steady-state fast-forward within each simulated run (DESIGN.md
//     §12), as for any single-device run.
//
// Determinism: execution is two-phase. Phase 1 warms the plane with one
// representative per memo class (disjoint classes — publication order
// cannot matter); the plane is then frozen into a MemoSnapshot; phase 2
// runs one representative per run class against the frozen snapshot, so
// every phase-2 execution — results AND replay statistics — is a pure
// function of the spec. Results are assembled in submission-index order
// (the experiments engine's discipline), making the whole report
// byte-identical at any -shards/-workers count.
package fleet

import (
	"fmt"
	"math"
	"time"

	"odrips/internal/battery"
	"odrips/internal/faults"
	"odrips/internal/platform"
	"odrips/internal/sim"
	"odrips/internal/workload"
)

// Spec describes one fleet job.
type Spec struct {
	// Name labels the job in reports.
	Name string
	// Devices is the fleet size.
	Devices int
	// Preset names the base configuration: "odrips" (default),
	// "baseline", "wake-up-off", "aon-io-gate", or "ctx-sgx-dram".
	Preset string
	// Horizon is the simulated wall time per device (default 6h).
	Horizon sim.Duration
	// Active and WakePeriod shape the connected-standby cycle: an Active
	// maintenance burst (default 2ms) followed by WakePeriod of idle
	// (default 30s) until a timer wake.
	Active     sim.Duration
	WakePeriod sim.Duration
	// Shards is the number of aggregation groups devices are split into
	// (contiguous index ranges; default 1). Shard count changes the
	// per-shard breakdown only, never the fleet-level aggregates.
	Shards int
	// Workers sizes the simulation worker pool (0 = package default).
	Workers int
	// PlaneClasses bounds the memo plane when Run creates one (0 = large
	// enough for this job's memo classes).
	PlaneClasses int

	Spread Spread
}

// Spread is the per-device perturbation recipe. Each non-empty list is
// cycled over the device index, so perturbations cross-product cheaply.
type Spread struct {
	// SeedBase/SeedStride assign device i the seed SeedBase+i*SeedStride
	// (defaults 1 and 1). Seeds are output-inert; they never split run
	// classes.
	SeedBase   int64
	SeedStride int64
	// DriftPPB adds per-device slow-crystal frequency error on top of the
	// preset's. Distinct drifts are distinct memo classes (they change
	// timer behavior) and re-simulate.
	DriftPPB []int64
	// BatteryMWh overrides the pack nameplate capacity per device.
	// Capacity is applied downstream of the simulation, so it never
	// splits run classes.
	BatteryMWh []float64
	// JitterSteps adds per-device extra idle to the wake period,
	// quantized: devices sharing a step share a run class, and all steps
	// share the memo class (the plane covers them cross-device).
	JitterSteps []sim.Duration
	// Faults assigns fault plans to individual devices (sparse).
	Faults []DeviceFaults
}

// DeviceFaults installs a fault plan (faults package grammar) on one
// device index.
type DeviceFaults struct {
	Device int
	Plan   string
}

// Defaults for zero Spec fields.
const (
	DefaultHorizon    = 6 * sim.Hour
	DefaultActive     = 2 * sim.Millisecond
	DefaultWakePeriod = 30 * sim.Second
)

// baseConfig resolves the preset name.
func baseConfig(preset string) (platform.Config, error) {
	switch preset {
	case "", "odrips":
		return platform.ODRIPSConfig(), nil
	case "baseline":
		return platform.DefaultConfig(), nil
	case "wake-up-off":
		return platform.DefaultConfig().WithTechniques(platform.WakeUpOff), nil
	case "aon-io-gate":
		return platform.DefaultConfig().WithTechniques(platform.WakeUpOff | platform.AONIOGate), nil
	case "ctx-sgx-dram":
		return platform.DefaultConfig().WithTechniques(platform.CtxSGXDRAM), nil
	}
	return platform.Config{}, fmt.Errorf("fleet: unknown preset %q (want odrips, baseline, wake-up-off, aon-io-gate, or ctx-sgx-dram)", preset)
}

// withDefaults fills zero fields.
func (s Spec) withDefaults() Spec {
	if s.Horizon == 0 {
		s.Horizon = DefaultHorizon
	}
	if s.Active == 0 {
		s.Active = DefaultActive
	}
	if s.WakePeriod == 0 {
		s.WakePeriod = DefaultWakePeriod
	}
	if s.Shards == 0 {
		s.Shards = 1
	}
	if s.Spread.SeedBase == 0 {
		s.Spread.SeedBase = 1
	}
	if s.Spread.SeedStride == 0 {
		s.Spread.SeedStride = 1
	}
	return s
}

// Normalized returns the spec with defaults filled and validated — the
// form the job queue runs and hashes for job identities, so two
// submissions differing only in defaulted fields are the same job.
func (s Spec) Normalized() (Spec, error) {
	s = s.withDefaults()
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// Validate checks a spec (after defaulting).
func (s Spec) Validate() error {
	if s.Devices < 1 {
		return fmt.Errorf("fleet: %d devices (want at least 1)", s.Devices)
	}
	if _, err := baseConfig(s.Preset); err != nil {
		return err
	}
	if s.Horizon < 0 || s.Active < 0 || s.WakePeriod <= 0 {
		return fmt.Errorf("fleet: bad cycle shape (horizon %v, active %v, wake period %v)", s.Horizon, s.Active, s.WakePeriod)
	}
	if s.Shards < 0 || s.Workers < 0 || s.PlaneClasses < 0 {
		return fmt.Errorf("fleet: negative shards/workers/plane-classes")
	}
	if s.Shards > s.Devices {
		return fmt.Errorf("fleet: %d shards for %d devices", s.Shards, s.Devices)
	}
	for _, j := range s.Spread.JitterSteps {
		if j < 0 || j >= s.WakePeriod {
			return fmt.Errorf("fleet: jitter step %v out of [0, wake period)", j)
		}
	}
	for _, df := range s.Spread.Faults {
		if df.Device < 0 || df.Device >= s.Devices {
			return fmt.Errorf("fleet: fault plan for device %d outside fleet of %d", df.Device, s.Devices)
		}
		if _, err := faults.Parse(df.Plan); err != nil {
			return fmt.Errorf("fleet: device %d: %w", df.Device, err)
		}
	}
	return nil
}

// device is one expanded fleet member.
type device struct {
	index   int
	cfg     platform.Config
	idle    sim.Duration
	cycles  int
	pack    battery.Pack
	planStr string
	shard   int

	memoClass string
	runClass  string
}

// classKeys computes the memo and run class keys of a job's devices once
// per distinct perturbation tuple instead of once per device: a device's
// configuration differs from the preset only in its output-inert seed and
// its drift, so its memo class is a function of the drift alone, and its
// run class of (drift, idle, fault plan) — the cycle count follows from the
// idle period. Devices sharing a tuple share the key strings.
type classKeys struct {
	s    Spec
	base platform.Config
	memo map[int64]string
	run  map[runTuple]string
}

type runTuple struct {
	drift int64
	idle  sim.Duration
	plan  string
}

func newClassKeys(s Spec, base platform.Config) *classKeys {
	return &classKeys{s: s, base: base, memo: make(map[int64]string), run: make(map[runTuple]string)}
}

// drift returns device i's slow-crystal error: the preset's plus its
// spread entry.
func (k *classKeys) drift(i int) int64 {
	d := k.base.XtalSlowPPB
	if n := len(k.s.Spread.DriftPPB); n > 0 {
		d += k.s.Spread.DriftPPB[i%n]
	}
	return d
}

// memoClass returns platform.MemoClassKey of the preset at drift.
func (k *classKeys) memoClass(drift int64) string {
	key, ok := k.memo[drift]
	if !ok {
		cfg := k.base
		cfg.XtalSlowPPB = drift
		key = platform.MemoClassKey(cfg)
		k.memo[drift] = key
	}
	return key
}

// runClass returns the run class of a device with the given tuple and
// cycle count (a function of idle).
func (k *classKeys) runClass(t runTuple, cycles int) string {
	key, ok := k.run[t]
	if !ok {
		key = fmt.Sprintf("%s|active=%d|idle=%d|n=%d|plan=%s",
			k.memoClass(t.drift), int64(k.s.Active), int64(t.idle), cycles, t.plan)
		k.run[t] = key
	}
	return key
}

// memoClassCount returns the number of distinct memo classes among the
// job's devices without expanding them: drift entries cycle over the
// device index, so the first min(Devices, len(DriftPPB)) devices already
// cover every drift.
func memoClassCount(s Spec, base platform.Config) int {
	k := newClassKeys(s, base)
	n := min(s.Devices, max(len(s.Spread.DriftPPB), 1))
	for i := 0; i < n; i++ {
		k.memoClass(k.drift(i))
	}
	return len(k.memo)
}

// expand deterministically materializes the per-device list from a
// defaulted, validated spec. Devices are produced in index order; shard
// assignment is the balanced contiguous split index*Shards/Devices.
func expand(s Spec) ([]device, error) {
	base, err := baseConfig(s.Preset)
	if err != nil {
		return nil, err
	}
	plans := make(map[int]string, len(s.Spread.Faults))
	for _, df := range s.Spread.Faults {
		if _, dup := plans[df.Device]; dup {
			return nil, fmt.Errorf("fleet: device %d has two fault plans", df.Device)
		}
		plans[df.Device] = df.Plan
	}
	keys := newClassKeys(s, base)
	devices := make([]device, s.Devices)
	for i := range devices {
		d := &devices[i]
		d.index = i
		d.cfg = base
		d.cfg.Seed = s.Spread.SeedBase + int64(i)*s.Spread.SeedStride
		d.cfg.XtalSlowPPB = keys.drift(i)
		d.idle = s.WakePeriod
		if n := len(s.Spread.JitterSteps); n > 0 {
			d.idle += s.Spread.JitterSteps[i%n]
		}
		period := s.Active + d.idle
		d.cycles = int(s.Horizon / period)
		if d.cycles < 1 {
			d.cycles = 1
		}
		d.pack = battery.Tablet()
		if n := len(s.Spread.BatteryMWh); n > 0 {
			d.pack.CapacityMWh = s.Spread.BatteryMWh[i%n]
		}
		if err := d.pack.Validate(); err != nil {
			return nil, fmt.Errorf("fleet: device %d: %w", i, err)
		}
		d.planStr = plans[i]
		d.shard = i * s.Shards / s.Devices

		d.memoClass = keys.memoClass(d.cfg.XtalSlowPPB)
		d.runClass = keys.runClass(runTuple{drift: d.cfg.XtalSlowPPB, idle: d.idle, plan: d.planStr}, d.cycles)
	}
	return devices, nil
}

// cyclesFor builds a device's workload.
func cyclesFor(s Spec, d device) []workload.Cycle {
	return workload.Fixed(d.cycles, s.Active, d.idle)
}

// parseDur parses a human duration ("30s", "6h") into sim time.
// Durations whose picosecond representation overflows int64 (~106 days)
// are rejected rather than silently wrapped.
func parseDur(v string) (sim.Duration, error) {
	if v == "" {
		return 0, nil
	}
	td, err := time.ParseDuration(v)
	if err != nil {
		return 0, fmt.Errorf("fleet: %w", err)
	}
	ns := td.Nanoseconds()
	const maxNS = math.MaxInt64 / int64(sim.Nanosecond)
	if ns > maxNS || ns < -maxNS {
		return 0, fmt.Errorf("fleet: %v overflows simulated time (limit ~106 days)", td)
	}
	return sim.Duration(ns) * sim.Nanosecond, nil
}
