package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"odrips/internal/memostore"
	"odrips/internal/platform"
	"odrips/internal/sim"
)

// mixedSpec is a small but fully featured fleet: two drift populations
// (two memo classes), three jitter steps, two battery capacities, one
// faulted device — seven run classes across 48 devices, cheap enough to
// also simulate naively device-by-device for the equivalence test.
func mixedSpec() Spec {
	return Spec{
		Name:    "mixed",
		Devices: 48,
		Horizon: 10 * sim.Minute,
		Shards:  4,
		Spread: Spread{
			DriftPPB:    []int64{0, 40},
			BatteryMWh:  []float64{36000, 30000},
			JitterSteps: []sim.Duration{0, 250 * sim.Millisecond, 500 * sim.Millisecond},
			Faults:      []DeviceFaults{{Device: 5, Plan: "wake@1.3"}},
		},
	}
}

func mustAggJSON(t *testing.T, rep *Report) string {
	t.Helper()
	b, err := json.Marshal(rep.Aggregates)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func mustReportJSON(t *testing.T, rep *Report) string {
	t.Helper()
	b, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestFleetMatchesNaiveSimulation is the engine's ground truth: the
// fleet aggregates must be byte-identical to simulating every device
// individually, with no plane and no dedup, and folding the results
// through the same aggregation. This pins all three collapse layers
// (run dedup, cross-device replay, fast-forward) as pure optimizations.
func TestFleetMatchesNaiveSimulation(t *testing.T) {
	s := mixedSpec().withDefaults()

	rep, err := Run(s, nil)
	if err != nil {
		t.Fatal(err)
	}

	devices, err := expand(s)
	if err != nil {
		t.Fatal(err)
	}
	byRun := make(map[string]runOutcome)
	runRepIndex := make(map[string]int)
	warmFF := make(map[string]platform.FFStats)
	memoRepIndex := make(map[string]int)
	warmCount := make(map[string]int)
	for _, d := range devices {
		if _, ok := byRun[d.runClass]; !ok {
			out, err := runDevice(s, d, nil) // solo: no plane, no snapshot
			if err != nil {
				t.Fatalf("device %d solo: %v", d.index, err)
			}
			byRun[d.runClass] = out
			runRepIndex[d.runClass] = d.index
		}
		if _, ok := memoRepIndex[d.memoClass]; !ok {
			memoRepIndex[d.memoClass] = d.index
			warmFF[d.memoClass] = platform.FFStats{}
			warmCount[d.memoClass] = d.cycles
		}
	}
	naive, err := aggregate(s, devices, byRun, runRepIndex, warmFF, memoRepIndex, warmCount)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := mustAggJSON(t, rep), mustAggJSON(t, naive); got != want {
		t.Errorf("fleet aggregates diverged from naive per-device simulation:\nfleet: %s\nnaive: %s", got, want)
	}
	if rep.Memo.RunClasses != 7 || rep.Memo.MemoClasses != 2 {
		t.Errorf("class structure: %d run, %d memo classes (want 7, 2)",
			rep.Memo.RunClasses, rep.Memo.MemoClasses)
	}
}

// TestFleetDeterminism: the whole report is byte-identical at any worker
// count, and the Aggregates section additionally at any shard count and
// fast-forward mode.
func TestFleetDeterminism(t *testing.T) {
	base := mixedSpec()

	ref, err := Run(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	refFull := mustReportJSON(t, ref)
	refAgg := mustAggJSON(t, ref)

	for _, workers := range []int{1, 3} {
		s := base
		s.Workers = workers
		rep, err := Run(s, nil)
		if err != nil {
			t.Fatal(err)
		}
		if mustReportJSON(t, rep) != refFull {
			t.Errorf("workers=%d: full report diverged", workers)
		}
	}
	for _, shards := range []int{1, 16, 48} {
		s := base
		s.Shards = shards
		rep, err := Run(s, nil)
		if err != nil {
			t.Fatal(err)
		}
		if mustAggJSON(t, rep) != refAgg {
			t.Errorf("shards=%d: aggregates diverged", shards)
		}
		if len(rep.Shards) != shards {
			t.Errorf("shards=%d: %d shard rows", shards, len(rep.Shards))
		}
	}
	defer platform.SetDefaultFastForward(platform.DefaultFastForward())
	for _, mode := range []platform.FFMode{platform.FFOff, platform.FFVerify, platform.FFOn} {
		platform.SetDefaultFastForward(mode)
		rep, err := Run(base, nil)
		if err != nil {
			t.Fatalf("fastforward=%v: %v", mode, err)
		}
		if mustAggJSON(t, rep) != refAgg {
			t.Errorf("fastforward=%v: aggregates diverged", mode)
		}
	}
}

// TestFleetHomogeneousHitRate is the acceptance scenario: a
// homogeneous-spread fleet (seeds and battery capacities vary, physics
// does not) collapses to one simulated run class, and the cross-device
// memo hit rate clears 90% with a wide margin.
func TestFleetHomogeneousHitRate(t *testing.T) {
	s := Spec{
		Name:    "homogeneous",
		Devices: 1000,
		Horizon: 10 * sim.Minute,
		Spread: Spread{
			SeedStride: 7,
			BatteryMWh: []float64{36000, 30000, 28000},
		},
	}
	rep, err := Run(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Memo.RunClasses != 1 || rep.Memo.MemoClasses != 1 {
		t.Fatalf("homogeneous fleet split: %d run, %d memo classes", rep.Memo.RunClasses, rep.Memo.MemoClasses)
	}
	if rep.Memo.CrossDeviceHitRatePct < 90 {
		t.Errorf("cross-device hit rate %.3f%% < 90%%", rep.Memo.CrossDeviceHitRatePct)
	}
	if rep.Memo.SimulatedRuns != 2 { // one warm run, one frozen-snapshot run
		t.Errorf("simulated %d runs for a one-class fleet", rep.Memo.SimulatedRuns)
	}
	// Battery spread must show up in the life distribution even though
	// only one device was simulated.
	if agg := rep.Aggregates; !(agg.BatteryLifeHours.Min < agg.BatteryLifeHours.Max) {
		t.Errorf("battery spread lost: %+v", agg.BatteryLifeHours)
	}
}

// TestFleetLoadHarness hammers the shared default plane with many
// concurrent fleet jobs (two alternating specs sharing a memo class) and
// checks every job's aggregates against sequential golden runs. The CI
// fleet-smoke tier raises the job count via ODRIPS_FLEET_LOAD_JOBS and
// runs this under -race.
func TestFleetLoadHarness(t *testing.T) {
	jobs := 64
	if v := os.Getenv("ODRIPS_FLEET_LOAD_JOBS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("ODRIPS_FLEET_LOAD_JOBS=%q", v)
		}
		jobs = n
	}
	specs := []Spec{
		{Name: "load-a", Devices: 8, Horizon: 2 * sim.Minute},
		{Name: "load-b", Devices: 8, Horizon: 2 * sim.Minute,
			Spread: Spread{JitterSteps: []sim.Duration{250 * sim.Millisecond}}},
	}
	want := make([]string, len(specs))
	for i := range specs {
		rep, err := Run(specs[i], platform.NewMemoPlane(nil, 0))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = mustAggJSON(t, rep)
	}

	SetDefaultPlane(platform.NewMemoPlane(nil, 0))
	t.Cleanup(func() { SetDefaultPlane(platform.NewMemoPlane(nil, 0)) })
	const lanes = 8
	errs := make(chan error, lanes)
	var wg sync.WaitGroup
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for j := lane; j < jobs; j += lanes {
				i := j % len(specs)
				rep, err := Run(specs[i], DefaultPlane())
				if err != nil {
					errs <- fmt.Errorf("job %d: %w", j, err)
					return
				}
				if got, err := json.Marshal(rep.Aggregates); err != nil || string(got) != want[i] {
					errs <- fmt.Errorf("job %d (%s): aggregates diverged under load", j, specs[i].Name)
					return
				}
			}
		}(lane)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// fleetStore opens one RW store handle over dir, emulating a process in
// the multi-process tests (claims, entries, and packs are file-based).
func fleetStore(t *testing.T, dir string) *memostore.Store {
	t.Helper()
	s, err := memostore.Open(dir, memostore.RW)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestFleetSecondProcessRecomputesNothing is the sequential half of the
// cross-process contract: a second process over an already-warmed shared
// store serves every memo class from disk — zero claims, zero writes —
// and reports byte-identical aggregates.
func TestFleetSecondProcessRecomputesNothing(t *testing.T) {
	s := mixedSpec()
	ref, err := Run(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	refAgg := mustAggJSON(t, ref)

	dir := t.TempDir()
	storeA := fleetStore(t, dir)
	repA, err := Run(s, platform.NewMemoPlane(storeA, 0))
	if err != nil {
		t.Fatal(err)
	}
	if mustAggJSON(t, repA) != refAgg {
		t.Error("process A aggregates diverged from the plane-less run")
	}
	stA := storeA.Stats()
	if stA.Writes == 0 || stA.ClaimsOwned == 0 {
		t.Fatalf("cold process stats %+v: want writes and owned claims", stA)
	}

	storeB := fleetStore(t, dir)
	repB, err := Run(s, platform.NewMemoPlane(storeB, 0))
	if err != nil {
		t.Fatal(err)
	}
	if mustAggJSON(t, repB) != refAgg {
		t.Error("process B aggregates diverged")
	}
	stB := storeB.Stats()
	if stB.Writes != 0 || stB.ClaimsOwned != 0 {
		t.Fatalf("warm process re-did cold work: %+v", stB)
	}
	if stB.Hits == 0 {
		t.Fatalf("warm process never read the shared store: %+v", stB)
	}

	// Packing the store changes the byte layout, not the outcome: a third
	// process over the compacted store behaves exactly like B, now served
	// from the segment index.
	if cs, cerr := storeA.Compact(); cerr != nil || cs.LooseRemoved == 0 {
		t.Fatalf("compact: %+v %v", cs, cerr)
	}
	storeC := fleetStore(t, dir)
	repC, err := Run(s, platform.NewMemoPlane(storeC, 0))
	if err != nil {
		t.Fatal(err)
	}
	if mustAggJSON(t, repC) != refAgg {
		t.Error("packed-store process aggregates diverged")
	}
	stC := storeC.Stats()
	if stC.Writes != 0 || stC.ClaimsOwned != 0 || stC.PackHits == 0 {
		t.Fatalf("packed-store process stats %+v: want pure pack hits", stC)
	}
}

// TestFleetTwoProcessesShareColdStart races two "processes" (two store
// handles, two planes) through the same cold spec over one shared store
// directory, under -race in the tier-1 suite. The claim protocol
// guarantees each memo class's discovery is claimed at least once and at
// most once per process — never left unclaimed, never computed by a
// process that successfully awaited — and results are byte-identical
// either way.
func TestFleetTwoProcessesShareColdStart(t *testing.T) {
	s := mixedSpec()
	ref, err := Run(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	refAgg := mustAggJSON(t, ref)

	dir := t.TempDir()
	stores := []*memostore.Store{fleetStore(t, dir), fleetStore(t, dir)}
	reps := make([]*Report, len(stores))
	var wg sync.WaitGroup
	for i := range stores {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := Run(s, platform.NewMemoPlane(stores[i], 0))
			if err != nil {
				t.Errorf("process %d: %v", i, err)
				return
			}
			reps[i] = rep
		}()
	}
	wg.Wait()
	for i, rep := range reps {
		if rep == nil {
			continue
		}
		if mustAggJSON(t, rep) != refAgg {
			t.Errorf("process %d aggregates diverged from the plane-less run", i)
		}
	}

	classes := uint64(ref.Memo.MemoClasses)
	var owned, takeovers uint64
	for _, st := range stores {
		stats := st.Stats()
		owned += stats.ClaimsOwned
		takeovers += stats.ClaimTakeovers
	}
	// Every cold class is claimed by its first toucher; a class can be
	// claimed by both processes only in the benign release/re-claim
	// window, never more than once per process (the loser of a live race
	// awaits and adopts instead).
	if owned < classes || owned > 2*classes {
		t.Errorf("claims owned fleet-wide = %d, want within [%d, %d]", owned, classes, 2*classes)
	}
	if takeovers != 0 {
		t.Errorf("%d stale takeovers during a live run", takeovers)
	}
}

// TestParseSpecJSON covers the spec file round trip and its error paths.
func TestParseSpecJSON(t *testing.T) {
	s, err := ParseSpecJSON([]byte(`{
		"name": "nightly", "devices": 100, "preset": "odrips",
		"horizon": "6h", "wake_period": "30s", "shards": 4,
		"spread": {
			"seed_base": 10, "drift_ppb": [0, 40],
			"battery_mwh": [36000], "jitter_steps": ["0s", "250ms"],
			"faults": [{"device": 3, "plan": "wake@1.3"}]
		}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Devices != 100 || s.Horizon != 6*sim.Hour || s.Shards != 4 {
		t.Errorf("parsed spec %+v", s)
	}
	if len(s.Spread.JitterSteps) != 2 || s.Spread.JitterSteps[1] != 250*sim.Millisecond {
		t.Errorf("jitter steps %v", s.Spread.JitterSteps)
	}
	if len(s.Spread.Faults) != 1 || s.Spread.Faults[0].Plan != "wake@1.3" {
		t.Errorf("faults %+v", s.Spread.Faults)
	}

	for name, bad := range map[string]string{
		"unknown field": `{"devices": 1, "typo_knob": 3}`,
		"bad duration":  `{"devices": 1, "horizon": "6 fortnights"}`,
		"bad plan":      `{"devices": 1, "spread": {"faults": [{"device": 0, "plan": "nonsense"}]}}`,
		"no devices":    `{}`,
	} {
		if _, err := ParseSpecJSON([]byte(bad)); err == nil {
			t.Errorf("%s: accepted %s", name, bad)
		}
	}
}

// TestFleetSpecValidation exercises Spec.Validate edges and the shard
// split invariants.
func TestFleetSpecValidation(t *testing.T) {
	for name, s := range map[string]Spec{
		"too many shards": {Devices: 2, Shards: 3},
		"bad preset":      {Devices: 1, Preset: "warp-drive"},
		"jitter >= wake":  {Devices: 1, Spread: Spread{JitterSteps: []sim.Duration{40 * sim.Second}}},
		"fault oob":       {Devices: 2, Spread: Spread{Faults: []DeviceFaults{{Device: 2, Plan: "wake@1.3"}}}},
	} {
		if err := s.withDefaults().Validate(); err == nil {
			t.Errorf("%s: validated", name)
		}
	}

	s := Spec{Devices: 10, Shards: 4}.withDefaults()
	devices, err := expand(s)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, s.Shards)
	prev := 0
	for _, d := range devices {
		if d.shard < prev || d.shard >= s.Shards {
			t.Fatalf("device %d: shard %d not a contiguous split", d.index, d.shard)
		}
		prev = d.shard
		counts[d.shard]++
	}
	for i, c := range counts {
		if c < 2 || c > 3 { // 10 devices over 4 shards: 3/2/3/2
			t.Errorf("shard %d has %d devices; want balanced", i, c)
		}
	}
}

// TestFleetAcceptanceScale pins the headline perf claim structurally
// (so it cannot rot with machine speed): the 10k-device six-hour
// acceptance fleet must simulate at most 1/50th of its device-cycles —
// the engine replaces ≥50× of the sequential work — at a ≥90%
// cross-device hit rate.
func TestFleetAcceptanceScale(t *testing.T) {
	s := Spec{
		Name:    "acceptance",
		Devices: 10000,
		Shards:  16,
		Spread: Spread{
			SeedStride: 3,
			BatteryMWh: []float64{36000, 30000, 28000},
		},
	}
	rep, err := Run(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Memo.CrossDeviceHitRatePct < 90 {
		t.Errorf("cross-device hit rate %.3f%% < 90%%", rep.Memo.CrossDeviceHitRatePct)
	}
	if got, budget := rep.Memo.SimulatedCycles, rep.Aggregates.TotalDeviceCycles/50; got > budget {
		t.Errorf("simulated %d of %d device-cycles; 50x bound allows %d",
			got, rep.Aggregates.TotalDeviceCycles, budget)
	}
	if rep.Aggregates.TotalDeviceCycles != 719*10000 {
		t.Errorf("total device-cycles %d; want 7,190,000 (719 per device)", rep.Aggregates.TotalDeviceCycles)
	}
}

// TestFleetProgress pins the serving-side progress contract: counters
// are monotone while the run executes, and at completion every total is
// accounted for, per shard and overall.
func TestFleetProgress(t *testing.T) {
	s := mixedSpec()
	prog := NewProgress()
	if st := prog.Stats(); st.Started {
		t.Fatal("progress started before the run")
	}

	// A polling reader races the run, checking monotonicity of every
	// counter across snapshots (the stream the server sends clients).
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var violations atomic.Int32
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last ProgressStats
		for {
			st := prog.Stats()
			if st.DevicesDone < last.DevicesDone || st.CyclesDone < last.CyclesDone ||
				st.RunsDone < last.RunsDone || st.WarmRunsDone < last.WarmRunsDone {
				violations.Add(1)
			}
			for i := range st.Shards {
				if i < len(last.Shards) && st.Shards[i].CyclesDone < last.Shards[i].CyclesDone {
					violations.Add(1)
				}
			}
			last = st
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	rep, err := RunWithProgress(context.Background(), s, nil, prog)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if violations.Load() > 0 {
		t.Errorf("%d non-monotone progress snapshots", violations.Load())
	}

	st := prog.Stats()
	if !st.Started {
		t.Fatal("progress never started")
	}
	if st.DevicesDone != st.Devices || st.Devices != s.Devices {
		t.Errorf("devices %d/%d (spec %d)", st.DevicesDone, st.Devices, s.Devices)
	}
	if st.CyclesDone != st.CyclesTotal || st.CyclesTotal != rep.Aggregates.TotalDeviceCycles {
		t.Errorf("cycles %d/%d (report %d)", st.CyclesDone, st.CyclesTotal, rep.Aggregates.TotalDeviceCycles)
	}
	if st.RunsDone != st.Runs || st.Runs != rep.Memo.RunClasses {
		t.Errorf("runs %d/%d (report %d classes)", st.RunsDone, st.Runs, rep.Memo.RunClasses)
	}
	if st.WarmRunsDone != st.WarmRuns || st.WarmRuns != rep.Memo.MemoClasses {
		t.Errorf("warm runs %d/%d (report %d classes)", st.WarmRunsDone, st.WarmRuns, rep.Memo.MemoClasses)
	}
	if len(st.Shards) != s.Shards {
		t.Fatalf("%d shard rows (spec %d)", len(st.Shards), s.Shards)
	}
	var shardCycles, shardDevices uint64
	for i, sh := range st.Shards {
		if sh.CyclesDone != sh.Cycles || sh.DevicesDone != sh.Devices {
			t.Errorf("shard %d incomplete: %d/%d cycles, %d/%d devices",
				i, sh.CyclesDone, sh.Cycles, sh.DevicesDone, sh.Devices)
		}
		shardCycles += sh.Cycles
		shardDevices += uint64(sh.Devices)
	}
	if shardCycles != st.CyclesTotal || shardDevices != uint64(st.Devices) {
		t.Errorf("shard totals %d cycles / %d devices; fleet %d / %d",
			shardCycles, shardDevices, st.CyclesTotal, st.Devices)
	}
}

// TestFleetCancellation: a canceled context stops the run at the next
// device-run boundary with an error that unwraps to context.Canceled,
// and a pre-canceled context never simulates at all.
func TestFleetCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunWithProgress(ctx, mixedSpec(), nil, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled run: %v", err)
	}

	// Cancel mid-run: trip the cancel from the progress callback of the
	// first completed warm run, so the cancellation lands while later
	// representatives are still pending.
	s := mixedSpec()
	s.Workers = 1
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	prog := NewProgress()
	var once sync.Once
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if prog.Stats().WarmRunsDone > 0 {
				once.Do(cancel)
				return
			}
		}
	}()
	_, err := RunWithProgress(ctx, s, nil, prog)
	close(done)
	wg.Wait()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel: %v", err)
	}
	if st := prog.Stats(); st.DevicesDone == st.Devices && st.CyclesDone == st.CyclesTotal {
		t.Error("run completed despite cancellation")
	}
}

// TestClassKeysMatchPerDeviceDefinition pins the once-per-tuple class
// keys to their per-device definition: the memo class is
// platform.MemoClassKey of the device's own configuration, and the run
// class adds the cycle shape, cycle count and fault plan.
func TestClassKeysMatchPerDeviceDefinition(t *testing.T) {
	s := mixedSpec()
	s.Devices = 60
	s.Spread.DriftPPB = []int64{0, 40, -25, 40, 90}
	s.Spread.JitterSteps = append(s.Spread.JitterSteps, 7*sim.Second)
	s.Spread.Faults = append(s.Spread.Faults, DeviceFaults{Device: 17, Plan: "wake@1.3"}, DeviceFaults{Device: 33, Plan: "drift@1:1000"})
	s, err := s.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	devices, err := expand(s)
	if err != nil {
		t.Fatal(err)
	}
	memo := map[string]bool{}
	for _, d := range devices {
		if want := platform.MemoClassKey(d.cfg); d.memoClass != want {
			t.Fatalf("device %d: memo class %q, want %q", d.index, d.memoClass, want)
		}
		want := fmt.Sprintf("%s|active=%d|idle=%d|n=%d|plan=%s",
			d.memoClass, int64(s.Active), int64(d.idle), d.cycles, d.planStr)
		if d.runClass != want {
			t.Fatalf("device %d: run class %q, want %q", d.index, d.runClass, want)
		}
		memo[d.memoClass] = true
	}
	if len(memo) != 4 {
		t.Fatalf("%d memo classes, want 4 distinct drifts", len(memo))
	}

	// PlaneFor sizes the plane from the same keys without expanding: never
	// below the job's memo classes, never below Spec.PlaneClasses.
	for _, c := range []struct{ devices, planeClasses, want int }{
		{60, 0, 4},
		{60, 9, 9},
		{3, 0, 3}, // only the first three drifts are in use
	} {
		s.Devices, s.PlaneClasses = c.devices, c.planeClasses
		s.Spread.Faults = nil
		s.Shards = 1
		pl, err := PlaneFor(s, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := pl.Stats().MaxClasses; got != c.want {
			t.Fatalf("%d devices, plane classes %d: plane of %d classes, want %d", c.devices, c.planeClasses, got, c.want)
		}
	}
}
