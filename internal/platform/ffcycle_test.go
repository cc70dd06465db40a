package platform

import (
	"reflect"
	"testing"

	"odrips/internal/device"
	"odrips/internal/dram"
	"odrips/internal/power"
	"odrips/internal/sim"
	"odrips/internal/workload"
)

// runWithMode builds a platform for cfg, forces the fast-forward mode, and
// runs the cycles, returning everything observable.
func runWithMode(t *testing.T, cfg Config, mode FFMode, cycles []workload.Cycle) (Result, []FlowStep, FFStats) {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := p.SetFastForward(mode); err != nil {
		t.Fatalf("SetFastForward: %v", err)
	}
	res, err := p.RunCycles(cycles)
	if err != nil {
		t.Fatalf("RunCycles(%v): %v", mode, err)
	}
	return res, p.FlowTrace(), p.FFStats()
}

// zeroPPBConfigs are configurations whose crystal phases recur across
// steady-state cycles, so whole-cycle replay can engage.
func zeroPPBConfigs() map[string]Config {
	mk := func(tech Technique) Config {
		c := DefaultConfig()
		c.XtalFastPPB = 0
		c.XtalSlowPPB = 0
		c.Techniques = tech
		return c
	}
	return map[string]Config{
		"baseline":     mk(0),
		"wakeupoff":    mk(WakeUpOff),
		"ctx-sgx-dram": mk(WakeUpOff | CtxSGXDRAM),
		"odrips":       mk(ODRIPS),
	}
}

// TestCycleReplayByteIdentical is the core tentpole assertion: with the
// cycle memo engaged, every Result field and the flow trace are
// byte-identical to a full simulation.
func TestCycleReplayByteIdentical(t *testing.T) {
	for name, cfg := range zeroPPBConfigs() {
		t.Run(name, func(t *testing.T) {
			cycles := workload.Fixed(40, 0, 30*sim.Second)
			resOff, traceOff, statsOff := runWithMode(t, cfg, FFOff, cycles)
			resOn, traceOn, statsOn := runWithMode(t, cfg, FFOn, cycles)
			if statsOff.CyclesReplayed != 0 {
				t.Fatalf("FFOff replayed %d cycles", statsOff.CyclesReplayed)
			}
			if !reflect.DeepEqual(resOff, resOn) {
				t.Errorf("Result diverged:\noff: %+v\non:  %+v", resOff, resOn)
			}
			if !reflect.DeepEqual(traceOff, traceOn) {
				t.Errorf("FlowTrace diverged: off %d steps, on %d steps", len(traceOff), len(traceOn))
				for i := range traceOff {
					if i < len(traceOn) && !reflect.DeepEqual(traceOff[i], traceOn[i]) {
						t.Errorf("first divergent step %d:\noff: %+v\non:  %+v", i, traceOff[i], traceOn[i])
						break
					}
				}
			}
			t.Logf("recorded=%d replayed=%d", statsOn.CyclesRecorded, statsOn.CyclesReplayed)
			if statsOn.CyclesReplayed == 0 {
				t.Errorf("cycle replay never engaged (recorded %d)", statsOn.CyclesRecorded)
			}
		})
	}
}

// TestCycleReplayMixedWakeSources exercises memo keys that differ only in
// the wake kind, including the external/thermal wake paths through the
// chipset.
func TestCycleReplayMixedWakeSources(t *testing.T) {
	cfg := zeroPPBConfigs()["odrips"]
	var cycles []workload.Cycle
	for i := 0; i < 30; i++ {
		w := workload.WakeTimer
		switch i % 6 {
		case 2:
			w = workload.WakeExternal
		case 4:
			w = workload.WakeThermal
		}
		cycles = append(cycles, workload.Cycle{Idle: 30 * sim.Second, Wake: w})
	}
	resOff, traceOff, _ := runWithMode(t, cfg, FFOff, cycles)
	resOn, traceOn, statsOn := runWithMode(t, cfg, FFOn, cycles)
	if !reflect.DeepEqual(resOff, resOn) {
		t.Errorf("Result diverged:\noff: %+v\non:  %+v", resOff, resOn)
	}
	if !reflect.DeepEqual(traceOff, traceOn) {
		t.Errorf("FlowTrace diverged")
	}
	t.Logf("recorded=%d replayed=%d", statsOn.CyclesRecorded, statsOn.CyclesReplayed)
}

// TestCycleReplayJitteredIdle keeps the cycle parameters unique per cycle
// (jittered idle); the cycle memo then finds no run-length batches, but the
// MEE op memo still engages, and results stay byte-identical.
func TestCycleReplayJitteredIdle(t *testing.T) {
	cfg := ODRIPSConfig() // default (non-zero) ppb: the realistic case
	cycles := workload.ConnectedStandby(25, 7)
	resOff, traceOff, _ := runWithMode(t, cfg, FFOff, cycles)
	resOn, traceOn, statsOn := runWithMode(t, cfg, FFOn, cycles)
	if !reflect.DeepEqual(resOff, resOn) {
		t.Errorf("Result diverged:\noff: %+v\non:  %+v", resOff, resOn)
	}
	if !reflect.DeepEqual(traceOff, traceOn) {
		t.Errorf("FlowTrace diverged")
	}
	if statsOn.MEEOpsReplayed == 0 {
		t.Errorf("MEE op replay never engaged")
	}
}

// runNICDriven is runWithMode for a device-driven platform: a NIC whose
// coalesced RX wakes usually end the idle period before the OS timer, plus
// an optional hook that schedules extra events before the run. The run's
// error is returned rather than fatal, so callers can compare failures.
func runNICDriven(t *testing.T, mode FFMode, cycles []workload.Cycle, hook func(*Platform)) (Result, []FlowStep, FFStats, error) {
	t.Helper()
	p, err := New(ODRIPSConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := p.SetFastForward(mode); err != nil {
		t.Fatalf("SetFastForward: %v", err)
	}
	nic, err := device.NewNIC(p.Scheduler(), p.LTR(), p, device.NICConfig{
		Name: "nic", RateKBps: 20, PacketBytes: 1500, BufferBytes: 64 << 10, Seed: 11,
	})
	if err != nil {
		t.Fatalf("NewNIC: %v", err)
	}
	nic.Start()
	p.OnQuiesce(nic.Stop)
	if hook != nil {
		hook(p)
	}
	res, err := p.RunCycles(cycles)
	return res, p.FlowTrace(), p.FFStats(), err
}

// TestMEEReplayNICDriven: with only the NIC's peripheral events queued,
// the MEE op memo engages while whole-cycle replay stays off, and the run
// is byte-identical at every mode (verify diffs each canonical op).
func TestMEEReplayNICDriven(t *testing.T) {
	cycles := workload.Fixed(12, 0, 30*sim.Second)
	resOff, traceOff, statsOff, err := runNICDriven(t, FFOff, cycles, nil)
	if err != nil {
		t.Fatalf("off: %v", err)
	}
	if resOff.WakeCounts["external"] == 0 {
		t.Fatalf("the NIC never woke the platform: %v", resOff.WakeCounts)
	}
	if statsOff != (FFStats{}) {
		t.Errorf("off mode touched the memo: %+v", statsOff)
	}
	for _, mode := range []FFMode{FFOn, FFVerify} {
		res, trace, stats, err := runNICDriven(t, mode, cycles, nil)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if !reflect.DeepEqual(resOff, res) {
			t.Errorf("%v: Result diverged:\noff: %+v\ngot: %+v", mode, resOff, res)
		}
		if !reflect.DeepEqual(traceOff, trace) {
			t.Errorf("%v: FlowTrace diverged", mode)
		}
		if stats.CyclesReplayed != 0 {
			t.Errorf("%v: replayed %d whole cycles with device traffic queued", mode, stats.CyclesReplayed)
		}
		if mode == FFOn && stats.MEEOpsReplayed == 0 {
			t.Errorf("MEE op replay never engaged on a NIC-driven run: %+v", stats)
		}
	}
}

// TestForeignEventBlocksMEEReplay: an untagged event queued next to the
// NIC's traffic is foreign, so no MEE op replays until it has fired. The
// observer variant shows replay resuming afterwards; the tamper variant
// corrupts the context region through Mem() mid-run, and the restore must
// catch it identically at every mode (a replayed restore would not read
// DRAM at all).
func TestForeignEventBlocksMEEReplay(t *testing.T) {
	cycles := workload.Fixed(12, 0, 30*sim.Second)
	strike := func(tamper bool, replayedAt *uint64) func(*Platform) {
		return func(p *Platform) {
			start := p.Scheduler().Now().Add(10 * sim.Second) // several NIC-driven cycles in
			var fn func()
			fn = func() {
				// Act only while the context sits in self-refreshed DRAM.
				if p.state != power.Idle {
					if p.Scheduler().Now().Sub(start) > 10*sim.Second {
						t.Errorf("platform never idle after %v", start)
						return
					}
					p.Scheduler().After(sim.Millisecond, "test.foreign", fn)
					return
				}
				*replayedAt = p.FFStats().MEEOpsReplayed
				if !tamper {
					return
				}
				mem := p.Mem()
				addr := p.CtxRegion().Base + 17*dram.BlockSize
				err := mem.SetState(dram.Active)
				var blk []byte
				if err == nil {
					blk, err = mem.Read(addr, dram.BlockSize)
				}
				if err == nil {
					blk[0] ^= 0x01
					err = mem.Write(addr, blk)
				}
				if err == nil {
					err = mem.SetState(dram.SelfRefresh)
				}
				if err != nil {
					t.Errorf("tamper: %v", err)
				}
			}
			p.Scheduler().At(start, "test.foreign", fn)
		}
	}

	t.Run("observer", func(t *testing.T) {
		var atOff, atOn uint64
		resOff, traceOff, _, err := runNICDriven(t, FFOff, cycles, strike(false, &atOff))
		if err != nil {
			t.Fatalf("off: %v", err)
		}
		resOn, traceOn, statsOn, err := runNICDriven(t, FFOn, cycles, strike(false, &atOn))
		if err != nil {
			t.Fatalf("on: %v", err)
		}
		if !reflect.DeepEqual(resOff, resOn) || !reflect.DeepEqual(traceOff, traceOn) {
			t.Errorf("observer run diverged between off and on")
		}
		if atOn != 0 {
			t.Errorf("%d MEE ops replayed while a foreign event was pending", atOn)
		}
		if statsOn.MEEOpsReplayed == 0 {
			t.Errorf("MEE op replay did not resume after the foreign event fired")
		}
	})

	t.Run("tamper", func(t *testing.T) {
		var at uint64
		_, _, _, errOff := runNICDriven(t, FFOff, cycles, strike(true, &at))
		if errOff == nil {
			t.Fatal("off: tampered context restored without error")
		}
		for _, mode := range []FFMode{FFOn, FFVerify} {
			_, _, stats, err := runNICDriven(t, mode, cycles, strike(true, &at))
			if err == nil || err.Error() != errOff.Error() {
				t.Errorf("%v: error %v, want the off-mode detection %q", mode, err, errOff)
			}
			if stats.MEEOpsReplayed != 0 {
				t.Errorf("%v: %d MEE ops replayed across the tamper window", mode, stats.MEEOpsReplayed)
			}
		}
	})
}

// TestCycleReplayShallowCycles replays cycles that park in a shallow
// C-state (no flow, no tracker transition) — the open-interval handling in
// the tracker snapshot is what keeps these exact. Shallow cycles end at an
// arbitrary (not edge-aligned) instant, so an all-shallow workload never
// revisits a crystal phase and runs in full; interleaving deep cycles
// re-anchors the fast crystal every exit and makes the pattern recur.
func TestCycleReplayShallowCycles(t *testing.T) {
	cfg := zeroPPBConfigs()["odrips"]
	var cycles []workload.Cycle
	for i := 0; i < 15; i++ {
		cycles = append(cycles,
			workload.Cycle{Idle: 30 * sim.Second, Wake: workload.WakeTimer},
			// A short idle interval fails the TNTE gate and parks shallow.
			workload.Cycle{Idle: 2 * sim.Millisecond, Wake: workload.WakeTimer},
		)
	}
	resOff, traceOff, _ := runWithMode(t, cfg, FFOff, cycles)
	resOn, traceOn, statsOn := runWithMode(t, cfg, FFOn, cycles)
	if !reflect.DeepEqual(resOff, resOn) {
		t.Errorf("Result diverged:\noff: %+v\non:  %+v", resOff, resOn)
	}
	if !reflect.DeepEqual(traceOff, traceOn) {
		t.Errorf("FlowTrace diverged")
	}
	t.Logf("recorded=%d replayed=%d shallow=%v", statsOn.CyclesRecorded, statsOn.CyclesReplayed, resOn.ShallowIdles)
	if statsOn.CyclesReplayed == 0 {
		t.Errorf("shallow cycles never replayed")
	}
	if resOn.ShallowIdles["C8"] != 15 {
		t.Errorf("shallow idles = %v, want 15 C8 parks", resOn.ShallowIdles)
	}

	// An all-shallow workload cannot recur (no re-anchoring), but must
	// still be byte-identical while running in full.
	flat := workload.Fixed(20, 0, 2*sim.Millisecond)
	fOff, _, _ := runWithMode(t, cfg, FFOff, flat)
	fOn, _, fStats := runWithMode(t, cfg, FFOn, flat)
	if !reflect.DeepEqual(fOff, fOn) {
		t.Errorf("all-shallow Result diverged:\noff: %+v\non:  %+v", fOff, fOn)
	}
	t.Logf("all-shallow recorded=%d replayed=%d", fStats.CyclesRecorded, fStats.CyclesReplayed)
}

// TestVerifyModeCleanRun: verify mode re-simulates every memoized cycle
// and diffs it against the record; a healthy platform must pass.
func TestVerifyModeCleanRun(t *testing.T) {
	for name, cfg := range zeroPPBConfigs() {
		t.Run(name, func(t *testing.T) {
			cycles := workload.Fixed(20, 0, 30*sim.Second)
			res, _, stats := runWithMode(t, cfg, FFVerify, cycles)
			if stats.CyclesReplayed != 0 {
				t.Errorf("verify mode replayed %d cycles", stats.CyclesReplayed)
			}
			if res.Cycles != 20 {
				t.Errorf("cycles = %d", res.Cycles)
			}
		})
	}
}

// TestFFModeParsing covers the flag round trip.
func TestFFModeParsing(t *testing.T) {
	for _, m := range []FFMode{FFOn, FFOff, FFVerify} {
		got, err := ParseFFMode(m.String())
		if err != nil || got != m {
			t.Errorf("round trip %v: got %v, err %v", m, got, err)
		}
	}
	if _, err := ParseFFMode("maybe"); err == nil {
		t.Errorf("ParseFFMode(maybe) succeeded")
	}
}
