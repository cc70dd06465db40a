package platform

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"odrips/internal/memostore"
	"odrips/internal/sim"
	"odrips/internal/workload"
)

// oneWake is a WakeLatency-shaped sample: one short cycle ending in an
// external wake. Distinct idle lengths give distinct cycle keys, so a
// platform sharing a bundle with earlier samples cannot replay the whole
// cycle and must meet the MEE op records instead.
func oneWake(idle sim.Duration) []workload.Cycle {
	return []workload.Cycle{{Active: 2 * sim.Millisecond, Idle: idle, Wake: workload.WakeExternal}}
}

// runAttached builds a platform for cfg, lets attach hook it into a plane
// (nil: whatever New attached), forces mode and runs the cycles.
func runAttached(t *testing.T, cfg Config, attach func(*Platform), mode FFMode, cycles []workload.Cycle) (Result, []FlowStep, FFStats, error) {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if attach != nil {
		attach(p)
	}
	if err := p.SetFastForward(mode); err != nil {
		t.Fatalf("SetFastForward: %v", err)
	}
	res, err := p.RunCycles(cycles)
	return res, p.FlowTrace(), p.FFStats(), err
}

// TestSharedMEEOpsFreshPlatform: through the store's exact-Config bundle,
// a second fresh platform replays its first save and its restore — the
// records the first platform published — and still reports exactly what
// a full simulation reports.
func TestSharedMEEOpsFreshPlatform(t *testing.T) {
	withStore(t, t.TempDir(), memostore.RW)
	cfg := ODRIPSConfig()

	if _, _, st, err := runAttached(t, cfg, nil, FFOn, oneWake(300*sim.Millisecond)); err != nil {
		t.Fatal(err)
	} else if st.MEEOpsReplayed != 0 {
		t.Fatalf("first platform replayed %d MEE ops from an empty bundle", st.MEEOpsReplayed)
	}

	cycles := oneWake(307 * sim.Millisecond)
	resOff, traceOff, _, err := runAttached(t, cfg, nil, FFOff, cycles)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []FFMode{FFOn, FFVerify} {
		res, trace, st, err := runAttached(t, cfg, nil, mode, cycles)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if !reflect.DeepEqual(res, resOff) {
			t.Errorf("%v: Result diverged:\noff: %+v\ngot: %+v", mode, resOff, res)
		}
		if !reflect.DeepEqual(trace, traceOff) {
			t.Errorf("%v: FlowTrace diverged", mode)
		}
		want := uint64(2)
		if mode == FFVerify {
			want = 0
		}
		if st.MEEOpsReplayed != want || st.CyclesReplayed != 0 {
			t.Errorf("%v: %+v, want %d MEE ops and no whole cycle replayed", mode, st, want)
		}
	}
}

// TestSharedMEEOpsAcrossSeeds: two seeds of one memo class share their
// records through the plane. Seeds change the context bytes and the MEE
// key but never the traffic, so the adopted records replay exactly.
func TestSharedMEEOpsAcrossSeeds(t *testing.T) {
	cfgA := ODRIPSConfig()
	cfgB := cfgA
	cfgB.Seed = 99
	plane := NewMemoPlane(nil, 0)
	if _, _, _, err := runAttached(t, cfgA, plane.Attach, FFOn, oneWake(300*sim.Millisecond)); err != nil {
		t.Fatal(err)
	}

	cycles := oneWake(307 * sim.Millisecond)
	resOff, traceOff, _, err := runAttached(t, cfgB, nil, FFOff, cycles)
	if err != nil {
		t.Fatal(err)
	}
	res, trace, st, err := runAttached(t, cfgB, plane.Attach, FFOn, cycles)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, resOff) || !reflect.DeepEqual(trace, traceOff) {
		t.Errorf("seed 99 diverged from its full simulation after adopting seed 1's records")
	}
	if st.MEEOpsReplayed != 2 {
		t.Errorf("seed 99 replayed %d MEE ops, want its fresh save and restore: %+v", st.MEEOpsReplayed, st)
	}
	if _, _, _, err := runAttached(t, cfgB, plane.Attach, FFVerify, cycles); err != nil {
		t.Errorf("verify rejected records adopted across seeds: %v", err)
	}
}

// TestSharedMEEOpVerifyCatchesPlant: verify diffs every real op against
// the record it adopted, so a divergent record planted in the shared
// bundle fails the run instead of passing unseen.
func TestSharedMEEOpVerifyCatchesPlant(t *testing.T) {
	cfg := ODRIPSConfig()
	for _, kind := range []ffOpKind{ffFreshSave, ffRestore} {
		t.Run(kind.String(), func(t *testing.T) {
			plane := NewMemoPlane(nil, 0)
			if _, _, _, err := runAttached(t, cfg, plane.Attach, FFOn, oneWake(300*sim.Millisecond)); err != nil {
				t.Fatal(err)
			}
			b := plane.acquire(MemoClassKey(cfg))
			b.mu.Lock()
			if !b.ops[kind].ok {
				b.mu.Unlock()
				t.Fatalf("no %v record published", kind)
			}
			b.ops[kind].op.Stats.MetaReads++
			b.mu.Unlock()

			_, _, _, err := runAttached(t, cfg, plane.Attach, FFVerify, oneWake(307*sim.Millisecond))
			if err == nil || !strings.Contains(err.Error(), kind.String()+" diverged from memo") {
				t.Errorf("verify over a planted %v record: %v", kind, err)
			}
		})
	}
}

// TestSharedMEEOpsConcurrent fans fresh platforms of several seeds out
// over one plane class at once (run it under -race): whoever publishes
// first, every device reports its own full-simulation result.
func TestSharedMEEOpsConcurrent(t *testing.T) {
	const devices = 6
	want := make([]Result, devices)
	cfgs := make([]Config, devices)
	for i := range cfgs {
		cfgs[i] = ODRIPSConfig()
		cfgs[i].Seed = int64(i + 1)
		var err error
		want[i], _, _, err = runAttached(t, cfgs[i], nil, FFOff, oneWake(sim.Duration(300+i)*sim.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
	}
	plane := NewMemoPlane(nil, 0)
	got := make([]Result, devices)
	errs := make([]error, devices)
	var wg sync.WaitGroup
	for i := range cfgs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := New(cfgs[i])
			if err == nil {
				plane.Attach(p)
				got[i], err = p.RunCycles(oneWake(sim.Duration(300+i) * sim.Millisecond))
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i := range cfgs {
		if errs[i] != nil {
			t.Fatalf("device %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("device %d diverged from its full simulation", i)
		}
	}
	b := plane.acquire(MemoClassKey(cfgs[0]))
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, kind := range []ffOpKind{ffFreshSave, ffRestore} {
		if !b.ops[kind].ok {
			t.Errorf("no %v record published by the fan-out", kind)
		}
	}
}

// flipL0Block0 corrupts a byte of level-0 metadata block 0, which sits
// right after the protected data blocks, through the public Mem() door.
func flipL0Block0(t *testing.T, p *Platform) {
	t.Helper()
	mem := p.Mem()
	addr := p.CtxRegion().Base + uint64(len(p.restoreBuf))
	blk, err := mem.Read(addr, 64)
	if err != nil {
		t.Fatal(err)
	}
	blk[5] ^= 0x40
	if err := mem.Write(addr, blk); err != nil {
		t.Fatal(err)
	}
}

// TestMemTamperDefeatsReplay: a tamper through Mem() — between two runs
// over a platform whose ops already replay, or before the first run of a
// platform whose class already shares its records — must be detected
// with the same error at every fast-forward mode.
func TestMemTamperDefeatsReplay(t *testing.T) {
	cfg := ODRIPSConfig()
	cases := map[string]func(t *testing.T, mode FFMode) (error, FFStats){
		"between-runs": func(t *testing.T, mode FFMode) (error, FFStats) {
			p, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.SetFastForward(mode); err != nil {
				t.Fatal(err)
			}
			if _, err := p.RunCycles(workload.Fixed(3, 0, 30*sim.Second)); err != nil {
				t.Fatal(err)
			}
			before := p.FFStats()
			if mode == FFOn && before.MEEOpsReplayed == 0 {
				t.Fatalf("the untampered run replayed no MEE op: %+v", before)
			}
			flipL0Block0(t, p)
			_, err = p.RunCycles(workload.Fixed(2, 0, 30*sim.Second))
			st := p.FFStats()
			st.MEEOpsReplayed -= before.MEEOpsReplayed
			st.CyclesReplayed -= before.CyclesReplayed
			return err, st
		},
		"before-first-run-shared": func(t *testing.T, mode FFMode) (error, FFStats) {
			plane := NewMemoPlane(nil, 0)
			seeder := cfg
			seeder.Seed = 7
			if _, _, _, err := runAttached(t, seeder, plane.Attach, FFOn, workload.Fixed(3, 0, 30*sim.Second)); err != nil {
				t.Fatal(err)
			}
			p, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			plane.Attach(p)
			if err := p.SetFastForward(mode); err != nil {
				t.Fatal(err)
			}
			flipL0Block0(t, p)
			_, err = p.RunCycles(workload.Fixed(2, 0, 30*sim.Second))
			return err, p.FFStats()
		},
	}
	for name, run := range cases {
		t.Run(name, func(t *testing.T) {
			errOff, _ := run(t, FFOff)
			if errOff == nil || !strings.Contains(errOff.Error(), "integrity violation") {
				t.Fatalf("off: tamper not detected: %v", errOff)
			}
			t.Logf("detected: %v", errOff)
			for _, mode := range []FFMode{FFOn, FFVerify} {
				err, st := run(t, mode)
				if fmt.Sprint(err) != errOff.Error() {
					t.Errorf("%v: error %v, want the off-mode detection %q", mode, err, errOff)
				}
				if st.MEEOpsReplayed != 0 || st.CyclesReplayed != 0 {
					t.Errorf("%v: replayed after Mem() handed out the DRAM: %+v", mode, st)
				}
			}
		})
	}
}
