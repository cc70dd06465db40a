package prop

import (
	"flag"
	"math/rand"
	"reflect"
	"testing"

	"odrips/internal/faults"
	"odrips/internal/platform"
	"odrips/internal/sim"
	"odrips/internal/workload"
)

// propSeed reseeds the whole harness; the default keeps CI deterministic,
// and a failure report always names the seed that produced it.
var propSeed = flag.Int64("prop.seed", 20260806, "master seed for the property harness")

const propCases = 200

// TestFaultPlaneProperties is the randomized invariant sweep: propCases
// generated (config, workload, plan) triples, each checked against the
// package-doc invariants. Failures shrink to a minimal fault plan first.
func TestFaultPlaneProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(*propSeed))
	t.Logf("master seed %d (-prop.seed to override)", *propSeed)
	for i := 0; i < propCases; i++ {
		c := Generate(rng)
		if err := Check(c); err != nil {
			min := Shrink(c, Check)
			t.Fatalf("case %d failed: %v\n  case: %s\n  minimal reproducer: %s",
				i, err, c, min)
		}
	}
}

// TestEmptyPlanInertAcrossConfigs is invariant 1 over every technique
// combination the generator can draw, including the eMRAM variant.
func TestEmptyPlanInertAcrossConfigs(t *testing.T) {
	rng := rand.New(rand.NewSource(*propSeed + 1))
	for i := 0; i < 24; i++ {
		c := Generate(rng)
		c.Plan = faults.Plan{}
		if err := CheckInert(c); err != nil {
			t.Fatalf("case %d (%s): %v", i, c, err)
		}
	}
}

// TestFaultedRunsRepeatDeterministically: same case, two executions,
// identical outcomes — the schedule-determinism half of the tentpole.
func TestFaultedRunsRepeatDeterministically(t *testing.T) {
	rng := rand.New(rand.NewSource(*propSeed + 2))
	for i := 0; i < 20; i++ {
		c := Generate(rng)
		a, err := Run(c, c.Plan)
		if err != nil {
			t.Fatalf("case %d (%s): %v", i, c, err)
		}
		b, err := Run(c, c.Plan)
		if err != nil {
			t.Fatalf("case %d (%s): %v", i, c, err)
		}
		if err := equalOutcome(a, b); err != nil {
			t.Fatalf("case %d (%s) diverged: %v", i, c, err)
		}
	}
}

// TestShrinkFindsMinimalPlan seeds a known-failing predicate (a planted
// "bug" that trips whenever a degradation happens) and checks the shrinker
// strips every unrelated injection from a noisy plan.
func TestShrinkFindsMinimalPlan(t *testing.T) {
	c := Case{
		Config: func() platform.Config {
			cfg := platform.ODRIPSConfig()
			cfg.ForceDeepest = true
			return cfg
		}(),
		Cycles: workload.Fixed(3, 0, 40*sim.Millisecond),
		Plan: mustParse(t,
			"fetglitch@0;meefail@1:1;wakex@2.1;drift@0:3000"),
	}
	check := func(tc Case) error {
		out, err := Run(tc, tc.Plan)
		if err != nil {
			return err
		}
		if out.Result.Faults.Degradations > 0 {
			return errPlanted
		}
		return nil
	}
	if check(c) == nil {
		t.Fatal("planted predicate does not fail on the full plan")
	}
	min := Shrink(c, check)
	if got := min.Plan.String(); got != "meefail@1:1" {
		t.Fatalf("shrunk plan = %q, want %q", got, "meefail@1:1")
	}
}

// TestFastForwardMetamorphic is the fast-forward metamorphic invariant:
// for generated faulted cases, the run is byte-identical with the cycle
// memo on, off, and in verify mode (verify additionally re-simulates and
// diffs every memoized cycle, so a pass is a machine-checked soundness
// certificate for the case). Every other case is device-driven: a NIC's
// peripheral events stay queued, so only MEE op replay can engage, and
// only once the fault plane is clean — a run that never reached one of
// its injections must not have replayed a single op. Every third case
// starts on a memo plane class that a fault-free run of another seed has
// already filled, so fault plans and NIC traffic meet adopted MEE op
// records from the very first save.
func TestFastForwardMetamorphic(t *testing.T) {
	rng := rand.New(rand.NewSource(*propSeed + 3))
	nicRng := rand.New(rand.NewSource(*propSeed + 4))
	var nicCases, nicReplayed, sharedCases, sharedReplayed int
	for i := 0; i < 30; i++ {
		c := Generate(rng)
		if i%2 == 1 {
			c = WithNIC(c, nicRng)
			nicCases++
		}
		if i%3 == 2 {
			c.Plane = platform.NewMemoPlane(nil, 0)
			seeder := Case{Config: c.Config, Cycles: c.Cycles, Plane: c.Plane}
			seeder.Config.Seed++
			if _, _, err := RunMode(seeder, faults.Plan{}, platform.FFOn); err != nil {
				t.Fatalf("case %d (%s) seeding run: %v", i, c, err)
			}
			sharedCases++
		}
		off, _, err := RunMode(c, c.Plan, platform.FFOff)
		if err != nil {
			t.Fatalf("case %d (%s) off: %v", i, c, err)
		}
		for _, mode := range []platform.FFMode{platform.FFOn, platform.FFVerify} {
			got, stats, err := RunMode(c, c.Plan, mode)
			if err != nil {
				t.Fatalf("case %d (%s) %v: %v", i, c, mode, err)
			}
			if !reflect.DeepEqual(off, got) {
				t.Fatalf("case %d (%s) diverged at -fastforward=%v:\noff: %+v\ngot: %+v",
					i, c, mode, off.Result, got.Result)
			}
			if mode != platform.FFOn {
				continue
			}
			if st := got.Result.Faults; st.Fired+st.Skipped < st.Planned && stats.MEEOpsReplayed > 0 {
				t.Fatalf("case %d (%s): %d MEE ops replayed with an injection never reached (%+v)",
					i, c, stats.MEEOpsReplayed, st)
			}
			if c.NIC != nil {
				if stats.CyclesReplayed != 0 {
					t.Fatalf("case %d (%s): replayed %d whole cycles with device traffic queued",
						i, c, stats.CyclesReplayed)
				}
				if stats.MEEOpsReplayed > 0 {
					nicReplayed++
				}
			}
			if c.Plane != nil && stats.MEEOpsReplayed > 0 {
				sharedReplayed++
			}
		}
	}
	t.Logf("%d device-driven cases, %d replayed MEE ops; %d shared-plane cases, %d replayed MEE ops",
		nicCases, nicReplayed, sharedCases, sharedReplayed)
	if nicReplayed == 0 {
		t.Error("no device-driven case exercised MEE op replay")
	}
	if sharedReplayed == 0 {
		t.Error("no shared-plane case exercised MEE op replay")
	}
}

var errPlanted = &plantedError{}

type plantedError struct{}

func (*plantedError) Error() string { return "planted failure" }

func mustParse(t *testing.T, s string) faults.Plan {
	t.Helper()
	p, err := faults.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
