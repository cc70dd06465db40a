package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"odrips/internal/experiments"
	"odrips/internal/platform"
	"odrips/internal/workload"
)

// suiteExperiment is one experiment of `odrips-bench -exp all -sweep
// fast`, in that command's order, rendering what that command prints.
type suiteExperiment struct {
	name string
	run  func(w io.Writer, a *anchors) error
}

// anchors collects the simulated paper anchors the suite produces.
type anchors struct {
	dripsMW, odripsRedPct, odripsBEms, saveUs, restoreUs, worstAccPct, pcmRedPct float64
}

// anchorErrPct is the largest relative error, in percent, of the
// simulated anchors against the paper's values: 60 mW DRIPS, -22 %
// ODRIPS, ~6.5 ms break-even, 18/13 us context save/restore, ~95 %
// model accuracy, -37 % PCM.
func (a *anchors) anchorErrPct() float64 {
	pairs := [][2]float64{
		{a.dripsMW, 60}, {a.odripsRedPct, 22}, {a.odripsBEms, 6.5},
		{a.saveUs, 18}, {a.restoreUs, 13}, {a.worstAccPct, 95}, {a.pcmRedPct, 37},
	}
	var worst float64
	for _, p := range pairs {
		worst = math.Max(worst, 100*math.Abs(p[0]-p[1])/p[1])
	}
	return worst
}

func suiteExperiments() []suiteExperiment {
	sweep := experiments.DefaultSweep()
	one := func(name string, f func() (interface{ Render(io.Writer) }, error)) suiteExperiment {
		return suiteExperiment{name, func(w io.Writer, _ *anchors) error {
			t, err := f()
			if err != nil {
				return err
			}
			t.Render(w)
			return nil
		}}
	}
	return []suiteExperiment{
		{"Table1", func(w io.Writer, _ *anchors) error { experiments.Table1().Render(w); return nil }},
		{"Fig1b", func(w io.Writer, a *anchors) error {
			r, err := experiments.Fig1b()
			if err != nil {
				return err
			}
			a.dripsMW = r.TotalMW
			r.Table().Render(w)
			return nil
		}},
		one("Fig2", func() (interface{ Render(io.Writer) }, error) {
			r, err := experiments.Fig2()
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}),
		one("Fig3b", func() (interface{ Render(io.Writer) }, error) {
			r, err := experiments.Fig3b()
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}),
		one("Calibration", func() (interface{ Render(io.Writer) }, error) {
			r, err := experiments.Calibration()
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}),
		{"Fig6a", func(w io.Writer, a *anchors) error {
			r, err := experiments.Fig6a(sweep)
			if err != nil {
				return err
			}
			for _, row := range r.Rows {
				if row.Name == platform.ODRIPSConfig().Name() {
					a.odripsRedPct = row.ReductionPct
					a.odripsBEms = row.BreakEven.Milliseconds()
				}
			}
			r.Table().Render(w)
			r.Chart().Render(w)
			return nil
		}},
		one("Fig6b", func() (interface{ Render(io.Writer) }, error) {
			r, err := experiments.Fig6b()
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}),
		one("Fig6c", func() (interface{ Render(io.Writer) }, error) {
			r, err := experiments.Fig6c()
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}),
		{"Fig6d", func(w io.Writer, a *anchors) error {
			r, err := experiments.Fig6d(sweep)
			if err != nil {
				return err
			}
			a.pcmRedPct = r.Rows[len(r.Rows)-1].ReductionPct // ODRIPS-PCM is the last bar
			r.Table().Render(w)
			return nil
		}},
		{"CtxLatency", func(w io.Writer, a *anchors) error {
			r, err := experiments.CtxLatency()
			if err != nil {
				return err
			}
			for _, row := range r.Rows {
				if row.Medium == "SGX DRAM (ODRIPS)" {
					a.saveUs, a.restoreUs = row.Save.Microseconds(), row.Restore.Microseconds()
				}
			}
			r.Table().Render(w)
			return nil
		}},
		{"ModelValidation", func(w io.Writer, a *anchors) error {
			r, err := experiments.ModelValidation()
			if err != nil {
				return err
			}
			a.worstAccPct = r.WorstAccPct
			r.Table().Render(w)
			return nil
		}},
		{"Ablations", func(w io.Writer, _ *anchors) error {
			mc, err := experiments.AblationMEECache()
			if err != nil {
				return err
			}
			mc.Table().Render(w)
			ta, err := experiments.AblationTimerAlternatives()
			if err != nil {
				return err
			}
			ta.Table().Render(w)
			gg, err := experiments.AblationIOGate()
			if err != nil {
				return err
			}
			gg.Table().Render(w)
			rs, err := experiments.AblationReinitSensitivity()
			if err != nil {
				return err
			}
			rs.Table().Render(w)
			return nil
		}},
		one("WakeCoalescing", func() (interface{ Render(io.Writer) }, error) {
			r, err := experiments.WakeCoalescing()
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}),
		one("ProcessScaling", func() (interface{ Render(io.Writer) }, error) {
			r, err := experiments.ProcessScaling()
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}),
		one("Standby", func() (interface{ Render(io.Writer) }, error) {
			r, err := experiments.Standby()
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}),
		one("WakeLatency", func() (interface{ Render(io.Writer) }, error) {
			r, err := experiments.WakeLatency()
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}),
		one("TDPSensitivity", func() (interface{ Render(io.Writer) }, error) {
			r, err := experiments.TDPSensitivity()
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}),
		one("CalibrationAging", func() (interface{ Render(io.Writer) }, error) {
			r, err := experiments.CalibrationAging()
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}),
		{"TransitionAnatomy", func(w io.Writer, _ *anchors) error {
			for _, tc := range []struct {
				name string
				tech platform.Technique
			}{{"Baseline", 0}, {"ODRIPS", platform.ODRIPS}} {
				r, err := experiments.TransitionAnatomy(tc.tech)
				if err != nil {
					return err
				}
				r.Table(tc.name).Render(w)
			}
			return nil
		}},
	}
}

// standbyPresets are the five fleet presets, each run for six hours of
// connected standby.
func standbyPresets() []struct {
	name string
	cfg  platform.Config
} {
	base := platform.DefaultConfig()
	return []struct {
		name string
		cfg  platform.Config
	}{
		{"odrips", platform.ODRIPSConfig()},
		{"baseline", base},
		{"wake-up-off", base.WithTechniques(platform.WakeUpOff)},
		{"aon-io-gate", base.WithTechniques(platform.WakeUpOff | platform.AONIOGate)},
		{"ctx-sgx-dram", base.WithTechniques(platform.CtxSGXDRAM)},
	}
}

// standbyCycles are six hours (720 cycles of ~30 s) of connected standby,
// the cycle list drawn from the run seed and the preset index.
func standbyCycles(seed int64, preset int) []workload.Cycle {
	return workload.ConnectedStandby(720, rand.New(rand.NewSource(seed*7919+int64(preset))).Int63())
}

// standbyRun is one six-hour run: platform.New plus RunCycles, with the
// platform's replay and scheduler counters.
type standbyRun struct {
	digest            string
	newS, runS, simH  float64
	cycles, replayed  uint64
	meeOps, materials uint64
	events            uint64
}

func runStandby(t *tracer, parent int, cfg platform.Config, cycles []workload.Cycle) (standbyRun, error) {
	var out standbyRun
	t0 := time.Now()
	id := t.begin("platform.New", parent, "")
	p, err := platform.New(cfg)
	t.end(id)
	t1 := time.Now()
	if err != nil {
		return out, err
	}
	id = t.begin("platform.RunCycles", parent, "")
	res, err := p.RunCycles(cycles)
	t.end(id)
	t2 := time.Now()
	if err != nil {
		return out, err
	}
	b, err := json.Marshal(res)
	if err != nil {
		return out, err
	}
	ff := p.FFStats()
	out = standbyRun{
		digest: digest(b),
		newS:   t1.Sub(t0).Seconds(), runS: t2.Sub(t1).Seconds(),
		simH:   res.Duration.Seconds() / 3600,
		cycles: uint64(res.Cycles), replayed: ff.CyclesReplayed,
		meeOps: ff.MEEOpsReplayed, materials: ff.Materializations,
		events: p.Scheduler().Fired(),
	}
	return out, nil
}

// suiteOpsPerPreset is how many timed six-hour runs per preset each warm
// pass's op stream makes: 5 presets x 20 = 100 ops.
const suiteOpsPerPreset = 20

// suitePass is the child side of paper-suite: the whole suite plus one
// six-hour run per preset, timed as the pass; then (cold) compaction or
// (warm) the op stream of repeated six-hour runs.
func suitePass(c *child) {
	t := c.t
	root := t.begin("bench.pass", 0, "")
	start := time.Now()
	var text bytes.Buffer
	var a anchors
	for _, ex := range suiteExperiments() {
		id := t.begin("experiments."+ex.name, root, "")
		err := ex.run(&text, &a)
		t.end(id)
		c.ledger.op(errorf(err, "experiment %s", ex.name))
	}
	c.out.Digests["suite"] = digest(text.Bytes())
	c.out.AnchorErrPct = a.anchorErrPct()
	pc := experiments.PointCacheStats()
	c.counter("experiments.point_hits", float64(pc.Sweep.Hits+pc.Trans.Hits))
	c.counter("experiments.point_lookups", float64(pc.Sweep.Hits+pc.Sweep.Misses+pc.Trans.Hits+pc.Trans.Misses))

	var simH, hostS float64
	for i, pr := range standbyPresets() {
		r, err := runStandby(t, root, pr.cfg, standbyCycles(c.seed, i))
		c.ledger.op(errorf(err, "standby %s", pr.name))
		if err != nil {
			continue
		}
		c.out.Digests["standby/"+pr.name] = r.digest
		simH += r.simH
		hostS += r.newS + r.runS
		c.counter("platform.new_s", r.newS)
		c.counter("platform.run_s", r.runS)
		c.counter("platform.runs", 1)
		c.counter("platform.cycles", float64(r.cycles))
		c.counter("platform.cycles_replayed", float64(r.replayed))
		c.counter("platform.mee_ops_replayed", float64(r.meeOps))
		c.counter("platform.materializations", float64(r.materials))
		c.counter("sim.events", float64(r.events))
		c.counter("sim.sim_h", r.simH)
	}
	c.out.PassS = time.Since(start).Seconds()
	t.end(root)
	c.out.StandbySimH, c.out.StandbyHostS = simH, hostS
	c.storeCounters()

	if !c.warm {
		c.compact()
		return
	}
	// The op stream: each preset's run repeated against the warm store;
	// every repeat must reproduce the pass's result byte for byte.
	presets := standbyPresets()
	c.opStream(suiteOpsPerPreset*len(presets), func(i, parent int) error {
		k := i % len(presets)
		r, err := runStandby(t, parent, presets[k].cfg, standbyCycles(c.seed, k))
		if err == nil && r.digest != c.out.Digests["standby/"+presets[k].name] {
			err = fmt.Errorf("standby %s: result differs from the pass's run", presets[k].name)
		}
		return err
	})
}

// runSuite is the parent side of paper-suite: repeated cold/warm process
// pairs over a fresh store each, until the time budget is spent.
func runSuite(e *env) (*result, error) {
	r := newResult()
	pairs, err := runPairs(e, "suite", r)
	if err != nil {
		return nil, err
	}
	want := e.cfg.Digests[fmt.Sprint(e.seed)]
	var simH, hostS, ops []float64
	var opsWall float64
	for pi, p := range pairs {
		simH = append(simH, p.cold.out.StandbySimH)
		hostS = append(hostS, p.cold.out.StandbyHostS)
		ops = append(ops, p.warm.out.OpsMS...)
		opsWall += p.warm.out.OpsWallS
		compareDigests(&r.ledger, fmt.Sprintf("pair %d cold/warm", pi), p.cold.out.Digests, p.warm.out.Digests)
		// The rendered suite does not depend on the seed; its digest is
		// checked on every seed, the standby results on the recorded one.
		r.ledger.check("suite text vs recorded", p.cold.out.Digests["suite"], e.cfg.SuiteDigest)
		for k, v := range want {
			if got, ok := p.cold.out.Digests[k]; ok {
				r.ledger.check(k+" vs recorded", got, v)
			}
		}
		for _, c := range []*childRun{&p.cold, &p.warm} {
			if c.out.AnchorErrPct != e.cfg.AnchorErrPct {
				r.ledger.op(fmt.Errorf("anchor_err_pct %v, recorded %v", c.out.AnchorErrPct, e.cfg.AnchorErrPct))
			} else {
				r.ledger.op(nil)
			}
		}
	}
	noteDigests(r, pairs[0].cold.out.Digests)
	if err := setCommon(r, pairs, ops, opsWall); err != nil {
		r.ledger.op(err)
	}
	r.overall["suite_cold_s"] = r.e2e["cold_s"].Value
	r.overall["suite_warm_s"] = r.e2e["warm_s"].Value
	r.overall["standby_sim_h_per_s"] = ratio(sum(simH), sum(hostS))
	r.overall["anchor_err_pct"] = pairs[0].cold.out.AnchorErrPct
	if e.trace {
		suiteLayers(e, r, pairs)
	}
	return r, nil
}

func sum(v []float64) float64 {
	var t float64
	for _, x := range v {
		t += x
	}
	return t
}

func errorf(err error, format string, args ...any) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s: %w", fmt.Sprintf(format, args...), err)
}

// noteDigests prints the digests in key order, for recording them.
func noteDigests(r *result, d map[string]string) {
	keys := make([]string, 0, len(d))
	for k := range d {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		r.notef("digest %s %s", k, d[k])
	}
}

// compareDigests checks that the warm pass reproduced every output of
// the cold pass byte for byte.
func compareDigests(l *ledger, what string, cold, warm map[string]string) {
	for k, v := range cold {
		l.check(what+" "+k, warm[k], v)
	}
}

// suiteLayers derives the per-layer metrics of the traced pair.
func suiteLayers(e *env, r *result, pairs []pair) {
	p := pairs[len(pairs)-1]
	spans := p.spans()
	coal := sumDur(spans, "experiments.WakeCoalescing")
	wl := sumDur(spans, "experiments.WakeLatency")
	sw := sumDur(spans, "experiments.Fig6a") + sumDur(spans, "experiments.Fig6d")
	var all float64
	for _, s := range spans {
		if s.layer() == "experiments" {
			all += s.dur()
		}
	}
	r.layer("experiments.coalescing_s", "s", coal)
	r.layer("experiments.wakelatency_s", "s", wl)
	r.layer("experiments.sweep_s", "s", sw)
	r.layer("experiments.other_s", "s", all-coal-wl-sw)
	cc := p.cold.out.Counters
	r.layer("experiments.point_hit_ratio", "ratio", ratio(cc["experiments.point_hits"], cc["experiments.point_lookups"]))
	platformLayers(r, cc)
	storeLayers(r, p)
	zeroLayers(r, e.cfg, "fleet.", "jobqueue.", "server.", "report.", "gen.", "platform.plane_")
	reportSelf(r, spans)
	traceOverhead(r, pairs)
	probes(r)
}

// platformLayers reports the six-hour runs' platform and scheduler
// counters from one pass's counters.
func platformLayers(r *result, c map[string]float64) {
	r.layer("platform.new_ms", "ms", 1e3*ratio(c["platform.new_s"], c["platform.runs"]))
	r.layer("platform.run_s", "s", c["platform.run_s"])
	r.layer("platform.cycles_replayed_ratio", "ratio", ratio(c["platform.cycles_replayed"], c["platform.cycles"]))
	r.layer("platform.mee_ops_replayed", "count", c["platform.mee_ops_replayed"])
	r.layer("platform.materializations", "count", c["platform.materializations"])
	r.layer("sim.events", "count", c["sim.events"])
	r.layer("sim.events_per_sim_h", "1/h", ratio(c["sim.events"], c["sim.sim_h"]))
}

// storeLayers reports memostore open/compact cost (set-up), writes and
// footprint (cold pass), and reads and hits (warm pass).
func storeLayers(r *result, p pair) {
	cc, wc := p.cold.out.Counters, p.warm.out.Counters
	r.layer("memostore.open_ms", "ms", (p.cold.out.OpenMS+p.warm.out.OpenMS)/2)
	r.layer("memostore.compact_ms", "ms", p.cold.out.CompactMS)
	r.layer("memostore.writes", "count", cc["memostore.writes"])
	r.layer("memostore.disk_mb", "MB", cc["memostore.disk_bytes"]/1e6)
	reads := wc["memostore.hits"] + wc["memostore.misses"]
	r.layer("memostore.reads", "count", reads)
	r.layer("memostore.misses", "count", wc["memostore.misses"])
	r.layer("memostore.warm_hit_ratio", "ratio", ratio(wc["memostore.hits"], reads))
}

// zeroLayers reports 0 for every per-layer metric with one of the
// prefixes that the workload does not set: that layer does no work here.
func zeroLayers(r *result, cfg *config, prefixes ...string) {
	for _, m := range cfg.PerLayer {
		if _, ok := r.layers[m.Name]; ok {
			continue
		}
		for _, p := range prefixes {
			if strings.HasPrefix(m.Name, p) {
				r.layer(m.Name, m.Unit, 0)
			}
		}
	}
}
