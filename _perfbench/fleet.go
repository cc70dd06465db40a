package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"odrips/internal/fleet"
	"odrips/internal/platform"
)

// namedSpec is one fleet spec in the odrips-fleet -spec JSON form.
type namedSpec struct {
	name string
	json string
}

// distinct draws n distinct values lo, lo+step, ... below hi.
func distinct(rng *rand.Rand, n int, lo, hi, step int) []int {
	vals := rng.Perm((hi - lo) / step)[:n]
	for i := range vals {
		vals[i] = lo + vals[i]*step
	}
	return vals
}

func jsonList[T any](v []T) string {
	b, _ := json.Marshal(v) // a slice of numbers or strings always encodes
	return string(b)
}

// fleetSpecs draws the fleet workload's two jobs from the seed. Sizes
// and class counts are fixed, so every seed costs the same work:
//
//   - homogeneous: 10,000 devices whose spread (seeds, batteries) is
//     output-inert, the Fleet10k shape: one memo class, one run class;
//   - heterogeneous: 20,000 devices crossing 3 drifts x 4 jitter steps
//     x 2 batteries, plus 3 sparse fault plans: several memo classes and
//     16 run classes, so phase-1 and phase-2 simulation is real.
func fleetSpecs(seed int64) []namedSpec {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	bat := distinct(rng, 3, 26000, 38000, 500)
	hom := fmt.Sprintf(`{"name":"homogeneous","devices":10000,"shards":16,`+
		`"spread":{"seed_base":%d,"seed_stride":%d,"battery_mwh":%s}}`,
		1+rng.Intn(1_000_000), 1+rng.Intn(7), jsonList(bat))

	drift := append([]int{0}, distinct(rng, 2, 10, 100, 5)...)
	var jitter []string
	for _, ms := range append([]int{0}, distinct(rng, 3, 50, 950, 50)...) {
		jitter = append(jitter, fmt.Sprintf("%dms", ms))
	}
	bat2 := distinct(rng, 2, 26000, 38000, 500)
	var faults []string
	for i, dev := range distinct(rng, 3, 0, 19_000, 1000) {
		dev += 1 + rng.Intn(999)
		var plan string
		switch i {
		case 0:
			plan = fmt.Sprintf("wake@%d.%d", 1+rng.Intn(5), 1+rng.Intn(4))
		case 1:
			plan = fmt.Sprintf("drift@%d:%d", 1+rng.Intn(5), 50_000*(1+rng.Intn(8)))
		default:
			plan = fmt.Sprintf("wakex@%d.%d", 1+rng.Intn(5), 1+rng.Intn(3))
		}
		faults = append(faults, fmt.Sprintf(`{"device":%d,"plan":%q}`, dev, plan))
	}
	het := fmt.Sprintf(`{"name":"heterogeneous","devices":20000,"shards":8,`+
		`"spread":{"seed_base":%d,"drift_ppb":%s,"jitter_steps":%s,"battery_mwh":%s,"faults":[%s]}}`,
		1+rng.Intn(1_000_000), jsonList(drift), jsonList(jitter), jsonList(bat2), strings.Join(faults, ","))
	return []namedSpec{{"homogeneous", hom}, {"heterogeneous", het}}
}

// jobClasses is how many small job classes classSpecs draws. The
// recorded class digests and the serve ladder were fixed with this count.
const jobClasses = 4

// classSpecs draws the small six-hour jobs that the serve workload
// submits and the fleet workload's op stream runs in process: jobClasses
// classes of 24 devices, each with its own crystal drift (one memo and
// one run class per job) and an output-inert battery spread.
func classSpecs(seed int64) []namedSpec {
	rng := rand.New(rand.NewSource(seed ^ 0xc1a55))
	drift := distinct(rng, jobClasses, 10, 400, 10)
	out := make([]namedSpec, jobClasses)
	for k := range out {
		out[k] = namedSpec{
			name: fmt.Sprintf("class-%d", k),
			json: fmt.Sprintf(`{"name":"class-%d","devices":24,"shards":%d,`+
				`"spread":{"seed_base":%d,"drift_ppb":[%d],"battery_mwh":%s}}`,
				k, 1+k%3, 1+rng.Intn(1_000_000), drift[k], jsonList(distinct(rng, 2, 26000, 38000, 500))),
		}
	}
	return out
}

// aggregatesDigest hashes a report's aggregates exactly as the server
// streams them: the JSON encoding of Report.Aggregates.
func aggregatesDigest(rep *fleet.Report) (string, error) {
	b, err := json.Marshal(rep.Aggregates)
	if err != nil {
		return "", err
	}
	return digest(b), nil
}

// phases are the job boundaries sampled from fleet.Progress: expand ends
// when Stats().Started turns true, phase 1 when every warm run is done,
// phase 2 when every run class is done.
type phases struct{ expanded, warmed, ran time.Time }

// sampleProgress polls prog until stop closes and returns the boundaries
// it saw; boundaries never seen are left zero.
func sampleProgress(prog *fleet.Progress, stop <-chan struct{}) phases {
	var ph phases
	for {
		st := prog.Stats()
		now := time.Now()
		if st.Started && ph.expanded.IsZero() {
			ph.expanded = now
		}
		if st.Started && st.WarmRunsDone == st.WarmRuns && ph.warmed.IsZero() {
			ph.warmed = now
		}
		if st.Started && st.RunsDone == st.Runs && ph.ran.IsZero() {
			ph.ran = now
		}
		select {
		case <-stop:
			return ph
		case <-time.After(20 * time.Microsecond):
		}
	}
}

// runFleetJob parses and runs one job on a fresh plane over the child's
// store and records its digest, counters and (traced) phase spans.
func runFleetJob(c *child, parent int, s namedSpec) {
	t := c.t
	id := t.begin("fleet.ParseSpecJSON", parent, "")
	t0 := time.Now()
	spec, err := fleet.ParseSpecJSON([]byte(s.json))
	c.counter("fleet.parse_s", time.Since(t0).Seconds())
	t.end(id)
	if err != nil {
		c.ledger.op(errorf(err, "parse %s", s.name))
		return
	}
	plane := platform.NewMemoPlane(c.store, 0)
	prog := fleet.NewProgress()
	var ph phases
	var wg sync.WaitGroup
	stop := make(chan struct{})
	if t.on {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ph = sampleProgress(prog, stop)
		}()
	}
	start := time.Now()
	rep, err := fleet.RunWithProgress(context.Background(), spec, plane, prog)
	end := time.Now()
	close(stop)
	wg.Wait()
	if err != nil {
		c.ledger.op(errorf(err, "run %s", s.name))
		return
	}
	if t.on {
		// A boundary the sampler missed (the job outran it) is placed at
		// the previous one.
		if ph.expanded.IsZero() {
			ph.expanded = end
		}
		if ph.warmed.IsZero() || ph.warmed.Before(ph.expanded) {
			ph.warmed = ph.expanded
		}
		if ph.ran.IsZero() || ph.ran.Before(ph.warmed) {
			ph.ran = ph.warmed
		}
		job := t.add("fleet.RunWithProgress", parent, s.name, start, end)
		t.add("fleet.expand", job, s.name, start, ph.expanded)
		t.add("platform.warm_phase", job, s.name, ph.expanded, ph.warmed)
		t.add("platform.run_phase", job, s.name, ph.warmed, ph.ran)
		t.add("fleet.tail", job, s.name, ph.ran, end)
		c.counter("fleet.expand_s", ph.expanded.Sub(start).Seconds())
		c.counter("fleet.warm_phase_s", ph.warmed.Sub(ph.expanded).Seconds())
		c.counter("fleet.run_phase_s", ph.ran.Sub(ph.warmed).Seconds())
		c.counter("fleet.tail_s", end.Sub(ph.ran).Seconds())
	}
	id = t.begin("fleet.Report.JSON", parent, s.name)
	t0 = time.Now()
	_, jerr := rep.JSON()
	c.counter("fleet.json_s", time.Since(t0).Seconds())
	t.end(id)
	c.ledger.op(errorf(jerr, "report %s", s.name))

	d, err := aggregatesDigest(rep)
	c.ledger.op(errorf(err, "aggregates %s", s.name))
	c.out.Digests["fleet/"+s.name] = d
	m := rep.Memo
	c.counter("fleet.simulated_cycles", float64(m.SimulatedCycles))
	c.counter("fleet.replayed_cycles", float64(m.ReplayedCycles))
	c.counter("fleet.deduped_cycles", float64(m.DedupedCycles))
	c.counter("fleet.simulated_runs", float64(m.SimulatedRuns))
	ps := plane.Stats()
	c.counter("platform.plane_adopted", float64(ps.Adopted))
	c.counter("platform.plane_class_hits", float64(ps.Class.Hits))
	c.counter("platform.plane_class_lookups", float64(ps.Class.Hits+ps.Class.Misses))
	c.counter("platform.plane_warm_leads", float64(ps.WarmLeads))
}

// fleetOps is the length of each warm pass's op stream.
const fleetOps = 100

// fleetPass is the child side of the fleet workload: both jobs, timed as
// the pass; then (cold) compaction or (warm) the op stream of small
// class jobs on one shared plane, the serve workload's jobs without HTTP.
func fleetPass(c *child) {
	t := c.t
	root := t.begin("bench.pass", 0, "")
	start := time.Now()
	for _, s := range fleetSpecs(c.seed) {
		runFleetJob(c, root, s)
	}
	c.out.PassS = time.Since(start).Seconds()
	t.end(root)
	c.storeCounters()
	if !c.warm {
		c.compact()
		return
	}
	plane := platform.NewMemoPlane(c.store, 0)
	specs := classSpecs(c.seed)
	parsed := make([]fleet.Spec, len(specs))
	ref := make([]string, len(specs))
	for k, s := range specs {
		spec, err := fleet.ParseSpecJSON([]byte(s.json))
		if err == nil {
			var rep *fleet.Report
			if rep, err = fleet.RunWithProgress(context.Background(), spec, plane, nil); err == nil {
				ref[k], err = aggregatesDigest(rep)
			}
		}
		c.ledger.op(errorf(err, "warm-up %s", s.name))
		parsed[k] = spec
		c.out.Digests["class/"+s.name] = ref[k]
	}
	c.opStream(fleetOps, func(i, parent int) error {
		k := i % len(specs)
		id := t.begin("fleet.RunWithProgress", parent, specs[k].name)
		rep, err := fleet.RunWithProgress(context.Background(), parsed[k], plane, nil)
		t.end(id)
		if err == nil {
			var d string
			if d, err = aggregatesDigest(rep); err == nil && d != ref[k] {
				err = fmt.Errorf("%s: aggregates differ from the class's first run", specs[k].name)
			}
		}
		return err
	})
}

// runFleet is the parent side of the fleet workload.
func runFleet(e *env) (*result, error) {
	r := newResult()
	pairs, err := runPairs(e, "fleet", r)
	if err != nil {
		return nil, err
	}
	want := e.cfg.Digests[fmt.Sprint(e.seed)]
	var ops []float64
	var opsWall float64
	for pi, p := range pairs {
		ops = append(ops, p.warm.out.OpsMS...)
		opsWall += p.warm.out.OpsWallS
		compareDigests(&r.ledger, fmt.Sprintf("pair %d cold/warm", pi), p.cold.out.Digests, p.warm.out.Digests)
		for k, v := range want {
			if got, ok := p.warm.out.Digests[k]; ok {
				r.ledger.check(k+" vs recorded", got, v)
			}
		}
	}
	noteDigests(r, pairs[0].warm.out.Digests)
	if err := setCommon(r, pairs, ops, opsWall); err != nil {
		r.ledger.op(err)
	}
	r.overall["fleet_cold_s"] = r.e2e["cold_s"].Value
	r.overall["fleet_warm_s"] = r.e2e["warm_s"].Value
	if e.trace {
		fleetLayers(e, r, pairs)
	}
	return r, nil
}

// fleetLayers derives the per-layer metrics of the traced pair: fleet
// phases and counters from both passes, plane adoption from the warm
// pass, store writes from the cold one.
func fleetLayers(e *env, r *result, pairs []pair) {
	p := pairs[len(pairs)-1]
	cc, wc := p.cold.out.Counters, p.warm.out.Counters
	both := func(k string) float64 { return cc[k] + wc[k] }
	r.layer("fleet.parse_ms", "ms", 1e3*both("fleet.parse_s"))
	r.layer("fleet.expand_s", "s", both("fleet.expand_s"))
	r.layer("fleet.warm_phase_s", "s", both("fleet.warm_phase_s"))
	r.layer("fleet.run_phase_s", "s", both("fleet.run_phase_s"))
	r.layer("fleet.tail_s", "s", both("fleet.tail_s"))
	r.layer("fleet.json_ms", "ms", 1e3*both("fleet.json_s"))
	r.layer("fleet.simulated_cycles", "count", cc["fleet.simulated_cycles"])
	r.layer("fleet.replayed_cycles", "count", cc["fleet.replayed_cycles"])
	r.layer("fleet.deduped_cycles", "count", cc["fleet.deduped_cycles"])
	r.layer("fleet.simulated_runs", "count", cc["fleet.simulated_runs"])
	r.layer("platform.plane_adopted", "count", wc["platform.plane_adopted"])
	r.layer("platform.plane_class_hit_ratio", "ratio", ratio(wc["platform.plane_class_hits"], wc["platform.plane_class_lookups"]))
	r.layer("platform.plane_warm_leads", "count", cc["platform.plane_warm_leads"])
	storeLayers(r, p)
	zeroLayers(r, e.cfg, "experiments.", "platform.", "sim.events", "jobqueue.", "server.", "report.", "gen.")
	reportSelf(r, p.spans())
	traceOverhead(r, pairs)
	probes(r)
}
