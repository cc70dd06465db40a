package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptrace"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"odrips/internal/fleet"
)

// server is one odrips-server subprocess.
type server struct {
	cmd     *exec.Cmd
	url     string
	readyS  float64
	drained chan struct{}
}

// startServer launches odrips-server with the given job workers over a
// fresh rw store and times launch -> listening and answering /healthz.
func startServer(e *env, store string, workers int) (*server, error) {
	cmd := exec.Command(e.server, "-addr", "127.0.0.1:0", "-workers", strconv.Itoa(workers),
		"-memocache", "rw", "-memocachedir", store)
	cmd.Env = childEnv()
	t0 := time.Now()
	const prefix = "odrips-server: listening on "
	_, line, sc, err := launch(cmd, func(l string) bool { return strings.HasPrefix(l, prefix) })
	if err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, url: "http://" + strings.TrimPrefix(line, prefix), drained: make(chan struct{})}
	go func() {
		defer close(s.drained)
		for sc.Scan() {
		}
	}()
	for {
		resp, err := http.Get(s.url + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(t0) > 30*time.Second {
			s.stop()
			return nil, fmt.Errorf("odrips-server never answered /healthz: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	s.readyS = time.Since(t0).Seconds()
	return s, nil
}

// stop drains the server with SIGTERM (killing it after 20 s), waits for
// it to exit and returns its peak RSS in MB. Safe to call twice.
func (s *server) stop() (float64, error) {
	if s.cmd.ProcessState != nil {
		return maxRSSMB(s.cmd.ProcessState), nil
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // an already exited server is reported by Wait
	timer := time.AfterFunc(20*time.Second, func() { _ = s.cmd.Process.Kill() })
	<-s.drained
	err := s.cmd.Wait()
	timer.Stop()
	return maxRSSMB(s.cmd.ProcessState), err
}

// gen is the open-loop load generator: one process and a budget of nproc
// keep-alive connections, split in two pools. One connection (ctl)
// carries the short requests: submissions, sent in due order, and
// /v1/stats samples. The others (results) carry the result streams, one
// job at a time each, taken in submission order. The server runs
// streamConns jobs at once (-workers streamConns) and starts them in
// FIFO order, so every running job has its stream open and its done frame
// is read as it is written, while the jobs behind them wait in the
// server's own queue.
type gen struct {
	ctl, results *http.Client
	streamConns  int
	url          string
	specs        []namedSpec
	ref          []string // in-process aggregates digest per class
}

// newGen builds a generator whose result streams use streamConns
// connections; the control connection comes on top.
func newGen(specs []namedSpec, ref []string, streamConns int) *gen {
	pool := func(n int) *http.Client {
		return &http.Client{Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n}}
	}
	return &gen{ctl: pool(1), results: pool(streamConns), streamConns: streamConns, specs: specs, ref: ref}
}

// closeIdle drops the kept-alive connections of both pools.
func (g *gen) closeIdle() {
	g.ctl.CloseIdleConnections()
	g.results.CloseIdleConnections()
}

// jobTimes is one job's client-side time line.
type jobTimes struct {
	class                 int
	id                    string
	due, posted, accepted time.Time
	firstFinal, doneFrame time.Time
	streamBytes           int
	err                   error
}

func (j jobTimes) latencyMS() float64 { return float64(j.doneFrame.Sub(j.due).Nanoseconds()) / 1e6 }

// fail records a job's error with the job's class and due time.
func (g *gen) fail(jt *jobTimes, err error) {
	if err != nil {
		jt.err = fmt.Errorf("job of %s due %s: %w", g.specs[jt.class].name, jt.due.Format("15:04:05.000"), err)
	}
}

// submit posts the job on the control connection and records its ID.
func (g *gen) submit(ctx context.Context, jt *jobTimes) error {
	tr := &httptrace.ClientTrace{GotConn: func(httptrace.GotConnInfo) {
		if jt.posted.IsZero() {
			jt.posted = time.Now()
		}
	}}
	req, err := http.NewRequestWithContext(httptrace.WithClientTrace(ctx, tr), http.MethodPost,
		g.url+"/v1/jobs", strings.NewReader(g.specs[jt.class].json))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := g.ctl.Do(req)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	jt.accepted = time.Now()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("submit refused: status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var view struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &view); err != nil || view.ID == "" {
		return fmt.Errorf("202 without a job ID: %q", body)
	}
	jt.id = view.ID
	return nil
}

// readResults reads the job's result stream to the done frame, checking
// the aggregates digest.
func (g *gen) readResults(ctx context.Context, jt *jobTimes) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, g.url+"/v1/jobs/"+jt.id+"/results", nil)
	if err != nil {
		return err
	}
	resp, err := g.results.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("results: status %d", resp.StatusCode)
	}
	var aggDigest, last string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		jt.streamBytes += len(line) + 1
		var f struct {
			Frame string `json:"frame"`
			State string `json:"state"`
			Job   struct {
				State string `json:"state"`
			} `json:"job"`
			Payload json.RawMessage `json:"payload"`
		}
		if err := json.Unmarshal(line, &f); err != nil {
			return fmt.Errorf("unparsable frame %q: %v", line, err)
		}
		last = f.Frame
		switch f.Frame {
		case "progress":
			if f.Job.State == "done" && jt.firstFinal.IsZero() {
				jt.firstFinal = time.Now()
			}
		case "aggregates":
			aggDigest = digest(bytes.TrimSpace(f.Payload))
		case "error":
			return fmt.Errorf("error frame: %s", line)
		case "done":
			jt.doneFrame = time.Now()
			if f.State != "done" {
				return fmt.Errorf("job ended %q", f.State)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	switch {
	case last != "done":
		return fmt.Errorf("stream ended on frame %q: job dropped", last)
	case jt.firstFinal.IsZero():
		return fmt.Errorf("no final progress frame")
	case aggDigest != g.ref[jt.class]:
		return fmt.Errorf("aggregates digest %.16s, in-process run gives %.16s", aggDigest, g.ref[jt.class])
	}
	return nil
}

// arrival is one scheduled job: its offset from the rung start and class.
type arrival struct {
	at    time.Duration
	class int
}

// schedule draws n arrivals over d: Poisson arrivals conditioned on
// their count (sorted uniform times), each of a uniformly drawn class.
func schedule(rng *rand.Rand, n int, d time.Duration, classes int) []arrival {
	out := make([]arrival, n)
	for i := range out {
		out[i] = arrival{at: time.Duration(rng.Int63n(int64(d))), class: rng.Intn(classes)}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].at < out[j].at })
	return out
}

// openLoop submits every arrival at its due time, whatever the state of
// earlier jobs, and returns each job's time line. A submission that
// waits for the control connection is late, and its latency still
// counts from its due time.
func (g *gen) openLoop(ctx context.Context, sched []arrival, start time.Time) []jobTimes {
	out := make([]jobTimes, len(sched))
	accepted := make(chan int, len(sched))
	var wg sync.WaitGroup
	for c := 0; c < g.streamConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range accepted {
				g.fail(&out[i], g.readResults(ctx, &out[i]))
			}
		}()
	}
	for i, a := range sched {
		out[i] = jobTimes{class: a.class, due: start.Add(a.at)}
		if d := time.Until(out[i].due); d > 0 {
			time.Sleep(d)
		}
		if err := g.submit(ctx, &out[i]); err != nil {
			g.fail(&out[i], err)
			continue
		}
		accepted <- i
	}
	close(accepted)
	wg.Wait()
	return out
}

// burst submits perClass jobs of every class, all due at once, and returns the
// time from the first submission to the last done frame.
func (g *gen) burst(ctx context.Context, perClass int, l *ledger) float64 {
	var sched []arrival
	for i := 0; i < perClass; i++ {
		for k := range g.specs {
			sched = append(sched, arrival{class: k})
		}
	}
	start := time.Now()
	jobs := g.openLoop(ctx, sched, start)
	var last time.Time
	for _, j := range jobs {
		l.op(j.err)
		if j.doneFrame.After(last) {
			last = j.doneFrame
		}
	}
	return last.Sub(start).Seconds()
}

// rung is one ladder step's outcome.
type rung struct {
	rate        float64
	jobs        []jobTimes
	lat         []float64
	failed      int
	outstanding int     // jobs not done when the rung's schedule ended
	busyS       float64 // start of the schedule to the last done frame
	tailMS      float64
	tailName    string
	throughput  float64
	pass        bool
}

// tail is the p95 when it has ten samples beyond it, else the maximum:
// a short rung is judged by its worst job.
func tail(lat []float64) (float64, string) {
	if v, ok := percentile(lat, 0.95); ok {
		return v, "p95"
	}
	var m float64
	for _, v := range lat {
		m = max(m, v)
	}
	return m, "max"
}

// runRung drives one rate for d and judges it against the latency limit.
func (g *gen) runRung(ctx context.Context, rng *rand.Rand, rate float64, d time.Duration, limitMS float64, l *ledger) rung {
	n := int(rate*d.Seconds() + 0.5)
	start := time.Now()
	jobs := g.openLoop(ctx, schedule(rng, n, d, len(g.specs)), start)
	end := start.Add(d)
	r := rung{rate: rate, jobs: jobs}
	var last time.Time
	for _, j := range jobs {
		l.op(j.err)
		if j.err != nil {
			r.failed++
			continue
		}
		r.lat = append(r.lat, j.latencyMS())
		if j.doneFrame.After(end) {
			r.outstanding++
		}
		if j.doneFrame.After(last) {
			last = j.doneFrame
		}
	}
	r.busyS = max(0, last.Sub(start).Seconds())
	r.judge(limitMS)
	return r
}

// joinRungs merges the segments of one rate, driven one after another,
// into one rung: every job, the largest backlog a segment left open, and
// completions over the segments' summed busy time.
func joinRungs(parts []rung, limitMS float64) rung {
	r := rung{rate: parts[0].rate}
	for _, p := range parts {
		r.jobs = append(r.jobs, p.jobs...)
		r.lat = append(r.lat, p.lat...)
		r.failed += p.failed
		r.outstanding = max(r.outstanding, p.outstanding)
		r.busyS += p.busyS
	}
	r.judge(limitMS)
	return r
}

// judge sets the rung's tail, throughput and verdict: it passes when no
// job failed, its tail meets the limit and the jobs still open when its
// schedule ended are no more than the rate times the limit (Little's law
// bound for a backlog that is not growing).
func (r *rung) judge(limitMS float64) {
	r.tailMS, r.tailName = tail(r.lat)
	r.throughput = ratio(float64(len(r.lat)), r.busyS)
	r.pass = r.failed == 0 && r.tailMS <= limitMS &&
		float64(r.outstanding) <= max(2, r.rate*limitMS/1e3)
}

// serveStats is the part of /v1/stats the benchmark samples.
type serveStats struct {
	Queue struct {
		Pending      int    `json:"pending"`
		Running      int    `json:"running"`
		RejectedFull uint64 `json:"rejected_full"`
	} `json:"queue"`
	Plane struct {
		Adopted   uint64 `json:"adopted"`
		WarmLeads uint64 `json:"warm_leads"`
		Class     struct {
			Hits   uint64 `json:"hits"`
			Misses uint64 `json:"misses"`
		} `json:"class_cache"`
	} `json:"plane"`
	Store struct {
		Hits      uint64 `json:"hits"`
		Misses    uint64 `json:"misses"`
		Writes    uint64 `json:"writes"`
		DiskBytes uint64 `json:"disk_bytes"`
	} `json:"store"`
}

func (g *gen) stats(ctx context.Context) (serveStats, error) {
	var st serveStats
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, g.url+"/v1/stats", nil)
	if err != nil {
		return st, err
	}
	resp, err := g.ctl.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/v1/stats: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// sampleStats polls /v1/stats every 10 ms until stop closes. It shares
// the control connection with submissions, never a result stream's.
func (g *gen) sampleStats(ctx context.Context, stop <-chan struct{}) (pending, running []float64) {
	for {
		if st, err := g.stats(ctx); err == nil {
			pending = append(pending, float64(st.Queue.Pending))
			running = append(running, float64(st.Queue.Running))
		}
		select {
		case <-stop:
			return pending, running
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// serveRounds is how many servers a run launches, one after another,
// each over a fresh store. Every round times the server's set-up, the
// cold pass (one job per class on the fresh server) and one warm burst
// (warmBurstPerClass jobs of every class at once), then drives its share
// of the loaded rung. Spreading the samples over the whole run keeps their
// medians steady when the host's speed changes during it. The last
// server stays up for the other rungs. The traced run reports no
// end-to-end metric, so it makes one round to warm its server.
const (
	serveRounds       = 11
	warmBurstPerClass = 10
)

// runServe is the serve workload.
func runServe(e *env) (*result, error) {
	r := newResult()
	sc := e.cfg.Serve
	if e.server == "" {
		return nil, fmt.Errorf("no odrips-server binary given (-server)")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()

	// Reference digests: the same specs through fleet.RunWithProgress in
	// this process, on a fresh plane each.
	specs := classSpecs(e.seed)
	ref := make([]string, len(specs))
	want := e.cfg.Digests[fmt.Sprint(e.seed)]
	for k, s := range specs {
		spec, err := fleet.ParseSpecJSON([]byte(s.json))
		if err == nil {
			var rep *fleet.Report
			if rep, err = fleet.RunWithProgress(ctx, spec, nil, nil); err == nil {
				ref[k], err = aggregatesDigest(rep)
			}
		}
		r.ledger.op(errorf(err, "in-process %s", s.name))
		r.notef("digest class/%s %s", s.name, ref[k])
		if w, ok := want["class/"+s.name]; ok {
			r.ledger.check("class/"+s.name+" vs recorded", ref[k], w)
		}
	}

	rng := rand.New(rand.NewSource(e.seed ^ 0x5e7e))
	// Each rung runs for its share of --seconds; the loaded rung's share is
	// split over the rounds. The traced run drives the loaded rate twice
	// for the loaded rung's time on the last server instead.
	dur := func(s step) time.Duration { return time.Duration(s.Share * e.seconds * float64(time.Second)) }
	var loaded step
	for _, st := range sc.Ladder {
		if st.JobsPerS == sc.LoadedPerS {
			loaded = st
		}
	}

	base := filepath.Join(e.out, "runs", fmt.Sprintf("serve-%d-%d", e.seed, os.Getpid()))
	defer os.RemoveAll(base)
	// The connection budget is nproc: one control connection, the rest
	// for result streams, and the server runs one job per stream
	// connection (at least one, so a one-core host uses two connections).
	streams := max(1, e.workers-1)
	g := newGen(specs, ref, streams)
	defer g.closeIdle()
	r.notef("odrips-server -workers %d; generator: %d result-stream connections + 1 control connection", streams, streams)
	rounds := serveRounds
	if e.trace {
		rounds = 1
	}
	loadedJobs := int(sc.LoadedPerS*dur(loaded).Seconds() + 0.5)
	var setups, colds, warm []float64
	var loadedParts []rung
	var rss float64
	var srv *server
	for i := 0; i < rounds; i++ {
		s, err := startServer(e, filepath.Join(base, strconv.Itoa(i)), streams)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s.readyS)
		g.url = s.url
		colds = append(colds, g.burst(ctx, 1, &r.ledger))
		warm = append(warm, g.burst(ctx, warmBurstPerClass, &r.ledger))
		if !e.trace {
			// The loaded rung's jobs, split evenly over the rounds.
			part := loadedJobs / rounds
			if i < loadedJobs%rounds {
				part++
			}
			d := time.Duration(float64(part) / sc.LoadedPerS * float64(time.Second))
			loadedParts = append(loadedParts, g.runRung(ctx, rng, sc.LoadedPerS, d, sc.LatencyLimitMS, &r.ledger))
		}
		if i == rounds-1 {
			srv = s
			break
		}
		g.closeIdle()
		m, err := s.stop()
		r.ledger.op(errorf(err, "server drain"))
		rss = max(rss, m)
	}
	defer srv.stop() // error paths; the success path stops it below

	r.set("setup_s", "s", median(setups), len(setups))
	r.set("cold_s", "s", median(colds), len(colds))
	r.set("warm_s", "s", median(warm), len(warm))
	r.notef("rounds: cold %s s, warm %s s", fmtList(colds), fmtList(warm))

	if e.trace {
		serveTraced(ctx, e, r, g, rng, dur(loaded))
	} else {
		var best, top rung
		for _, st := range sc.Ladder {
			rate := st.JobsPerS
			var rg rung
			if rate == sc.LoadedPerS {
				rg = joinRungs(loadedParts, sc.LatencyLimitMS)
			} else {
				rg = g.runRung(ctx, rng, rate, dur(st), sc.LatencyLimitMS, &r.ledger)
			}
			r.notef("rung %6.1f jobs/s: %d jobs, p50 %.2f ms, %s %.2f ms, %d open at end, %.1f done/s, pass %v",
				rate, len(rg.jobs), median(rg.lat), rg.tailName, rg.tailMS, rg.outstanding, rg.throughput, rg.pass)
			if rate == sc.LoadedPerS {
				p50, p95, err := latencyPair(rg.lat)
				r.ledger.op(err)
				r.set("p50_ms", "ms", p50, len(rg.lat))
				r.overall["done_p50_ms"], r.overall["done_p95_ms"] = p50, p95
			}
			if rg.pass {
				best = rg
			}
			top = rg
		}
		// done_p95_ms is printed with the loaded rung's line, not gated: on
		// a 2-CPU host it moved by 20-35 % run to run.
		// The top rung overloads the server on purpose: what it completes
		// per second is the serving capacity.
		r.set("ops_per_s", "1/s", top.throughput, len(top.lat))
		r.overall["max_jobs_per_s"] = best.rate
	}

	m, err := srv.stop()
	r.ledger.op(errorf(err, "server drain"))
	r.set("peak_rss_mb", "MB", max(rss, m), rounds)
	return r, nil
}

// fmtList formats values to three decimals, space-separated.
func fmtList(v []float64) string {
	s := make([]string, len(v))
	for i, x := range v {
		s[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return strings.Join(s, " ")
}

// serveTraced is the traced serve run: the loaded rate once untraced and
// once traced, with /v1/stats sampled during the traced rung; per-layer
// metrics come from the traced rung's spans.
func serveTraced(ctx context.Context, e *env, r *result, g *gen, rng *rand.Rand, d time.Duration) {
	sc := e.cfg.Serve
	plain := g.runRung(ctx, rng, sc.LoadedPerS, d, sc.LatencyLimitMS, &r.ledger)

	before, err := g.stats(ctx)
	r.ledger.op(err)
	stop := make(chan struct{})
	var pending, running []float64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		pending, running = g.sampleStats(ctx, stop)
	}()
	traced := g.runRung(ctx, rng, sc.LoadedPerS, d, sc.LatencyLimitMS, &r.ledger)
	close(stop)
	wg.Wait()
	after, err := g.stats(ctx)
	r.ledger.op(err)

	// Spans per job. The time from acceptance to the first post-done
	// frame is queue wait plus run; it is split between jobqueue and
	// fleet in the ratio of the sampled mean pending and running counts,
	// which by Little's law is the ratio of their mean times per job.
	t := newTracer(true, 0)
	pm, rm := mean(pending), mean(running)
	share := ratio(pm, pm+rm)
	var submit, frames, late []float64
	var bytesTotal float64
	for i, j := range traced.jobs {
		if j.err != nil {
			continue
		}
		job := fmt.Sprintf("job-%d", i)
		root := t.add("bench.job", 0, job, j.due, j.doneFrame)
		t.add("bench.gen_late", root, job, j.due, j.posted)
		t.add("server.submit", root, job, j.posted, j.accepted)
		split := j.accepted.Add(time.Duration(share * float64(j.firstFinal.Sub(j.accepted))))
		t.add("jobqueue.wait", root, job, j.accepted, split)
		t.add("fleet.run", root, job, split, j.firstFinal)
		t.add("report.result_frames", root, job, j.firstFinal, j.doneFrame)
		submit = append(submit, float64(j.accepted.Sub(j.posted).Nanoseconds())/1e6)
		frames = append(frames, float64(j.doneFrame.Sub(j.firstFinal).Nanoseconds())/1e6)
		late = append(late, float64(j.posted.Sub(j.due).Nanoseconds())/1e6)
		bytesTotal += float64(j.streamBytes)
	}
	spans := t.all()
	if err := writeSpans(filepath.Join(e.out, fmt.Sprintf("trace-serve-%d.json", e.seed)), spans); err != nil {
		r.ledger.op(err)
	}
	n := float64(len(submit))
	pendP95, _ := tail(pending)
	lateP95, _ := tail(late)
	r.layer("jobqueue.pending_p95", "count", pendP95)
	r.layer("jobqueue.running_mean", "count", rm)
	r.layer("jobqueue.rejected_full", "count", float64(after.Queue.RejectedFull-before.Queue.RejectedFull))
	r.layer("server.submit_ms_p50", "ms", median(submit))
	r.layer("report.stream_kb", "KB", ratio(bytesTotal, n)/1e3)
	r.layer("report.result_frames_ms_p50", "ms", median(frames))
	r.layer("gen.late_p95_ms", "ms", lateP95)
	r.layer("gen.offered_jobs_per_s", "1/s", float64(len(traced.jobs))/d.Seconds())
	// Every counter is the traced rung's own: after minus before.
	delta := func(a, b uint64) float64 { return float64(a - b) }
	classHits := delta(after.Plane.Class.Hits, before.Plane.Class.Hits)
	r.layer("platform.plane_adopted", "count", delta(after.Plane.Adopted, before.Plane.Adopted))
	r.layer("platform.plane_class_hit_ratio", "ratio", ratio(classHits, classHits+delta(after.Plane.Class.Misses, before.Plane.Class.Misses)))
	r.layer("platform.plane_warm_leads", "count", delta(after.Plane.WarmLeads, before.Plane.WarmLeads))
	hits, misses := delta(after.Store.Hits, before.Store.Hits), delta(after.Store.Misses, before.Store.Misses)
	r.layer("memostore.reads", "count", hits+misses)
	r.layer("memostore.misses", "count", misses)
	r.layer("memostore.warm_hit_ratio", "ratio", ratio(hits, hits+misses))
	r.layer("memostore.writes", "count", delta(after.Store.Writes, before.Store.Writes))
	r.layer("memostore.disk_mb", "MB", float64(after.Store.DiskBytes)/1e6)
	r.notef("serve layer counters are the traced rung's (after minus before); memostore.disk_mb is the store's size at its end")
	r.notef("fleet.* phase metrics are 0 on serve: the phases run inside odrips-server, where perfbench has no span")
	r.notef("memostore.open_ms and compact_ms are 0 on serve: the server opens its store itself and never compacts")
	r.notef("trace.overhead_pct on serve measures the /v1/stats poller: serve spans are built from timestamps after the rung")
	zeroLayers(r, e.cfg, "experiments.", "platform.", "sim.events", "memostore.", "fleet.")
	reportSelf(r, spans)
	r.layer("trace.overhead_pct", "%", 100*(ratio(median(traced.lat), median(plain.lat))-1))
	probes(r)
}
