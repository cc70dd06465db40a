package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"odrips/internal/experiments"
	"odrips/internal/memostore"
)

// childOut is what a child pass reports to its parent on stdout.
type childOut struct {
	PassS        float64            `json:"pass_s"`
	OpenMS       float64            `json:"open_ms"`
	CompactMS    float64            `json:"compact_ms"`
	Digests      map[string]string  `json:"digests"`
	OpsMS        []float64          `json:"ops_ms"`
	OpsWallS     float64            `json:"ops_wall_s"`
	Counters     map[string]float64 `json:"counters"`
	AnchorErrPct float64            `json:"anchor_err_pct"`
	StandbySimH  float64            `json:"standby_sim_h"`
	StandbyHostS float64            `json:"standby_host_s"`
	Attempted    int                `json:"attempted"`
	Failed       int                `json:"failed"`
	Errors       []string           `json:"errors"`
	Spans        []span             `json:"spans"`
}

// child is the state of one child pass process.
type child struct {
	t       *tracer
	store   *memostore.Store
	seed    int64
	warm    bool
	workers int
	ledger  ledger
	out     childOut
}

func (c *child) counter(name string, v float64) { c.out.Counters[name] += v }

// compact folds the cold pass's loose entries into one pack segment:
// set-up for the warm pass, timed on its own.
func (c *child) compact() {
	id := c.t.begin("memostore.Compact", 0, "")
	t0 := time.Now()
	_, err := c.store.Compact()
	c.out.CompactMS = float64(time.Since(t0).Nanoseconds()) / 1e6
	c.t.end(id)
	c.ledger.op(errorf(err, "compact"))
}

// opStream runs n ops on c.workers goroutines in a closed loop (a
// worker starts its next op when its last one returns), recording each
// op's latency and the stream's wall time. Each worker is one root span,
// so its ops' spans never overlap their siblings and the layer self
// times add up to the workers' span time.
func (c *child) opStream(n int, op func(i, parent int) error) {
	lat := make([]float64, n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < c.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			root := c.t.begin("bench.worker", 0, "")
			defer c.t.end(root)
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				t0 := time.Now()
				errs[i] = op(i, root)
				lat[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
			}
		}()
	}
	wg.Wait()
	c.out.OpsWallS = time.Since(start).Seconds()
	c.out.OpsMS = lat
	for i, err := range errs {
		c.ledger.op(errorf(err, "op %d", i))
	}
}

// storeCounters snapshots the store right after the timed pass, before
// compaction or the op stream touch it.
func (c *child) storeCounters() {
	st := c.store.Stats()
	c.counter("memostore.hits", float64(st.Hits))
	c.counter("memostore.misses", float64(st.Misses))
	c.counter("memostore.writes", float64(st.Writes))
	c.counter("memostore.disk_bytes", float64(st.DiskBytes))
}

// childMain runs one pass in a fresh process: it opens the store, says
// READY (the end of its set-up), runs the pass and prints childOut.
func childMain(args []string) int {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	kind := fs.String("kind", "", "suite or fleet")
	dir := fs.String("store", "", "memo store directory")
	seed := fs.Int64("seed", 1, "input seed")
	warm := fs.Bool("warm", false, "warm pass (the store holds a compacted cold pass)")
	trace := fs.Bool("trace", false, "record spans")
	prefix := fs.Int("span-prefix", 0, "span ID offset")
	workers := fs.Int("workers", 1, "worker pool size")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	c := &child{t: newTracer(*trace, *prefix), seed: *seed, warm: *warm, workers: *workers}
	c.out.Digests = map[string]string{}
	c.out.Counters = map[string]float64{}

	experiments.SetDefaultWorkers(*workers)
	id := c.t.begin("memostore.Open", 0, "")
	t0 := time.Now()
	st, err := memostore.Open(*dir, memostore.RW)
	c.out.OpenMS = float64(time.Since(t0).Nanoseconds()) / 1e6
	c.t.end(id)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench child: %v\n", err)
		return 1
	}
	c.store = st
	memostore.SetDefault(st)
	fmt.Println("READY")

	switch *kind {
	case "suite":
		suitePass(c)
	case "fleet":
		fleetPass(c)
	default:
		fmt.Fprintf(os.Stderr, "perfbench child: unknown kind %q\n", *kind)
		return 2
	}
	c.out.Attempted, c.out.Failed, c.out.Errors = c.ledger.attempted, c.ledger.failed, c.ledger.errs
	c.out.Spans = c.t.all()
	b, err := json.Marshal(c.out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench child: %v\n", err)
		return 1
	}
	fmt.Printf("%s\n", b)
	return 0
}

// childRun is the parent's record of one child process.
type childRun struct {
	readyS   float64 // launch -> READY
	wallS    float64 // launch -> exit
	maxRSSMB float64
	out      childOut
	spans    []span
}

// launch starts cmd, timing launch -> the first stdout line that ready
// accepts, and returns that line and a scanner over the rest of stdout.
func launch(cmd *exec.Cmd, ready func(string) bool) (time.Duration, string, *bufio.Scanner, error) {
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, "", nil, err
	}
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, "", nil, err
	}
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	for sc.Scan() {
		if ready(sc.Text()) {
			return time.Since(t0), sc.Text(), sc, nil
		}
	}
	// Wait's error is secondary to the missing ready line reported here.
	_ = cmd.Wait()
	return 0, "", nil, fmt.Errorf("%s exited before it was ready", filepath.Base(cmd.Path))
}

// maxRSSMB reads the finished process's peak resident set.
func maxRSSMB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}

// runChild runs one pass process to completion.
func runChild(e *env, kind, store string, warm, trace bool, prefix int) (childRun, error) {
	var cr childRun
	cmd := exec.Command(e.self, "child", "-kind", kind, "-store", store,
		"-seed", strconv.FormatInt(e.seed, 10), "-warm="+strconv.FormatBool(warm),
		"-trace="+strconv.FormatBool(trace), "-span-prefix", strconv.Itoa(prefix),
		"-workers", strconv.Itoa(e.workers))
	cmd.Env = childEnv()
	ready, _, sc, err := launch(cmd, func(l string) bool { return l == "READY" })
	if err != nil {
		return cr, err
	}
	cr.readyS = ready.Seconds()
	var line []byte
	for sc.Scan() {
		line = append(line[:0], sc.Bytes()...)
	}
	if err := cmd.Wait(); err != nil {
		return cr, fmt.Errorf("%s pass: %w", kind, err)
	}
	cr.maxRSSMB = maxRSSMB(cmd.ProcessState)
	if err := json.Unmarshal(line, &cr.out); err != nil {
		return cr, fmt.Errorf("%s pass output: %w", kind, err)
	}
	return cr, nil
}

// childEnv is the parent's environment without the variables that would
// make the library open a default memo store on its own.
func childEnv() []string {
	var out []string
	for _, kv := range os.Environ() {
		if strings.HasPrefix(kv, "ODRIPS_MEMOCACHE") {
			continue
		}
		out = append(out, kv)
	}
	return out
}

// pair is one cold pass plus one warm pass over the same store.
type pair struct {
	cold, warm childRun
	traced     bool
}

func (p pair) spans() []span { return append(p.cold.out.Spans, p.warm.out.Spans...) }

// setupS is the pair's set-up: both launches up to READY plus the
// compaction between them.
func (p pair) setupS() float64 {
	return p.cold.readyS + p.cold.out.CompactMS/1e3 + p.warm.readyS
}

// minPairs is the fewest cold/warm pairs an untraced run makes: each
// warm pass ends with a 100-op stream, so a run has at least 200 op
// latencies, enough for a p95 with ten samples beyond it.
const minPairs = 2

// runPairs runs cold/warm pairs over fresh stores until the time budget
// is spent (at least minPairs). A traced run makes exactly two: one untraced,
// to state the tracing overhead against, then one traced.
func runPairs(e *env, kind string, r *result) ([]pair, error) {
	base := filepath.Join(e.out, "runs", fmt.Sprintf("%s-%d-%d", kind, e.seed, os.Getpid()))
	defer os.RemoveAll(base)
	var pairs []pair
	start := time.Now()
	for i := 0; ; i++ {
		if e.trace && i == 2 {
			break
		}
		if !e.trace && i >= minPairs && time.Since(start).Seconds() >= e.seconds {
			break
		}
		traced := e.trace && i == 1
		store := filepath.Join(base, strconv.Itoa(i))
		cold, err := runChild(e, kind, store, false, traced, 1_000_000*(2*i+1))
		if err != nil {
			return nil, err
		}
		warm, err := runChild(e, kind, store, true, traced, 1_000_000*(2*i+2))
		if err != nil {
			return nil, err
		}
		for _, c := range []childRun{cold, warm} {
			r.ledger.attempted += c.out.Attempted
			r.ledger.failed += c.out.Failed
			r.ledger.errs = append(r.ledger.errs, c.out.Errors...)
		}
		if err := os.RemoveAll(store); err != nil {
			return nil, err
		}
		pairs = append(pairs, pair{cold: cold, warm: warm, traced: traced})
	}
	if e.trace {
		p := pairs[len(pairs)-1]
		if err := writeSpans(filepath.Join(e.out, fmt.Sprintf("trace-%s-%d.json", kind, e.seed)), p.spans()); err != nil {
			return nil, err
		}
	}
	return pairs, nil
}

// setCommon sets the end-to-end metrics shared by the two batch
// workloads: set-up, cold and warm pass medians, op latency and rate,
// and peak RSS.
func setCommon(r *result, pairs []pair, ops []float64, opsWall float64) error {
	var setup, cold, warm []float64
	var rss float64
	for _, p := range pairs {
		if p.traced {
			continue
		}
		setup = append(setup, p.setupS())
		cold = append(cold, p.cold.out.PassS)
		warm = append(warm, p.warm.out.PassS)
		rss = max(rss, p.cold.maxRSSMB, p.warm.maxRSSMB)
	}
	r.set("setup_s", "s", median(setup), len(setup))
	r.set("cold_s", "s", median(cold), len(cold))
	r.set("warm_s", "s", median(warm), len(warm))
	r.set("peak_rss_mb", "MB", rss, 2*len(cold))
	r.set("ops_per_s", "1/s", ratio(float64(len(ops)), opsWall), len(ops))
	p50, p95, err := latencyPair(ops)
	r.set("p50_ms", "ms", p50, len(ops))
	r.notef("op latency: p50 %.4g ms, p95 %.4g ms, n=%d (the p95 is printed, not gated)", p50, p95, len(ops))
	return err
}

// traceOverhead states what tracing cost: the traced pair's passes
// against the untraced pair's (the two pairs of a traced run), in percent.
func traceOverhead(r *result, pairs []pair) {
	wall := func(p pair) float64 { return p.cold.out.PassS + p.warm.out.PassS + p.warm.out.OpsWallS }
	u, t := wall(pairs[0]), wall(pairs[1])
	r.layer("trace.overhead_pct", "%", 100*(t/u-1))
}
