// Command perfbench is the repository benchmark: it runs one named
// workload from a seed, checks every output it produces, and prints the
// workload's metrics as one JSON object on the last line of stdout.
//
// Usage (from the repository root, through run.sh, which builds this
// binary and odrips-server first):
//
//	bash _perfbench/run.sh --workload paper-suite --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// is the separate traced run that derives the per-layer metrics from
// spans it records around its own calls into each package.
// Workloads, metrics and recorded digests are described in README.md
// and config.json next to this file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the final stdout line.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what every workload needs from the command line.
type env struct {
	root    string // repository checkout
	out     string // scratch directory inside the checkout
	self    string // this executable, re-run for child passes
	server  string // odrips-server binary built from the tree
	seed    int64
	seconds float64
	trace   bool
	cfg     *config
	workers int // simulation / job worker pool: nproc
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2:]))
	}
	workloadName := flag.String("workload", "", "workload: paper-suite, fleet or serve")
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "measurement budget in seconds")
	traceFlag := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
	root := flag.String("root", ".", "repository checkout the benchmark runs in")
	out := flag.String("out", ".bench_build", "scratch directory for stores, spans and binaries")
	server := flag.String("server", "", "odrips-server binary (serve workload)")
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
		os.Exit(1)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fail("--trace must be 0 or 1")
	}
	if *seconds <= 0 {
		fail("--seconds must be positive")
	}
	self, err := os.Executable()
	if err != nil {
		fail("locate executable: %v", err)
	}
	cfg, err := loadConfig(*root)
	if err != nil {
		fail("%v", err)
	}
	e := &env{
		root: *root, out: *out, self: self, server: *server,
		seed: *seed, seconds: *seconds, trace: *traceFlag == 1,
		cfg: cfg, workers: runtime.NumCPU(),
	}
	var res *result
	switch *workloadName {
	case "paper-suite":
		res, err = runSuite(e)
	case "fleet":
		res, err = runFleet(e)
	case "serve":
		res, err = runServe(e)
	default:
		fail("unknown workload %q (want paper-suite, fleet or serve)", *workloadName)
	}
	if err != nil {
		fail("%s: %v", *workloadName, err)
	}
	if err := res.print(os.Stdout, e, *workloadName); err != nil {
		fail("%v", err)
	}
}

// result is what a workload hands back: its end-to-end metrics (with
// sample counts), per-layer metrics, and the op/failure ledger.
type result struct {
	e2e     map[string]sampled
	layers  map[string]metric
	notes   []string // human-readable lines printed before the JSON
	ledger  ledger
	overall map[string]float64 // the figures behind the metrics, under their own names
}

// sampled is a metric plus the number of samples behind it.
type sampled struct {
	metric
	N int
}

func newResult() *result {
	return &result{e2e: map[string]sampled{}, layers: map[string]metric{}, overall: map[string]float64{}}
}

func (r *result) set(name, unit string, v float64, n int) {
	r.e2e[name] = sampled{metric{v, unit}, n}
}

func (r *result) layer(name, unit string, v float64) { r.layers[name] = metric{v, unit} }

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// print writes the text report, then the JSON line. With tracing off the
// JSON holds the end-to-end metrics named in BENCHMARK.json; with
// tracing on, the per-layer metrics. A metric missing from the
// workload's result is a benchmark bug and fails the run.
func (r *result) print(f io.Writer, e *env, workload string) error {
	fmt.Fprintf(f, "workload %s seed %d trace %v workers %d\n", workload, e.seed, e.trace, e.workers)
	for _, n := range r.notes {
		fmt.Fprintln(f, n)
	}
	keys := make([]string, 0, len(r.overall))
	for k := range r.overall {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(f, "%s = %.6g\n", k, r.overall[k])
	}
	fmt.Fprintf(f, "error_rate = %.6g (%d failed of %d attempted)\n", r.ledger.rate(), r.ledger.failed, r.ledger.attempted)
	for _, v := range r.ledger.errs {
		fmt.Fprintf(f, "FAIL: %s\n", v)
	}
	out := outcome{
		Correct:   r.ledger.failed == 0,
		Attempted: r.ledger.attempted,
		Failed:    r.ledger.failed,
		Metrics:   map[string]metric{},
	}
	if e.trace {
		for _, d := range e.cfg.PerLayer {
			m, ok := r.layers[d.Name]
			if !ok {
				return fmt.Errorf("per-layer metric %s was not produced", d.Name)
			}
			fmt.Fprintf(f, "%-36s %14.6g %s\n", d.Name, m.Value, m.Unit)
			out.Metrics[d.Name] = m
		}
	} else {
		for _, d := range e.cfg.EndToEnd {
			m, ok := r.e2e[d.Name]
			if !ok {
				return fmt.Errorf("end-to-end metric %s was not produced", d.Name)
			}
			fmt.Fprintf(f, "%-14s %12.6g %-5s n=%d\n", d.Name, m.Value, m.Unit, m.N)
			out.Metrics[d.Name] = m.metric
		}
	}
	if out.Attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(f, "%s\n", line)
	return err
}

// ledger counts attempted and failed operations; every output mismatch,
// dropped job or error is one failure.
type ledger struct {
	attempted, failed int
	errs              []string
}

func (l *ledger) op(err error) {
	l.attempted++
	if err != nil {
		l.failed++
		if len(l.errs) < 20 {
			l.errs = append(l.errs, err.Error())
		}
	}
}

// check records one comparison as an operation.
func (l *ledger) check(what, got, want string) {
	if got == want {
		l.op(nil)
		return
	}
	l.op(fmt.Errorf("%s: digest %.16s, want %.16s", what, got, want))
}

func (l *ledger) rate() float64 {
	if l.attempted == 0 {
		return 0
	}
	return float64(l.failed) / float64(l.attempted)
}
