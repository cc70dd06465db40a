package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	mk := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	if _, ok := percentile(mk(199), 0.95); ok {
		t.Error("p95 of 199 samples reported; only 9 lie beyond it")
	}
	if v, ok := percentile(mk(200), 0.95); !ok || v != 190 {
		t.Errorf("p95 of 200 samples = %v, %v; want 190 with 10 beyond", v, ok)
	}
	if _, ok := percentile(mk(19), 0.5); ok {
		t.Error("median of 19 samples reported as a percentile; only 9 lie beyond it")
	}
	if _, _, err := latencyPair(mk(150)); err == nil || !strings.Contains(err.Error(), "150 latency samples") {
		t.Errorf("latencyPair(150 samples) error = %v; want one naming the sample count", err)
	}
}

func TestPrintStatesSampleCounts(t *testing.T) {
	r := newResult()
	r.set("p50_ms", "ms", 1.5, 200)
	r.ledger.op(nil)
	e := &env{cfg: &config{EndToEnd: []metricDef{{"p50_ms", "ms"}}}}
	var b strings.Builder
	if err := r.print(&b, e, "w"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "n=200") {
		t.Errorf("report does not state the sample count:\n%s", b.String())
	}
	last := strings.TrimSpace(b.String())
	last = last[strings.LastIndex(last, "\n")+1:]
	if last != `{"correct":true,"attempted":1,"failed":0,"metrics":{"p50_ms":{"value":1.5,"unit":"ms"}}}` {
		t.Errorf("last line = %s", last)
	}
}

func TestSelfTimesAccountForRoots(t *testing.T) {
	s := func(id, parent int, name string, a, b int64) span {
		return span{ID: id, Parent: parent, Name: name, Start: a * 1e9, End: b * 1e9}
	}
	spans := []span{
		s(1, 0, "bench.pass", 0, 10),
		s(2, 1, "experiments.Fig6a", 1, 4),
		s(3, 2, "platform.RunCycles", 2, 3),
		s(4, 1, "fleet.RunWithProgress", 5, 9),
		s(5, 4, "fleet.expand", 5, 6),
	}
	got := selfTimes(spans)
	want := map[string]float64{"bench": 3, "experiments": 2, "platform": 1, "fleet": 4}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self[%s] = %v, want %v", k, got[k], v)
		}
	}
	r := newResult()
	reportSelf(r, spans)
	if a, b := r.layers["trace.self_sum_s"].Value, r.layers["trace.wall_s"].Value; a != b || b != 10 {
		t.Errorf("self times sum to %v, traced wall %v; want both 10", a, b)
	}
}

// fakeServer speaks the odrips-server job API: every job's aggregates
// payload is `{"k":0}`, except that the job with sequence number perturb
// streams a different payload and the one numbered drop ends its stream
// before the done frame. The first submission stalls for stallSubmit
// before its 202, and the first job's run stalls for stallRun.
type fakeServer struct {
	stallSubmit, stallRun time.Duration
	perturb, drop         int64
	seq                   atomic.Int64
}

const fakePayload = `{"k":0}`

func (f *fakeServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
		n := f.seq.Add(1)
		if n == 1 {
			time.Sleep(f.stallSubmit)
		}
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"id":"job-%d"}`, n)
	case r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/results"):
		var n int64
		fmt.Sscanf(strings.TrimPrefix(r.URL.Path, "/v1/jobs/job-"), "%d", &n)
		fmt.Fprintln(w, `{"frame":"progress","job":{"state":"running"}}`)
		if n == 1 {
			time.Sleep(f.stallRun)
		}
		if n == f.drop {
			return
		}
		payload := fakePayload
		if n == f.perturb {
			payload = `{"k":1}`
		}
		fmt.Fprintln(w, `{"frame":"progress","job":{"state":"done"}}`)
		fmt.Fprintf(w, `{"frame":"aggregates","payload":%s}`+"\n", payload)
		fmt.Fprintln(w, `{"frame":"done","state":"done"}`)
	default:
		http.NotFound(w, r)
	}
}

func fakeGen(t *testing.T, f *fakeServer) *gen {
	srv := httptest.NewServer(f)
	t.Cleanup(srv.Close)
	// One result-stream connection, as on a two-core host: a stalled
	// stream holds it, so later jobs' streams wait.
	g := newGen([]namedSpec{{name: "class-0", json: `{}`}}, []string{digest([]byte(fakePayload))}, 1)
	t.Cleanup(g.closeIdle)
	g.url = srv.URL
	return g
}

func TestOpenLoopLatencyCountsFromDueTime(t *testing.T) {
	const stall = 300 * time.Millisecond
	for name, f := range map[string]*fakeServer{
		"stalled submission": {stallSubmit: stall},
		"stalled run":        {stallRun: stall},
	} {
		t.Run(name, func(t *testing.T) {
			g := fakeGen(t, f)
			sched := []arrival{{at: 0}, {at: 50 * time.Millisecond}, {at: 100 * time.Millisecond}}
			jobs := g.openLoop(context.Background(), sched, time.Now())
			for i, j := range jobs {
				if j.err != nil {
					t.Fatalf("job %d: %v", i, j.err)
				}
			}
			// Jobs 2 and 3 were due during the stall: their latency runs
			// from their due time, so it includes the wait the stall
			// imposed, even though their own service took microseconds.
			for i := 1; i < 3; i++ {
				lat := time.Duration(jobs[i].latencyMS() * float64(time.Millisecond))
				if min := stall - sched[i].at - 20*time.Millisecond; lat < min {
					t.Errorf("job %d latency %v; the stall should have made it at least %v", i, lat, min)
				}
				// A stalled submission holds the control connection, so
				// the next submissions go out late, and the generator
				// says so; a stalled run holds only a stream.
				late := jobs[i].posted.Sub(jobs[i].due)
				if f.stallSubmit > 0 && late < 100*time.Millisecond {
					t.Errorf("job %d sent %v after its due time; the generator should report it late", i, late)
				}
				if f.stallRun > 0 && late > 100*time.Millisecond {
					t.Errorf("job %d sent %v late behind a stalled stream; submissions have their own connection", i, late)
				}
			}
		})
	}
}

func TestPerturbedDigestAndDroppedJobRaiseErrorRate(t *testing.T) {
	for name, f := range map[string]*fakeServer{
		"clean":     {},
		"perturbed": {perturb: 2},
		"dropped":   {drop: 3},
	} {
		t.Run(name, func(t *testing.T) {
			g := fakeGen(t, f)
			var l ledger
			g.burst(context.Background(), 4, &l)
			want := 1
			if name == "clean" {
				want = 0
			}
			if l.attempted != 4 || l.failed != want {
				t.Fatalf("%d failed of %d attempted, want %d of 4: %v", l.failed, l.attempted, want, l.errs)
			}
			if want > 0 && l.rate() != 0.25 {
				t.Errorf("error rate %v, want 0.25", l.rate())
			}
		})
	}
}

func TestRungJudgesFailedJobAsMissingTheLimit(t *testing.T) {
	g := fakeGen(t, &fakeServer{perturb: 1})
	var l ledger
	rg := g.runRung(context.Background(), rand.New(rand.NewSource(1)), 20, 200*time.Millisecond, 1e6, &l)
	if rg.pass || rg.failed != 1 {
		t.Errorf("rung with one failed job: pass %v, failed %d; want a miss", rg.pass, rg.failed)
	}
}

// The loaded rung is driven in segments, one per round; a backlog left
// by any one segment must still fail the joined rung.
func TestJoinedRungKeepsEachSegmentsBacklog(t *testing.T) {
	quiet := rung{rate: 8, lat: []float64{10, 10}, busyS: 1}
	backlog := quiet
	backlog.outstanding = 5
	j := joinRungs([]rung{quiet, backlog, quiet}, 250)
	if j.pass || j.outstanding != 5 || len(j.lat) != 6 || j.throughput != 2 {
		t.Errorf("joined rung: pass %v, %d open, %d samples, %v done/s; want a miss, 5, 6, 2",
			j.pass, j.outstanding, len(j.lat), j.throughput)
	}
	if j := joinRungs([]rung{quiet, quiet}, 250); !j.pass {
		t.Errorf("two quiet segments joined: pass %v, want a pass", j.pass)
	}
}

func TestCompareDigestsCountsEveryMismatch(t *testing.T) {
	var l ledger
	compareDigests(&l, "pair", map[string]string{"a": "1", "b": "2"}, map[string]string{"a": "1", "b": "3"})
	if l.attempted != 2 || l.failed != 1 {
		t.Errorf("%d failed of %d, want 1 of 2", l.failed, l.attempted)
	}
}

// TestSuiteDigestIsOdripsBench checks that the recorded suite digest,
// which every paper-suite pass checks its own rendering against, is the
// hash of what a reproducer runs: the stdout of `odrips-bench -exp all
// -sweep fast`. An experiment added to or reordered in odrips-bench
// fails here until suiteExperiments and the digest follow it.
func TestSuiteDigestIsOdripsBench(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole suite through odrips-bench")
	}
	var cfg config
	if err := readJSON("config.json", &cfg); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "run", "./cmd/odrips-bench", "-exp", "all", "-sweep", "fast", "-memocache", "off")
	cmd.Dir = ".."
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("odrips-bench: %v", err)
	}
	if got := digest(out); got != cfg.SuiteDigest {
		t.Errorf("odrips-bench -exp all -sweep fast hashes to %s; config.json records suite_digest %s", got, cfg.SuiteDigest)
	}
}
