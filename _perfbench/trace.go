package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call perfbench made into a layer. Name is
// "<layer>.<call>"; Start and End are Unix nanoseconds, so spans from
// child processes merge onto one time line; Job ties the spans of one
// serve job (or one op) together.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Job    string `json:"job,omitempty"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

func (s span) dur() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing and its methods cost one branch, so the untraced run
// times the same code paths.
type tracer struct {
	on     bool
	prefix int // ID offset, so spans of several processes stay distinct

	mu    sync.Mutex
	spans []span
}

func newTracer(on bool, prefix int) *tracer { return &tracer{on: on, prefix: prefix} }

// begin opens a span and returns its ID (0 when tracing is off).
func (t *tracer) begin(name string, parent int, job string) int {
	if t == nil || !t.on {
		return 0
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.prefix + len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Job: job, Start: now})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || !t.on || id == 0 {
		return
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	t.spans[id-t.prefix-1].End = now
	t.mu.Unlock()
}

// add records a span whose bounds the caller measured itself.
func (t *tracer) add(name string, parent int, job string, start, end time.Time) int {
	if t == nil || !t.on {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.prefix + len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Job: job, Start: start.UnixNano(), End: end.UnixNano()})
	return id
}

func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes derives each layer's self time: a span's duration minus the
// part of its interval that its child spans cover. Summed over layers it
// equals the summed duration of the root spans when children do not
// overlap their siblings.
func selfTimes(spans []span) map[string]float64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		covered := coverage(s, children[s.ID])
		out[s.layer()] += s.dur() - covered
	}
	return out
}

// coverage is the length, in seconds, of the union of the children's
// intervals clipped to parent.
func coverage(parent span, kids []span) float64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	started := false
	for _, x := range iv {
		switch {
		case !started:
			curA, curB, started = x[0], x[1], true
		case x[0] > curB:
			total += curB - curA
			curA, curB = x[0], x[1]
		case x[1] > curB:
			curB = x[1]
		}
	}
	if started {
		total += curB - curA
	}
	return float64(total) / 1e9
}

// sumDur totals the durations of spans named name.
func sumDur(spans []span, name string) float64 {
	var t float64
	for _, s := range spans {
		if s.Name == name {
			t += s.dur()
		}
	}
	return t
}

// selfLayers are the layers a per-layer self time is reported for; a
// layer with no spans in a workload reports 0.
var selfLayers = []string{"bench", "experiments", "platform", "memostore", "fleet", "jobqueue", "server", "report"}

// reportSelf adds self.<layer>_s for every layer plus the traced wall
// those self times account for.
func reportSelf(r *result, spans []span) {
	self := selfTimes(spans)
	var sum, wall float64
	for _, l := range selfLayers {
		r.layer("self."+l+"_s", "s", self[l])
		sum += self[l]
	}
	for _, s := range spans {
		if s.Parent == 0 {
			wall += s.dur()
		}
	}
	r.layer("trace.wall_s", "s", wall)
	r.layer("trace.self_sum_s", "s", sum)
}
