package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one op
// share Op; Parent is the index of the causing span in the recorder
// (-1 for a root). Times are nanoseconds since the recorder's epoch.
type span struct {
	Name   string `json:"name"`
	Op     string `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps the traced pass's spans in memory until the workload
// ends. A nil recorder is the untraced pass: every method is a no-op,
// so workloads call it unconditionally.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	// open maps an op id to its innermost open span, so a span
	// recorded on the far side of the HTTP hop (the backend
	// decorator) finds the client span that caused it.
	open map[string]int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now(), open: map[string]int{}} }

// noSpan is the parent of a root span and the id a nil recorder hands
// out.
const noSpan = -1

// start opens a span and returns its id.
func (r *recorder) start(name, op string, parent int) int {
	if r == nil {
		return noSpan
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Op: op, Parent: parent, Start: now})
	id := len(r.spans) - 1
	r.open[op] = id
	return id
}

// end closes the span start returned.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id].End = now
	if op := r.spans[id].Op; r.open[op] == id {
		delete(r.open, op)
	}
	r.mu.Unlock()
}

// add records a span whose interval was measured elsewhere: the
// engine's per-stage wall times, which Session.Run reports as
// durations and the harness lays end to end from the start of
// core.run.
func (r *recorder) add(name, op string, parent int, start time.Time, d time.Duration) {
	if r == nil {
		return
	}
	s := int64(start.Sub(r.epoch))
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Op: op, Parent: parent, Start: s, End: s + int64(d)})
	r.mu.Unlock()
}

// addUnderOp records a finished span as a child of op's innermost open
// span (a root when there is none).
func (r *recorder) addUnderOp(name, op string, start time.Time, d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	parent, ok := r.open[op]
	r.mu.Unlock()
	if !ok {
		parent = noSpan
	}
	r.add(name, op, parent, start, d)
}

// reset drops warm-up spans so the trace holds the measured phase only.
func (r *recorder) reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = r.spans[:0]
	clear(r.open)
	r.mu.Unlock()
}

// view freezes the spans recorded so far; nil for the untraced pass.
func (r *recorder) view() *traceView {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return newTraceView(append([]span(nil), r.spans...))
}

// writeTrace writes the spans as one JSON document.
func writeTrace(path, workload string, spans []span) error {
	data, err := json.Marshal(struct {
		Format   string `json:"format"`
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{"sysbench-trace-1", workload, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// traceView is the finished spans of one measured phase, indexed for
// the per-layer arithmetic.
type traceView struct {
	spans []span
	kids  map[int][]int // parent → children; noSpan → roots
}

func newTraceView(spans []span) *traceView {
	v := &traceView{spans: spans, kids: map[int][]int{}}
	for i, s := range spans {
		v.kids[s.Parent] = append(v.kids[s.Parent], i)
	}
	return v
}

// selfTime is a span's duration minus the part of its interval that
// its child spans cover (overlapping children are counted once, and a
// child is clipped to its parent).
func (v *traceView) selfTime(id int) time.Duration {
	p := v.spans[id]
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range v.kids[id] {
		a, b := v.spans[k].Start, v.spans[k].End
		if a < p.Start {
			a = p.Start
		}
		if b > p.End {
			b = p.End
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, edge := int64(0), p.Start
	for _, c := range ivs {
		if c.a > edge {
			edge = c.a
		}
		if c.b > edge {
			covered += c.b - edge
			edge = c.b
		}
	}
	return p.dur() - time.Duration(covered)
}

// layerTimes is time by span name: total is inclusive duration, self
// is what no child span accounts for.
type layerTimes struct{ total, self map[string]time.Duration }

// under sums root and every span below it by name.
func (v *traceView) under(root int) layerTimes {
	lt := layerTimes{total: map[string]time.Duration{}, self: map[string]time.Duration{}}
	var walk func(id int)
	walk = func(id int) {
		name := v.spans[id].Name
		lt.total[name] += v.spans[id].dur()
		lt.self[name] += v.selfTime(id)
		for _, k := range v.kids[id] {
			walk(k)
		}
	}
	walk(root)
	return lt
}

// byName lists, in ms, the duration and the self time of every span
// with the given name. A nil view (the untraced pass) has none.
func (v *traceView) byName(name string) (total, self []float64) {
	if v == nil {
		return nil, nil
	}
	for i, s := range v.spans {
		if s.Name == name {
			total = append(total, ms(s.dur()))
			self = append(self, ms(v.selfTime(i)))
		}
	}
	return total, self
}
