// Package telemetry is the observability layer of the benchmarking
// harness: context-propagated hierarchical spans and a
// metrics registry (counters, gauges, histograms), all stdlib-only
// and driven by an injectable Clock.
//
// The paper's analysis pipeline hinges on instrumented runs — Caliper
// annotations flowing into a metrics database — and Omnibenchmark and
// exaCB both argue that the harness itself must emit auditable timing
// and provenance, not just the benchmarks it runs. This package is
// that instrumentation for our own execution stack: the engine, the
// session orchestration, the CI pipelines and the installer all start
// spans here, and three exporters (internal Caliper profile, a
// deterministic JSON trace, Prometheus text exposition — see
// export.go) turn a finished run into analyzable data.
//
// Design rules, mirrored from the execution engine's invariants:
//
//   - Tracing is opt-in via the context. telemetry.StartSpan on a
//     context without a Tracer returns a nil *Span whose methods are
//     all no-ops, so instrumented hot paths cost one context lookup
//     when telemetry is off.
//   - Time comes only from the Tracer's injected Clock. With a
//     FixedClock every duration is zero and two identical runs export
//     byte-identical traces, which is how the determinism tests keep
//     their guarantee with telemetry enabled (the wall clock is the
//     default for real runs).
//   - Span identity is structural, not temporal: a span's ID is its
//     slash-joined ancestry path (with a "#n" suffix for repeated
//     sibling names), so exports sort deterministically even when
//     spans were opened concurrently.
//   - Every StartSpan must be paired with End on all return paths;
//     cmd/benchlint's spanend analyzer enforces this mechanically.
package telemetry

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Clock supplies the tracer's timestamps. Injecting it keeps the
// instrumented packages free of wall-clock reads: the engine's
// determinism analyzer still holds because real time enters only
// here, and only when the caller chose the wall clock.
type Clock interface {
	Now() time.Time
}

// wallClock is the production clock.
type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// WallClock returns the real-time clock (the default for a nil clock
// passed to New).
func WallClock() Clock { return wallClock{} }

// FixedClock always reports the same instant. Under it every span
// duration is zero, which makes trace exports a pure function of the
// run's structure — the clock the byte-identical-trace tests inject.
type FixedClock struct{ T time.Time }

func (c FixedClock) Now() time.Time { return c.T }

// StepClock advances by a fixed step on every reading — a logical
// clock for unit tests that want nonzero, reproducible durations in
// sequential code.
type StepClock struct {
	mu   sync.Mutex
	t    time.Time
	step time.Duration
}

// NewStepClock returns a StepClock starting at start.
func NewStepClock(start time.Time, step time.Duration) *StepClock {
	return &StepClock{t: start, step: step}
}

func (c *StepClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.t
	c.t = c.t.Add(c.step)
	return now
}

// maxFinished is how many finished spans a Tracer keeps. Past it, a span
// that ends takes the place of the oldest one kept, so a long-lived
// server's tracer holds its last maxFinished requests rather than every
// one it ever served. The largest trace any test or example run exports
// holds 59 spans.
const maxFinished = 4096

// Tracer collects finished spans and owns the run's metrics registry.
// It is safe for concurrent use: the engine's worker pool opens and
// closes experiment spans from many goroutines.
type Tracer struct {
	clock   Clock
	epoch   time.Time
	traceID string
	metrics *Registry

	mu       sync.Mutex
	finished []*Span        // the last maxFinished spans to end; a ring once full
	dropped  int            // spans pushed out of the full ring, oldest first
	roots    map[string]int // root span name -> prior count; a child's count is on its parent
}

// New returns a Tracer reading the given clock (nil means the wall
// clock). The first clock reading becomes the trace epoch; exported
// span times are seconds since it.
func New(clock Clock) *Tracer {
	if clock == nil {
		clock = wallClock{}
	}
	epoch := clock.Now()
	return &Tracer{
		clock:   clock,
		epoch:   epoch,
		traceID: deriveTraceID(epoch),
		metrics: NewRegistry(),
	}
}

// TraceID returns the tracer's 32-hex trace identity — deterministic
// under a FixedClock, see deriveTraceID. Spans started without a
// remote parent belong to this trace; "" on a nil tracer.
func (t *Tracer) TraceID() string {
	if t == nil {
		return ""
	}
	return t.traceID
}

// Metrics returns the tracer's registry; nil-safe (a nil tracer
// yields a nil registry whose instruments are no-ops).
func (t *Tracer) Metrics() *Registry {
	if t == nil {
		return nil
	}
	return t.metrics
}

// Now reads the tracer's clock; the zero time on a nil tracer.
func (t *Tracer) Now() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.clock.Now()
}

// Span is one timed region of the harness's execution: a name, an
// ancestry path, attributes, and an optional error.
// A nil *Span (StartSpan without a tracer) is a valid no-op receiver
// for every method.
type Span struct {
	tracer *Tracer
	id     string
	parent string
	name   string
	path   string
	start  time.Time
	// traceID and remoteParent are fixed at StartSpan: the trace the
	// span belongs to (inherited from the parent span, adopted from a
	// WithRemote caller, or the tracer's own) and, for a span joining
	// a remote caller's trace, the caller's wire-level span ID.
	traceID      string
	remoteParent string

	mu       sync.Mutex
	attrs    map[string]string
	errMsg   string
	end      time.Time
	ended    bool
	children map[string]int // child span name -> prior count
}

type tracerKey struct{}
type spanKey struct{}

// WithTracer returns a context carrying the tracer; StartSpan on the
// derived context records into it.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	return context.WithValue(ctx, tracerKey{}, t)
}

// FromContext returns the context's tracer, nil when tracing is off.
func FromContext(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey{}).(*Tracer)
	return t
}

// Current returns the context's innermost open span, nil when none.
func Current(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// StartSpan opens a span named name under the context's current span
// and returns a derived context carrying it. Without a tracer in the
// context it returns ctx unchanged and a nil span. The caller must
// End the span on every return path (the spanend analyzer checks).
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	t := FromContext(ctx)
	if t == nil {
		return ctx, nil
	}
	parentID, base, n := "", "", 0
	traceID, remoteParent := t.traceID, ""
	if p := Current(ctx); p != nil {
		parentID = p.id
		base = p.path + "/"
		if p.traceID != "" {
			traceID = p.traceID
		}
		p.mu.Lock()
		n = nextSibling(&p.children, name)
		p.mu.Unlock()
	} else {
		if tc, ok := RemoteFromContext(ctx); ok && tc.Valid() {
			// No local parent but a remote caller: join the caller's trace.
			traceID = tc.TraceID
			remoteParent = tc.ParentID
		}
		t.mu.Lock()
		n = nextSibling(&t.roots, name)
		t.mu.Unlock()
	}
	id := parentID + "/" + name
	if parentID == "" {
		id = name
	}
	if n > 0 {
		id = fmt.Sprintf("%s#%d", id, n+1)
	}
	s := &Span{
		tracer:       t,
		id:           id,
		parent:       parentID,
		name:         name,
		path:         base + name,
		start:        t.clock.Now(),
		traceID:      traceID,
		remoteParent: remoteParent,
		attrs:        map[string]string{},
	}
	return context.WithValue(ctx, spanKey{}, s), s
}

// nextSibling counts one more span named name in *counts, making the
// map on first use, and returns how many came before it. The caller
// holds the lock that guards *counts.
func nextSibling(counts *map[string]int, name string) int {
	if *counts == nil {
		*counts = map[string]int{}
	}
	n := (*counts)[name]
	(*counts)[name] = n + 1
	return n
}

// ID returns the span's unique identifier ("" for a nil span).
func (s *Span) ID() string {
	if s == nil {
		return ""
	}
	return s.id
}

// TraceID returns the trace the span belongs to ("" for a nil span).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.traceID
}

// StartTime returns when the span opened (zero for a nil span).
func (s *Span) StartTime() time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.start
}

// SetAttr records a string attribute.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.attrs[key] = value
}

// SetInt records an integer attribute.
func (s *Span) SetInt(key string, v int) { s.SetAttr(key, fmt.Sprintf("%d", v)) }

// SetError marks the span failed, recording the error message.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.errMsg = err.Error()
}

// End closes the span and hands it to the tracer, which drops its
// oldest finished span if it already holds maxFinished. Ending twice is
// a no-op, so a defer may back up an explicit mid-function End.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.end = s.tracer.clock.Now()
	s.mu.Unlock()
	t := s.tracer
	t.mu.Lock()
	if len(t.finished) < maxFinished {
		t.finished = append(t.finished, s)
	} else { // the oldest is where the ring wraps
		t.finished[t.dropped%maxFinished] = s
		t.dropped++
	}
	t.mu.Unlock()
}

// Duration returns the span's inclusive time; zero while open or for
// a nil span.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		return 0
	}
	return s.end.Sub(s.start)
}

// SpanRecord is one finished span in a Trace snapshot. Times are
// seconds relative to the trace epoch so exports are portable across
// clock choices.
type SpanRecord struct {
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	// TraceID is the cross-process trace this span belongs to;
	// RemoteParent, when set, is the wire-level span ID of the remote
	// caller this span joined (see SpanContextID). Together they let
	// MergeTraces reassemble one trace from per-process snapshots.
	TraceID      string            `json:"trace_id,omitempty"`
	RemoteParent string            `json:"remote_parent,omitempty"`
	Name         string            `json:"name"`
	Path         string            `json:"path"`
	StartS       float64           `json:"start_s"`
	DurS         float64           `json:"dur_s"`
	Error        string            `json:"error,omitempty"`
	Attrs        map[string]string `json:"attrs,omitempty"`
}

// Trace is an immutable snapshot of a tracer: finished spans in
// deterministic order plus the metrics state.
type Trace struct {
	Format string       `json:"format"`
	Spans  []SpanRecord `json:"spans"`
	// Dropped is how many spans ended after the tracer already held its
	// last maxFinished and so are not in Spans: the oldest ones.
	Dropped int             `json:"dropped,omitempty"`
	Metrics MetricsSnapshot `json:"metrics"`
}

// TraceFormat tags the trace interchange version.
const TraceFormat = "benchpark-trace-1"

// Snapshot freezes the tracer's state: every finished span it still
// holds (open spans are excluded — End them first; the oldest beyond
// maxFinished are counted in Dropped), sorted by start time then ID so
// concurrent completions export identically, plus the metrics snapshot.
// Nil-safe: a nil tracer yields an empty trace.
func (t *Tracer) Snapshot() *Trace {
	tr := &Trace{Format: TraceFormat, Spans: []SpanRecord{}}
	if t == nil {
		return tr
	}
	t.mu.Lock()
	spans := append([]*Span(nil), t.finished...)
	tr.Dropped = t.dropped
	t.mu.Unlock()
	for _, s := range spans {
		s.mu.Lock()
		rec := SpanRecord{
			ID:           s.id,
			Parent:       s.parent,
			TraceID:      s.traceID,
			RemoteParent: s.remoteParent,
			Name:         s.name,
			Path:         s.path,
			StartS:       s.start.Sub(t.epoch).Seconds(),
			DurS:         s.end.Sub(s.start).Seconds(),
			Error:        s.errMsg,
		}
		if len(s.attrs) > 0 {
			rec.Attrs = make(map[string]string, len(s.attrs))
			for k, v := range s.attrs {
				rec.Attrs[k] = v
			}
		}
		s.mu.Unlock()
		tr.Spans = append(tr.Spans, rec)
	}
	sort.Slice(tr.Spans, func(i, j int) bool {
		a, b := tr.Spans[i], tr.Spans[j]
		if a.StartS != b.StartS {
			return a.StartS < b.StartS
		}
		return a.ID < b.ID
	})
	tr.Metrics = t.metrics.Snapshot()
	return tr
}
