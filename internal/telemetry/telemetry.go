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
	"sort"
	"strconv"
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
// one it ever served. The ring holds records, not spans: a kept span
// is a keptSpan value plus its ID and attribute strings, 224 B for a
// resultsd GET, so a full ring of those takes 0.92 MB. The largest
// trace any test or example run exports holds 59 spans.
const maxFinished = 4096

// ringChunk is how many kept spans one allocation of the ring holds. The
// ring is allocated as it fills, 18 KB at a time (a size class of its
// own, so nothing is rounded up), and never copied: a short run's tracer
// takes one chunk, a server's all 32.
const ringChunk = 128

// Tracer collects finished spans and owns the run's metrics registry.
// It is safe for concurrent use: the engine's worker pool opens and
// closes experiment spans from many goroutines.
type Tracer struct {
	clock   Clock
	epoch   time.Time
	traceID string
	metrics *Registry

	mu       sync.Mutex
	ring     [maxFinished / ringChunk]*[ringChunk]keptSpan // the last maxFinished spans to end
	endCount int                                           // spans ended; the i-th is at ring index i%maxFinished
	roots    []siblingCount                                // root spans opened per name; a child's count is on its parent
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
// for every method. An open Span is bookkeeping: End copies its
// keptSpan into the tracer's ring (144 B plus the strings it points to,
// 224 B for a resultsd GET) and the Span itself becomes garbage with the
// request that opened it. Attributes and errors set after End are not
// exported.
type Span struct {
	tracer *Tracer
	start  time.Time

	// The keptSpan's names and trace are fixed at StartSpan; mu guards
	// its times, error and attributes.
	mu sync.Mutex
	keptSpan
	ended    bool
	children []siblingCount // child spans opened per name
}

// keptSpan is what a tracer keeps of a span once it ends: the fields
// Snapshot exports, by value, 144 B on a 64-bit machine.
type keptSpan struct {
	id     string
	parent string
	path   string
	nameAt int // the span's name is path[nameAt:]
	// traceID and remoteParent are fixed at StartSpan: the trace the
	// span belongs to (inherited from the parent span, adopted from a
	// WithRemote caller, or the tracer's own) and, for a span joining
	// a remote caller's trace, the caller's wire-level span ID.
	traceID      string
	remoteParent string
	sinceEpoch   time.Duration // when the span opened; set at End
	dur          time.Duration // set at End
	errMsg       string
	attrs        []attr // in the order first set; a key set again is overwritten
}

// attr is one span attribute. A span carries a handful, so a slice
// searched in order costs less than a map.
type attr struct{ key, value string }

// siblingCount is how many spans named name one parent (or the tracer,
// for root spans) has opened. A parent has few distinct child names, so
// a slice searched in order costs less than a map.
type siblingCount struct {
	name string
	n    int
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
	s := &Span{tracer: t}
	s.traceID = t.traceID
	n := 0
	p := Current(ctx)
	if p != nil {
		s.parent = p.id
		if p.traceID != "" {
			s.traceID = p.traceID
		}
		p.mu.Lock()
		n = nextSibling(&p.children, name)
		p.mu.Unlock()
	} else {
		if tc, ok := RemoteFromContext(ctx); ok && tc.Valid() {
			// No local parent but a remote caller: join the caller's trace.
			s.traceID = tc.TraceID
			s.remoteParent = tc.ParentID
		}
		t.mu.Lock()
		n = nextSibling(&t.roots, name)
		t.mu.Unlock()
	}
	suffix := ""
	if n > 0 {
		suffix = "#" + strconv.Itoa(n+1)
	}
	if p == nil {
		s.id, s.path = name+suffix, name
	} else {
		s.id, s.path = p.id+"/"+name+suffix, p.path+"/"+name
	}
	s.nameAt = len(s.path) - len(name)
	s.start = t.clock.Now()
	return context.WithValue(ctx, spanKey{}, s), s
}

// nextSibling counts one more span named name in *counts and returns
// how many came before it. The caller holds the lock that guards
// *counts.
func nextSibling(counts *[]siblingCount, name string) int {
	for i := range *counts {
		if c := &(*counts)[i]; c.name == name {
			c.n++
			return c.n - 1
		}
	}
	*counts = append(*counts, siblingCount{name: name, n: 1})
	return 0
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

// SetAttr records a string attribute; setting a key again replaces its
// value. A no-op once the span has ended.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	for i := range s.attrs {
		if s.attrs[i].key == key {
			s.attrs[i].value = value
			return
		}
	}
	s.attrs = append(s.attrs, attr{key: key, value: value})
}

// SetInt records an integer attribute in decimal.
func (s *Span) SetInt(key string, v int) {
	if s == nil {
		return
	}
	s.SetAttr(key, strconv.Itoa(v))
}

// SetError marks the span failed, recording the error message. A no-op
// once the span has ended.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		s.errMsg = err.Error()
	}
}

// End closes the span and copies its record into the tracer, which
// drops its oldest finished span if it already holds maxFinished.
// Ending twice is a no-op, so a defer may back up an explicit
// mid-function End.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.tracer
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.sinceEpoch = s.start.Sub(t.epoch)
	s.dur = t.clock.Now().Sub(s.start)
	kept := s.keptSpan // the attrs' array is never written again: SetAttr stops at ended
	s.mu.Unlock()
	t.mu.Lock()
	i := t.endCount % maxFinished // once the ring is full, the oldest span's place
	chunk := t.ring[i/ringChunk]
	if chunk == nil {
		chunk = new([ringChunk]keptSpan)
		t.ring[i/ringChunk] = chunk
	}
	chunk[i%ringChunk] = kept
	t.endCount++
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
	return s.dur // zero until End sets it
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
	kept := make([]keptSpan, min(t.endCount, maxFinished))
	for c := 0; c*ringChunk < len(kept); c++ {
		copy(kept[c*ringChunk:], t.ring[c][:])
	}
	tr.Dropped = t.endCount - len(kept)
	t.mu.Unlock()
	tr.Spans = make([]SpanRecord, 0, len(kept))
	for _, k := range kept {
		rec := SpanRecord{
			ID:           k.id,
			Parent:       k.parent,
			TraceID:      k.traceID,
			RemoteParent: k.remoteParent,
			Name:         k.path[k.nameAt:],
			Path:         k.path,
			StartS:       k.sinceEpoch.Seconds(),
			DurS:         k.dur.Seconds(),
			Error:        k.errMsg,
		}
		if len(k.attrs) > 0 {
			rec.Attrs = make(map[string]string, len(k.attrs))
			for _, a := range k.attrs {
				rec.Attrs[a.key] = a.value
			}
		}
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
