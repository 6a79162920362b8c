package telemetry

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func TestNilSafety(t *testing.T) {
	ctx := context.Background()
	sctx, s := StartSpan(ctx, "root")
	if s != nil {
		t.Fatal("StartSpan without a tracer must return a nil span")
	}
	if sctx != ctx {
		t.Fatal("StartSpan without a tracer must return ctx unchanged")
	}
	// Every method is a no-op on the nil receiver.
	s.SetAttr("k", "v")
	s.SetInt("n", 1)
	s.SetError(errors.New("boom"))
	s.AddEvent("e", "k", "v")
	s.End()
	if s.ID() != "" || s.Path() != "" || s.Duration() != 0 || !s.StartTime().IsZero() {
		t.Fatal("nil span accessors must return zero values")
	}

	var tr *Tracer
	if tr.Metrics() != nil {
		t.Fatal("nil tracer must yield a nil registry")
	}
	if got := tr.Snapshot(); got == nil || len(got.Spans) != 0 {
		t.Fatal("nil tracer snapshot must be empty, not nil")
	}

	var reg *Registry
	reg.Counter("c").Inc()
	reg.Gauge("g").Set(1)
	reg.Histogram("h").Observe(time.Second)
	if snap := reg.Snapshot(); len(snap.Counters) != 0 {
		t.Fatal("nil registry must drop observations")
	}
}

func TestSpanHierarchyAndSiblingIDs(t *testing.T) {
	tr := New(FixedClock{T: epoch})
	ctx := WithTracer(context.Background(), tr)

	rctx, root := StartSpan(ctx, "run")
	c1ctx, c1 := StartSpan(rctx, "stage")
	_, g := StartSpan(c1ctx, "exp")
	g.End()
	c1.End()
	_, c2 := StartSpan(rctx, "stage")
	c2.End()
	_, c3 := StartSpan(rctx, "stage")
	c3.End()
	root.End()

	if root.ID() != "run" || root.Path() != "run" {
		t.Fatalf("root id/path: %q %q", root.ID(), root.Path())
	}
	if c1.ID() != "run/stage" {
		t.Fatalf("first sibling id: %q", c1.ID())
	}
	if c2.ID() != "run/stage#2" || c3.ID() != "run/stage#3" {
		t.Fatalf("repeated sibling ids: %q %q", c2.ID(), c3.ID())
	}
	if c2.Path() != "run/stage" || c3.Path() != "run/stage" {
		t.Fatal("repeated siblings must share the region path")
	}
	if g.ID() != "run/stage/exp" || g.Path() != "run/stage/exp" {
		t.Fatalf("grandchild id/path: %q %q", g.ID(), g.Path())
	}

	snap := tr.Snapshot()
	if len(snap.Spans) != 5 {
		t.Fatalf("want 5 finished spans, got %d", len(snap.Spans))
	}
	byID := map[string]SpanRecord{}
	for _, s := range snap.Spans {
		byID[s.ID] = s
	}
	if byID["run/stage/exp"].Parent != "run/stage" {
		t.Fatalf("grandchild parent: %q", byID["run/stage/exp"].Parent)
	}
}

func TestCurrentAndFromContext(t *testing.T) {
	tr := New(FixedClock{T: epoch})
	ctx := WithTracer(context.Background(), tr)
	if Current(ctx) != nil {
		t.Fatal("no span open yet")
	}
	sctx, s := StartSpan(ctx, "a")
	if Current(sctx) != s {
		t.Fatal("Current must return the innermost open span")
	}
	if FromContext(sctx) != tr {
		t.Fatal("tracer must survive span derivation")
	}
	s.End()
}

func TestEndIdempotentAndOpenSpansExcluded(t *testing.T) {
	clock := NewStepClock(epoch, time.Second)
	tr := New(clock)
	ctx := WithTracer(context.Background(), tr)
	_, a := StartSpan(ctx, "a")
	a.End()
	d := a.Duration()
	a.End() // no-op: duration must not change, span not re-recorded
	if a.Duration() != d {
		t.Fatal("second End changed the duration")
	}
	_, open := StartSpan(ctx, "open")
	if open.Duration() != 0 {
		t.Fatal("open span must report zero duration")
	}
	snap := tr.Snapshot()
	if len(snap.Spans) != 1 {
		t.Fatalf("want only the ended span in the snapshot, got %d", len(snap.Spans))
	}
	open.End()
}

func TestStepClockDurations(t *testing.T) {
	clock := NewStepClock(epoch, time.Second)
	tr := New(clock) // epoch consumes one tick
	ctx := WithTracer(context.Background(), tr)
	_, s := StartSpan(ctx, "a") // start at +1s
	s.End()                     // end at +2s
	if got := s.Duration(); got != time.Second {
		t.Fatalf("step-clock duration: %v", got)
	}
	snap := tr.Snapshot()
	if snap.Spans[0].StartS != 1 || snap.Spans[0].DurS != 1 {
		t.Fatalf("span record times: start=%v dur=%v", snap.Spans[0].StartS, snap.Spans[0].DurS)
	}
}

func TestSpanErrorAttrsEvents(t *testing.T) {
	tr := New(FixedClock{T: epoch})
	ctx := WithTracer(context.Background(), tr)
	_, s := StartSpan(ctx, "a")
	s.SetAttr("k", "v")
	s.SetInt("n", 7)
	s.SetError(nil) // nil error must not mark the span failed
	s.AddEvent("checkpoint", "phase", "mid", "odd")
	s.SetError(errors.New("boom"))
	s.End()
	rec := tr.Snapshot().Spans[0]
	if rec.Error != "boom" {
		t.Fatalf("span error: %q", rec.Error)
	}
	if rec.Attrs["k"] != "v" || rec.Attrs["n"] != "7" {
		t.Fatalf("span attrs: %v", rec.Attrs)
	}
	if len(rec.Events) != 1 || rec.Events[0].Name != "checkpoint" {
		t.Fatalf("span events: %v", rec.Events)
	}
	if rec.Events[0].Attrs["phase"] != "mid" || rec.Events[0].Attrs["odd"] != "" {
		t.Fatalf("event attrs (odd trailing key): %v", rec.Events[0].Attrs)
	}
}

// Two identical concurrent runs under a FixedClock must export
// byte-identical JSON, whatever the goroutine interleaving.
func TestFixedClockByteIdenticalTraceJSON(t *testing.T) {
	run := func() string {
		tr := New(FixedClock{T: epoch})
		ctx := WithTracer(context.Background(), tr)
		rctx, root := StartSpan(ctx, "run")
		var wg sync.WaitGroup
		for i := 0; i < 16; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, s := StartSpan(rctx, fmt.Sprintf("exp_%02d", i))
				s.SetInt("i", i)
				tr.Metrics().Counter("done_total").Inc()
				tr.Metrics().Histogram("lat_seconds").Observe(0)
				s.End()
			}(i)
		}
		wg.Wait()
		root.End()
		out, err := tr.Snapshot().JSON()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("traces differ:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
}

func TestMetricsSnapshot(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total")
	c.Inc()
	c.Add(2)
	c.Add(-5) // ignored: counters are monotonic
	g := r.Gauge("g")
	g.Set(10)
	g.Add(-3)
	h := r.Histogram("h_seconds", time.Second, 10*time.Second)
	for _, d := range []time.Duration{500 * time.Millisecond, 5 * time.Second, 50 * time.Second} {
		h.Observe(d)
	}

	snap := r.Snapshot()
	if snap.Counters["c_total"] != 3 {
		t.Fatalf("counter: %v", snap.Counters["c_total"])
	}
	if snap.Gauges["g"] != 7 {
		t.Fatalf("gauge: %v", snap.Gauges["g"])
	}
	hs := snap.Histograms["h_seconds"]
	if hs.Count != 3 || hs.Sum != 55.5 {
		t.Fatalf("histogram count/sum: %d %v", hs.Count, hs.Sum)
	}
	// Buckets are cumulative; the 50 observation only shows in Count.
	want := []Bucket{{LE: 1, Count: 1}, {LE: 10, Count: 2}}
	if len(hs.Buckets) != len(want) || hs.Buckets[0] != want[0] || hs.Buckets[1] != want[1] {
		t.Fatalf("buckets: %+v", hs.Buckets)
	}
}

func TestHistogramDefaultsAndFixedBounds(t *testing.T) {
	r := NewRegistry()
	r.Histogram("h").Observe(3 * time.Millisecond)
	// Re-registering with different bounds reuses the original.
	r.Histogram("h", 1000*time.Second).Observe(3 * time.Millisecond)
	hs := r.Snapshot().Histograms["h"]
	if len(hs.Buckets) != len(DefaultLatencyBuckets) {
		t.Fatalf("want default buckets, got %d", len(hs.Buckets))
	}
	if hs.Count != 2 {
		t.Fatalf("count: %d", hs.Count)
	}
}

func TestConcurrentMetricsAndSpans(t *testing.T) {
	tr := New(FixedClock{T: epoch})
	ctx := WithTracer(context.Background(), tr)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, s := StartSpan(ctx, "w")
			tr.Metrics().Counter("n_total").Inc()
			tr.Metrics().Gauge("g").Add(1)
			tr.Metrics().Histogram("h").Observe(time.Second)
			s.AddEvent("tick")
			s.End()
		}()
	}
	wg.Wait()
	snap := tr.Snapshot()
	if len(snap.Spans) != 32 {
		t.Fatalf("spans: %d", len(snap.Spans))
	}
	if snap.Metrics.Counters["n_total"] != 32 {
		t.Fatalf("counter: %v", snap.Metrics.Counters["n_total"])
	}
}
