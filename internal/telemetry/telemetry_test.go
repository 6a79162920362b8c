package telemetry

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
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
	s.End()
	if s.ID() != "" || s.Duration() != 0 || !s.StartTime().IsZero() {
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

	if root.ID() != "run" {
		t.Fatalf("root id: %q", root.ID())
	}
	if c1.ID() != "run/stage" {
		t.Fatalf("first sibling id: %q", c1.ID())
	}
	if c2.ID() != "run/stage#2" || c3.ID() != "run/stage#3" {
		t.Fatalf("repeated sibling ids: %q %q", c2.ID(), c3.ID())
	}
	if g.ID() != "run/stage/exp" {
		t.Fatalf("grandchild id: %q", g.ID())
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
	for id, want := range map[string]string{"run": "run", "run/stage#2": "run/stage", "run/stage#3": "run/stage", "run/stage/exp": "run/stage/exp"} {
		if got := byID[id].Path; got != want {
			t.Fatalf("span %s path %q, want %q (repeated siblings share the region path)", id, got, want)
		}
	}
}

// TestTracerKeepsItsLastSpans: a tracer holds its last maxFinished
// finished spans. Past that, each span that ends pushes out the oldest,
// the trace says how many went, and merging traces adds those counts; a
// trace that lost nothing does not mention it. A child's sibling count
// lives on its parent, so a tracer serving many requests keeps one count
// per root name.
func TestTracerKeepsItsLastSpans(t *testing.T) {
	tr := New(FixedClock{T: epoch})
	ctx := WithTracer(context.Background(), tr)
	const requests = maxFinished/2 + 10 // each a root and one child
	for i := 0; i < requests; i++ {
		rctx, root := StartSpan(ctx, "http:results")
		_, child := StartSpan(rctx, "wal:commit")
		if want := fmt.Sprintf("http:results#%d/wal:commit", i+1); i > 0 && child.ID() != want {
			t.Fatalf("child of request %d is %q, want %q", i, child.ID(), want)
		}
		child.End()
		root.End()
	}
	if len(tr.roots) != 1 {
		t.Fatalf("the tracer counts siblings under %d names, want 1 root name", len(tr.roots))
	}
	snap := tr.Snapshot()
	if len(snap.Spans) != maxFinished || snap.Dropped != 2*requests-maxFinished {
		t.Fatalf("trace holds %d spans and drops %d, want %d and %d", len(snap.Spans), snap.Dropped, maxFinished, 2*requests-maxFinished)
	}
	kept := map[string]bool{}
	for _, s := range snap.Spans {
		kept[s.ID] = true
	}
	// The first ten requests' spans went; the eleventh request's are the
	// oldest kept.
	for id, want := range map[string]bool{"http:results": false, "http:results#10/wal:commit": false,
		"http:results#11/wal:commit": true, "http:results#11": true, fmt.Sprintf("http:results#%d", requests): true} {
		if kept[id] != want {
			t.Errorf("span %s kept: %v, want %v", id, kept[id], want)
		}
	}
	js, err := snap.JSON()
	if err != nil || !strings.Contains(js, fmt.Sprintf(`"dropped": %d`, snap.Dropped)) {
		t.Fatalf("exported trace does not say it dropped %d spans (%v)", snap.Dropped, err)
	}
	if merged := MergeTraces(snap, snap); merged.Dropped != 2*snap.Dropped {
		t.Fatalf("merged trace drops %d, want %d", merged.Dropped, 2*snap.Dropped)
	}
	if js, _ := New(FixedClock{T: epoch}).Snapshot().JSON(); strings.Contains(js, "dropped") {
		t.Fatalf("a trace that dropped nothing mentions it:\n%s", js)
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

// TestSpanErrorAttrsEvents exports a trace and checks every field of
// every record: IDs, parents, trace, name and path, times, error and
// attributes. A key set twice keeps its last value, an integer reads as
// %d prints it, and a child of a repeated sibling is named by the
// sibling's ID but keeps the shared region path.
func TestSpanErrorAttrsEvents(t *testing.T) {
	tr := New(NewStepClock(epoch, time.Second)) // the epoch takes the first tick
	ctx := WithTracer(context.Background(), tr)
	_, first := StartSpan(ctx, "req") // +1s
	first.SetAttr("method", "GET")
	first.End()                          // +2s
	rctx, again := StartSpan(ctx, "req") // +3s
	_, s := StartSpan(rctx, "step")      // +4s
	s.SetAttr("k", "a")
	s.SetInt("zero", 0)
	s.SetInt("neg", -42)
	s.SetInt("max", math.MaxInt)
	s.SetInt("min", math.MinInt)
	s.SetAttr("k", "b")
	s.SetError(nil) // nil error must not mark the span failed
	s.SetError(errors.New("boom"))
	s.End()     // +5s
	again.End() // +6s
	if len(s.attrs) != 5 {
		t.Errorf("the span keeps %d attributes for 5 keys: a key set again must replace its value", len(s.attrs))
	}
	remote := TraceContext{TraceID: "4bf92f3577b34da6a3ce929d0e0e4736", ParentID: "00f067aa0ba902b7"}
	_, joined := StartSpan(WithRemote(ctx, remote), "joined") // +7s
	joined.End()                                              // +8s

	own := tr.TraceID()
	want := []SpanRecord{
		{ID: "req", TraceID: own, Name: "req", Path: "req", StartS: 1, DurS: 1, Attrs: map[string]string{"method": "GET"}},
		{ID: "req#2", TraceID: own, Name: "req", Path: "req", StartS: 3, DurS: 3},
		{ID: "req#2/step", Parent: "req#2", TraceID: own, Name: "step", Path: "req/step", StartS: 4, DurS: 1, Error: "boom",
			Attrs: map[string]string{"k": "b", "zero": "0", "neg": "-42",
				"max": fmt.Sprintf("%d", math.MaxInt), "min": fmt.Sprintf("%d", math.MinInt)}},
		{ID: "joined", TraceID: remote.TraceID, RemoteParent: remote.ParentID, Name: "joined", Path: "joined", StartS: 7, DurS: 1},
	}
	got := tr.Snapshot().Spans
	if len(got) != len(want) {
		t.Fatalf("exported %d spans, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("span %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// TestSetAfterEndIsNotExported: End copies a span's record into the
// tracer, so an attribute or error set on the span afterwards is not
// exported, and the record already kept does not change.
func TestSetAfterEndIsNotExported(t *testing.T) {
	tr := New(FixedClock{T: epoch})
	ctx := WithTracer(context.Background(), tr)
	_, s := StartSpan(ctx, "a")
	s.SetAttr("k", "v")
	s.End()
	s.SetAttr("k", "late")
	s.SetAttr("new", "late")
	s.SetInt("n", 1)
	s.SetError(errors.New("late"))
	rec := tr.Snapshot().Spans[0]
	if rec.Error != "" || !reflect.DeepEqual(rec.Attrs, map[string]string{"k": "v"}) {
		t.Fatalf("a span changed after End exports error %q and attrs %v, want none and k=v", rec.Error, rec.Attrs)
	}
}

// TestConcurrentSiblingsNumberOnce: 8 goroutines start and end children
// of one parent while Snapshot runs; each child gets its own "#n", and
// every snapshot taken meanwhile exports whole records.
func TestConcurrentSiblingsNumberOnce(t *testing.T) {
	tr := New(FixedClock{T: epoch})
	ctx := WithTracer(context.Background(), tr)
	pctx, parent := StartSpan(ctx, "parent")
	const workers, each = 8, 50
	stop, snapped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(snapped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, s := range tr.Snapshot().Spans {
				if s.Name != "child" || s.Path != "parent/child" || s.Parent != "parent" || s.Attrs["worker"] == "" {
					t.Errorf("a snapshot taken while children end exports %+v", s)
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				_, c := StartSpan(pctx, "child")
				c.SetInt("worker", w)
				c.End()
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-snapped
	parent.End()
	ids := map[string]bool{}
	for _, s := range tr.Snapshot().Spans {
		ids[s.ID] = true
	}
	if len(ids) != workers*each+1 || !ids["parent/child"] {
		t.Fatalf("%d distinct span IDs, want %d with parent/child among them", len(ids), workers*each+1)
	}
	for n := 2; n <= workers*each; n++ {
		if id := fmt.Sprintf("parent/child#%d", n); !ids[id] {
			t.Fatalf("no child numbered %s", id)
		}
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
			s.SetAttr("k", "v")
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
