package resultsd

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/metricsdb"
	"repro/internal/resultstore"
	"repro/internal/telemetry"
)

// newServerAt builds a server whose store and tracer both run on a
// FixedClock at the given epoch — a different epoch than the runner's
// so trace-ID adoption is provable (with equal epochs the native IDs
// would coincide and the join assertions would pass vacuously).
func newServerAt(t *testing.T, epoch int64) *Server {
	t.Helper()
	store, err := resultstore.Open(t.TempDir(), resultstore.Options{
		Clock:               telemetry.FixedClock{T: time.Unix(epoch, 0)},
		NoBackgroundCompact: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return New(store, telemetry.New(telemetry.FixedClock{T: time.Unix(epoch, 0)}))
}

// TestMergedTraceByteIdentical is the tentpole's acceptance test: a
// runner pushes results over real HTTP into a resultsd with its own
// tracer, the two per-process snapshots merge into one distributed
// trace, and two identical runs produce byte-identical merged JSON.
// Along the way it pins every link in the provenance chain: the
// server's request span joins the runner's trace, the WAL commit is a
// child of the request span, and the stored series points carry the
// runner's trace ID.
func TestMergedTraceByteIdentical(t *testing.T) {
	run := func() (runnerTraceID string, points []SeriesPoint, merged string) {
		srv := newServerAt(t, 1800000000)
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()

		runner := telemetry.New(telemetry.FixedClock{T: time.Unix(1700000000, 0)})
		ctx := telemetry.WithTracer(context.Background(), runner)
		c := fastClient(t, ts.URL)

		pctx, span := telemetry.StartSpan(ctx, "push:nightly")
		if _, err := c.Push(pctx, "k-trace", []metricsdb.Result{
			result("saxpy", "cts1", "saxpy_time", 1.0),
		}); err != nil {
			t.Fatal(err)
		}
		span.End()

		pts, err := c.Series(ctx, metricsdb.Filter{Benchmark: "saxpy"}, "saxpy_time")
		if err != nil {
			t.Fatal(err)
		}
		mt, err := telemetry.MergeTraces(runner.Snapshot(), srv.Tracer().Snapshot()).JSON()
		if err != nil {
			t.Fatal(err)
		}
		return runner.TraceID(), pts, mt
	}

	traceID, pts, merged1 := run()
	_, _, merged2 := run()
	if merged1 != merged2 {
		t.Fatalf("merged traces differ between identical runs:\n--- run 1\n%s\n--- run 2\n%s", merged1, merged2)
	}

	// Provenance: the served point names the run that produced it.
	if len(pts) != 1 || pts[0].TraceID != traceID {
		t.Fatalf("series points = %+v, want one point with trace ID %q", pts, traceID)
	}

	// Structure: the server's ingest span joined the runner's trace as
	// a child of the client's rpc span, and committed the WAL inside it.
	var mt telemetry.Trace
	if err := json.Unmarshal([]byte(merged1), &mt); err != nil {
		t.Fatal(err)
	}
	spans := map[string]telemetry.SpanRecord{}
	for _, s := range mt.Spans {
		spans[s.ID] = s
	}
	rpc, ok := spans["push:nightly/rpc:results"]
	if !ok {
		t.Fatalf("runner trace lacks the rpc span; spans: %v", spanIDs(mt.Spans))
	}
	httpSpan, ok := spans["http:results"]
	if !ok {
		t.Fatalf("server trace lacks the request span; spans: %v", spanIDs(mt.Spans))
	}
	if httpSpan.TraceID != traceID {
		t.Fatalf("server span trace ID %q, want runner's %q", httpSpan.TraceID, traceID)
	}
	if want := telemetry.SpanContextID(traceID, rpc.ID); httpSpan.RemoteParent != want {
		t.Fatalf("server span remote parent %q, want %q", httpSpan.RemoteParent, want)
	}
	wal, ok := spans["http:results/wal:commit"]
	if !ok {
		t.Fatalf("server trace lacks the wal:commit span; spans: %v", spanIDs(mt.Spans))
	}
	if wal.TraceID != traceID || wal.Parent != "http:results" {
		t.Fatalf("wal:commit span = %+v, want child of http:results in trace %s", wal, traceID)
	}
}

func spanIDs(spans []telemetry.SpanRecord) []string {
	out := make([]string, len(spans))
	for i, s := range spans {
		out[i] = s.ID
	}
	return out
}

// TestClientRetrySameTraceparentAndKey: a retried push is ONE logical
// operation — every attempt carries the identical traceparent header
// and ingest key, and the client trace holds one rpc span recording
// the attempt count, not a span per attempt.
func TestClientRetrySameTraceparentAndKey(t *testing.T) {
	type attempt struct {
		traceparent string
		ingestKey   string
	}
	var mu sync.Mutex
	var attempts []attempt

	backend := newServerAt(t, 1800000000)
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Error(err)
		}
		var req IngestRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Errorf("bad ingest body: %v", err)
		}
		mu.Lock()
		attempts = append(attempts, attempt{
			traceparent: r.Header.Get(telemetry.TraceparentHeader),
			ingestKey:   req.IngestKey,
		})
		n := len(attempts)
		mu.Unlock()
		if n <= 2 {
			http.Error(w, `{"error":"temporarily overloaded"}`, http.StatusServiceUnavailable)
			return
		}
		r2 := r.Clone(r.Context())
		r2.Body = io.NopCloser(bytes.NewReader(body))
		backend.Handler().ServeHTTP(w, r2)
	}))
	defer flaky.Close()

	runner := telemetry.New(telemetry.FixedClock{T: time.Unix(1700000000, 0)})
	ctx := telemetry.WithTracer(context.Background(), runner)
	ctx, span := telemetry.StartSpan(ctx, "push:nightly")
	c := fastClient(t, flaky.URL)
	resp, err := c.Push(ctx, "k-retry", []metricsdb.Result{result("saxpy", "cts1", "saxpy_time", 1.0)})
	span.End()
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 1 {
		t.Fatalf("Push = %+v", resp)
	}

	mu.Lock()
	got := append([]attempt(nil), attempts...)
	mu.Unlock()
	if len(got) != 3 {
		t.Fatalf("server saw %d attempts, want 3", len(got))
	}
	first := got[0]
	if first.traceparent == "" {
		t.Fatal("first attempt carried no traceparent")
	}
	if first.ingestKey != "k-retry" {
		t.Fatalf("first attempt key %q", first.ingestKey)
	}
	for i, a := range got[1:] {
		if a != first {
			t.Fatalf("attempt %d differs from first: %+v vs %+v", i+2, a, first)
		}
	}

	// One logical span for the whole retried call.
	var rpcSpans []telemetry.SpanRecord
	for _, s := range runner.Snapshot().Spans {
		if s.Name == "rpc:results" {
			rpcSpans = append(rpcSpans, s)
		}
	}
	if len(rpcSpans) != 1 {
		t.Fatalf("runner trace holds %d rpc spans, want 1", len(rpcSpans))
	}
	if got := rpcSpans[0].Attrs["attempts"]; got != "3" {
		t.Fatalf("rpc span attempts = %q, want \"3\"", got)
	}

	// The traceparent the server eventually honored points at the
	// runner's trace; the stored result carries it.
	tc, ok := telemetry.ParseTraceparent(first.traceparent)
	if !ok || tc.TraceID != runner.TraceID() {
		t.Fatalf("traceparent %q does not name the runner trace %q", first.traceparent, runner.TraceID())
	}
	w := get(t, backend.Handler(), "/v1/series?benchmark=saxpy&fom=saxpy_time")
	var sr SeriesResponse
	if err := json.Unmarshal(w.Body.Bytes(), &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Points) != 1 || sr.Points[0].TraceID != runner.TraceID() {
		t.Fatalf("series = %+v, want the runner's trace ID %q", sr.Points, runner.TraceID())
	}
}
