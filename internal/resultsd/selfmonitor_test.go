package resultsd

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/metricsdb"
	"repro/internal/resultstore"
)

// TestSelfMonitorGatesServiceLatency closes the loop the ISSUE calls
// "the service monitors itself": request latencies sampled from
// resultsd's own histograms land in its own store through the normal
// ingest path, and the stock regression detector flags a latency
// spike in the service exactly as it would flag a benchmark
// regression. Latencies are injected straight into the route
// histogram (the server runs a FixedClock, so organically observed
// latencies are all zero).
func TestSelfMonitorGatesServiceLatency(t *testing.T) {
	srv := newServerAt(t, 1700000000)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := fastClient(ts.URL)
	mon := NewSelfMonitor(c, srv, "")
	ctx := context.Background()

	lat := srv.Tracer().Metrics().Histogram(`resultsd_request_seconds{route="results"}`)

	// Six healthy intervals around 10ms, then one pathological one.
	for i := 0; i < 6; i++ {
		lat.Observe(10 * time.Millisecond)
		if err := mon.Sample(ctx); err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
	}
	lat.Observe(10 * time.Second)
	if err := mon.Sample(ctx); err != nil {
		t.Fatal(err)
	}

	filter := metricsdb.Filter{Benchmark: "resultsd", Experiment: "results"}
	pts, err := c.Series(ctx, filter, "latency_mean_s")
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 7 {
		t.Fatalf("selfmonitor series has %d points, want 7: %+v", len(pts), pts)
	}
	for i, p := range pts {
		if p.TraceID == "" {
			t.Fatalf("point %d has no trace provenance: %+v", i, p)
		}
		if i < 6 && p.Value > 0.011 {
			t.Fatalf("baseline point %d = %v, want ~10ms", i, p.Value)
		}
	}
	if last := pts[6].Value; last < 1.0 {
		t.Fatalf("spike sample mean = %v, want >= 1s", last)
	}

	regs, err := c.Regressions(ctx, filter, "latency_mean_s", 4, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || regs[0].Seq != pts[6].Seq {
		t.Fatalf("regression scan = %+v, want exactly the spike sample (seq %d)", regs, pts[6].Seq)
	}
	if regs[0].Ratio < 10 {
		t.Fatalf("spike ratio = %v, want a blowout", regs[0].Ratio)
	}

	// The store gauges ride along under the "store" experiment.
	stpts, err := c.Series(ctx, metricsdb.Filter{Benchmark: "resultsd", Experiment: "store"}, "ingest_batches")
	if err != nil {
		t.Fatal(err)
	}
	if len(stpts) != 7 {
		t.Fatalf("store-experiment series has %d points, want 7", len(stpts))
	}
}

// TestSelfMonitorKeysAreIdempotent: re-pushing a sample's exact batch
// under its key is a duplicate, not a double count.
func TestSelfMonitorKeysAreIdempotent(t *testing.T) {
	srv := newServerAt(t, 1700000000)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := fastClient(ts.URL)
	mon := NewSelfMonitor(c, srv, "cts1")
	if err := mon.Sample(context.Background()); err != nil {
		t.Fatal(err)
	}
	key := "selfmonitor-cts1-" + srv.Tracer().TraceID() + "-1"
	if !srv.store.(*resultstore.Store).HasKey(key) {
		t.Fatalf("store lacks the expected selfmonitor key %q", key)
	}
	resp, err := c.Push(context.Background(), key, []metricsdb.Result{result("resultsd", "cts1", "x", 1)})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Duplicate {
		t.Fatalf("replayed selfmonitor key was not a duplicate: %+v", resp)
	}
}
