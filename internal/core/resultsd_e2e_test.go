package core

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/ci"
	"repro/internal/metricsdb"
	"repro/internal/resultsd"
	"repro/internal/resultstore"
	"repro/internal/telemetry"
)

// startResultsd spins up the full federation stack in-process: a
// durable store on a temp dir behind a real HTTP server.
func startResultsd(t *testing.T) (*resultstore.Store, *httptest.Server) {
	t.Helper()
	store, err := resultstore.Open(t.TempDir(), resultstore.Options{
		Clock:               telemetry.FixedClock{T: time.Unix(1700000000, 0)},
		NoBackgroundCompact: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	ts := httptest.NewServer(resultsd.New(store, telemetry.New(telemetry.FixedClock{T: time.Unix(1700000000, 0)})).Handler())
	t.Cleanup(ts.Close)
	return store, ts
}

// TestPipelinePushesToResultsd is the end-to-end acceptance path for
// the federation service: nightly CI pipelines run real benchmark
// sessions and push every job's engine report over HTTP into the
// results service, where the series and regression scans are then
// observable through the query API — the complete Figure 6 loop with
// the shared metrics database as an actual network service.
func TestPipelinePushesToResultsd(t *testing.T) {
	store, ts := startResultsd(t)
	bp := New()
	auto, err := NewAutomation(bp, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	auto.Results = resultsd.NewClient(ts.URL)

	for night := 0; night < 2; night++ {
		p, err := auto.RunNightly(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if p.Status() != ci.JobSuccess {
			for _, j := range p.Jobs {
				t.Logf("%s: %s\n%s", j.Name, j.Status, j.Log)
			}
			t.Fatalf("night %d pipeline: %v", night, p.Status())
		}
	}

	client := resultsd.NewClient(ts.URL)
	ctx := context.Background()
	// Both sites' runners pushed: the server knows both systems.
	systems, err := client.Systems(ctx)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, s := range systems {
		seen[s] = true
	}
	if !seen["cts1"] || !seen["cloud-c5n"] {
		t.Fatalf("server systems = %v, want cts1 and cloud-c5n", systems)
	}
	// One sample per night accrued for a fixed experiment, even though
	// the deterministic benchmark produced identical content both
	// nights — the push-sequence component of the ingest key keeps
	// nightly batches distinct.
	pts, err := client.Series(ctx, metricsdb.Filter{
		Benchmark: "saxpy", System: "cts1", Experiment: "saxpy_openmp_512_1_8_2",
	}, "saxpy_time")
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("nightly series has %d points, want 2: %+v", len(pts), pts)
	}
	if pts[0].Value != pts[1].Value {
		t.Errorf("deterministic benchmark pushed differing values: %+v", pts)
	}
	// The job logs show the push happened inside the CI job.
	audit := auto.GitLab.Audit()
	if len(audit) == 0 {
		t.Fatal("no CI jobs ran")
	}
	// Everything the store holds arrived via the WAL: reopenability is
	// covered by resultstore's own tests, here we just sanity-check
	// the store saw all pushes (2 nights x 2 jobs x 8 experiments).
	if store.Len() != 32 {
		t.Fatalf("store holds %d results, want 32", store.Len())
	}
}

// TestPipelineTraceProvenanceEndToEnd runs the whole federation loop
// under distributed tracing: a traced nightly pipeline pushes its
// results into a resultsd with its OWN tracer on a different epoch,
// and afterwards (a) the pipeline's trace ID is queryable as the
// provenance of every stored point, and (b) the runner and server
// snapshots merge into one trace that is byte-identical across two
// identical runs — the CI-scale version of resultsd's
// TestMergedTraceByteIdentical.
func TestPipelineTraceProvenanceEndToEnd(t *testing.T) {
	run := func() (pipelineTraceID string, pts []resultsd.SeriesPoint, merged string) {
		store, err := resultstore.Open(t.TempDir(), resultstore.Options{
			Clock:               telemetry.FixedClock{T: time.Unix(1800000000, 0)},
			NoBackgroundCompact: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { store.Close() })
		srvTracer := telemetry.New(telemetry.FixedClock{T: time.Unix(1800000000, 0)})
		ts := httptest.NewServer(resultsd.New(store, srvTracer).Handler())
		defer ts.Close()

		bp := New()
		auto, err := NewAutomation(bp, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		auto.Results = resultsd.NewClient(ts.URL)

		runner := telemetry.New(telemetry.FixedClock{T: time.Unix(1700000000, 0)})
		ctx := telemetry.WithTracer(context.Background(), runner)
		p, err := auto.RunNightly(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if p.Status() != ci.JobSuccess {
			t.Fatalf("pipeline: %v", p.Status())
		}
		if p.TraceID != runner.TraceID() {
			t.Fatalf("pipeline trace ID %q, want the runner tracer's %q", p.TraceID, runner.TraceID())
		}

		client := resultsd.NewClient(ts.URL)
		pts, err = client.Series(context.Background(), metricsdb.Filter{
			Benchmark: "saxpy", System: "cts1", Experiment: "saxpy_openmp_512_1_8_2",
		}, "saxpy_time")
		if err != nil {
			t.Fatal(err)
		}
		mt, err := telemetry.MergeTraces(runner.Snapshot(), srvTracer.Snapshot()).JSON()
		if err != nil {
			t.Fatal(err)
		}
		return p.TraceID, pts, mt
	}

	id1, pts1, merged1 := run()
	id2, _, merged2 := run()
	if id1 != id2 {
		t.Fatalf("pipeline trace IDs differ across identical runs: %q vs %q", id1, id2)
	}
	if len(pts1) == 0 {
		t.Fatal("no stored points")
	}
	for i, p := range pts1 {
		if p.TraceID != id1 {
			t.Fatalf("point %d provenance %q, want pipeline trace %q", i, p.TraceID, id1)
		}
	}
	if merged1 != merged2 {
		t.Fatalf("merged traces differ across identical runs:\n--- run 1\n%.2000s\n--- run 2\n%.2000s", merged1, merged2)
	}
}

// TestResultsdObservesInjectedRegression pushes a crafted slowdown
// into the service next to healthy CI data and observes it through
// GET /v1/regressions — the regression-tracking workflow of Section 1
// running over the network API.
func TestResultsdObservesInjectedRegression(t *testing.T) {
	_, ts := startResultsd(t)
	client := resultsd.NewClient(ts.URL)
	ctx := context.Background()
	// A synthetic nightly history: stable, then a 2x slowdown.
	for i, v := range []float64{1.0, 1.01, 0.99, 1.02, 2.05} {
		_, err := client.Push(ctx, fmt.Sprintf("synthetic-%d", i), []metricsdb.Result{{
			Benchmark:  "lulesh",
			Workload:   "problem",
			System:     "cts1",
			Experiment: "lulesh_p30",
			FOMs:       map[string]float64{"fom": v},
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	regs, err := client.Regressions(ctx, metricsdb.Filter{
		Benchmark: "lulesh", System: "cts1",
	}, "fom", 4, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 {
		t.Fatalf("regressions = %+v, want exactly the injected spike", regs)
	}
	if regs[0].Value != 2.05 || regs[0].Ratio < 1.9 {
		t.Fatalf("flagged sample = %+v", regs[0])
	}
}

// TestPushResultsIdempotency: a retried push with the same ingest key
// is acknowledged as a duplicate and does not double-store.
func TestPushResultsIdempotency(t *testing.T) {
	store, ts := startResultsd(t)
	client := resultsd.NewClient(ts.URL)
	ctx := context.Background()
	batch := []metricsdb.Result{{
		Benchmark: "saxpy", System: "cts1", Experiment: "e1",
		FOMs: map[string]float64{"saxpy_time": 1.0},
	}}
	first, err := client.Push(ctx, "retry-key", batch)
	if err != nil {
		t.Fatal(err)
	}
	second, err := client.Push(ctx, "retry-key", batch)
	if err != nil {
		t.Fatal(err)
	}
	if first.Duplicate || !second.Duplicate {
		t.Fatalf("first=%+v second=%+v", first, second)
	}
	if store.Len() != 1 {
		t.Fatalf("store holds %d results, want 1", store.Len())
	}
}

// TestPushFailureFailsJob: when the results endpoint is down, the CI
// job fails — a run whose results never reached the shared store did
// not complete its continuous-benchmarking duty.
func TestPushFailureFailsJob(t *testing.T) {
	bp := New()
	auto, err := NewAutomation(bp, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	dead := httptest.NewServer(nil)
	dead.Close()
	c := resultsd.NewClient(dead.URL)
	c.MaxRetries = 1
	auto.Results = c
	p, err := auto.RunNightly(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if p.Status() != ci.JobFailed {
		t.Fatalf("pipeline with unreachable results service: %v, want failed", p.Status())
	}
}

// TestIngestKeyDerivation pins the shape and determinism of ingest
// keys: same inputs, same key; any component changing changes it; and
// both callers' keys for one fixed result set are the literals the
// parent of the Session.Push merge derived (it hashed json.Marshal
// output), so a retry across an upgrade still dedups against a batch an
// older binary pushed.
func TestIngestKeyDerivation(t *testing.T) {
	rs := []metricsdb.Result{
		{Benchmark: "saxpy", Workload: "problem", System: "cts1", Experiment: "saxpy_openmp_512_1_8_2",
			FOMs:     map[string]float64{"saxpy_time": 0.000123, "fom": 1e21},
			Meta:     map[string]string{"n_nodes": "1", "n_ranks": "8", "n_threads": "2"},
			Manifest: "system: cts1\nsuite: saxpy/openmp\nroot: saxpy@1.0.0 <&>\n", TraceID: "4bf92f3577b34da6a3ce929d0e0e4736"},
		{Benchmark: "b", System: "s", FOMs: map[string]float64{"t": 1}},
	}
	key := func(prefix, salt string) string {
		t.Helper()
		k, err := ingestKey(prefix, salt, rs)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	// As jobExecutor and `benchpark push` build prefix and salt.
	ci := key("bench-cts1-3", "bench-cts1|saxpy/openmp@cts1|3|")
	if want := "bench-cts1-3-91f6260fb9a531a5"; ci != want {
		t.Errorf("CI key = %q, want the recorded %q", ci, want)
	}
	if got, want := key("cli-saxpy/openmp-cts1", ""), "cli-saxpy/openmp-cts1-4977770c5f7ca43a"; got != want {
		t.Errorf("CLI key = %q, want the recorded %q", got, want)
	}
	if again := key("bench-cts1-3", "bench-cts1|saxpy/openmp@cts1|3|"); again != ci {
		t.Fatalf("same inputs gave %q and %q", ci, again)
	}
	if next := key("bench-cts1-4", "bench-cts1|saxpy/openmp@cts1|4|"); next[len("bench-cts1-4"):] == ci[len("bench-cts1-3"):] {
		t.Fatal("different push sequences must hash differently")
	}
}
