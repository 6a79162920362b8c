package resultsd

import (
	"encoding/json"
	"net/http"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/metricsdb"
	"repro/internal/resultstore"
	"repro/internal/telemetry"
)

// newOpsStore opens a store for a server under test; it closes with
// the test.
func newOpsStore(t *testing.T) *resultstore.Store {
	t.Helper()
	store, err := resultstore.Open(t.TempDir(), resultstore.Options{
		NoBackgroundCompact: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return store
}

// TestOpsEndpoints drives the same traffic through a tracer-backed
// server and one built with a nil tracer (which counts into a private
// registry): both must report it identically on /metrics and
// /debug/ops.
func TestOpsEndpoints(t *testing.T) {
	for name, tracer := range map[string]*telemetry.Tracer{
		"tracer":     telemetry.New(telemetry.FixedClock{T: time.Unix(1700000000, 0)}),
		"nil tracer": nil,
	} {
		t.Run(name, func(t *testing.T) {
			testOpsEndpoints(t, New(newOpsStore(t), tracer).Handler())
		})
	}
}

func testOpsEndpoints(t *testing.T, h http.Handler) {
	// Two ingests under one key: one applied, one duplicate.
	rs := []metricsdb.Result{result("saxpy", "cts1", "saxpy_time", 1.0)}
	if w := postResults(t, h, "k1", rs); w.Code != http.StatusOK {
		t.Fatalf("ingest: %d %s", w.Code, w.Body)
	}
	if w := postResults(t, h, "k1", rs); w.Code != http.StatusOK {
		t.Fatalf("duplicate ingest: %d %s", w.Code, w.Body)
	}

	// Liveness and readiness.
	if w := get(t, h, "/healthz"); w.Code != http.StatusOK || w.Body.String() != "ok\n" {
		t.Fatalf("/healthz = %d %q", w.Code, w.Body)
	}
	if w := get(t, h, "/readyz"); w.Code != http.StatusOK || w.Body.String() != "ready\n" {
		t.Fatalf("/readyz = %d %q", w.Code, w.Body)
	}

	// /metrics: Prometheus text with both the registry families and
	// the server-owned block, every sample line "name value".
	w := get(t, h, "/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics = %d %s", w.Code, w.Body)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	text := w.Body.String()
	for _, want := range []string{
		"# TYPE resultsd_requests_total counter",
		`resultsd_requests_total{route="results"} 2`,
		`resultsd_request_seconds_count{route="results"} 2`,
		"resultsd_ingest_batches_total 2",
		"resultsd_ingest_duplicate_batches_total 1",
		"resultsd_ingest_results_total 1",
		"resultsd_store_ready 1",
		"resultsd_store_results 1",
		"resultsd_inflight_requests 0",
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("/metrics lacks %q:\n%s", want, text)
		}
	}
	// Routes registered but never hit still render (families are
	// created at New), with zero values.
	if !strings.Contains(text, `resultsd_requests_total{route="series"} 0`) {
		t.Errorf("/metrics lacks the idle series route:\n%s", text)
	}
	// The family set is pinned literally, so a family renamed or dropped
	// fails loudly; each has exactly one TYPE line.
	wantFamilies := []string{
		"resultsd_errors_total counter",
		"resultsd_ingest_batches_total counter",
		"resultsd_ingest_duplicate_batches_total counter",
		"resultsd_ingest_results_total counter",
		"resultsd_requests_total counter",
		"resultsd_inflight_requests gauge",
		"resultsd_store_ingest_keys gauge",
		"resultsd_store_ready gauge",
		"resultsd_store_results gauge",
		"resultsd_wal_active_bytes gauge",
		"resultsd_wal_active_segment gauge",
		"resultsd_request_seconds histogram",
	}
	var families []string
	sample := regexp.MustCompile(`^\S+ \S+$`)
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if family, ok := strings.CutPrefix(line, "# TYPE "); ok {
			families = append(families, family)
			continue
		}
		if !sample.MatchString(line) {
			t.Errorf("malformed exposition line %q", line)
		}
	}
	if !slices.Equal(families, wantFamilies) {
		t.Errorf("/metrics families:\n got %q\nwant %q", families, wantFamilies)
	}

	// /debug/ops: the same picture as structured JSON.
	w = get(t, h, "/debug/ops")
	if w.Code != http.StatusOK {
		t.Fatalf("/debug/ops = %d %s", w.Code, w.Body)
	}
	var ops OpsSnapshot
	if err := json.Unmarshal(w.Body.Bytes(), &ops); err != nil {
		t.Fatal(err)
	}
	if ops.IngestBatches != 2 || ops.IngestDuplicates != 1 || ops.IngestResults != 1 {
		t.Fatalf("ingest counters = %+v", ops)
	}
	if ops.InFlight != 0 {
		t.Fatalf("in-flight = %d, want 0 at rest", ops.InFlight)
	}
	if !ops.Store.Ready || ops.Store.Results != 1 || ops.Store.IngestKeys != 1 {
		t.Fatalf("store health = %+v", ops.Store)
	}
	res, ok := ops.Routes["results"]
	if !ok || res.Requests != 2 || res.Errors != 0 || res.Latency.Count != 2 {
		t.Fatalf("results route stats = %+v (present %v)", res, ok)
	}
	if idle, ok := ops.Routes["systems"]; !ok || idle.Requests != 0 {
		t.Fatalf("systems route stats = %+v (present %v)", idle, ok)
	}
}

// TestOpsEndpointsAbsentWithoutOption: a server built with no options
// serves no profiles, and every read-only ops endpoint all the same.
func TestOpsEndpointsAbsentWithoutOption(t *testing.T) {
	srv, _ := newTestServer(t)
	h := srv.Handler()
	if w := get(t, h, "/debug/pprof/cmdline"); w.Code != http.StatusNotFound {
		t.Errorf("GET /debug/pprof/cmdline = %d without WithPprof, want 404", w.Code)
	}
	for _, path := range []string{"/healthz", "/readyz", "/metrics", "/debug/ops"} {
		if w := get(t, h, path); w.Code != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, w.Code)
		}
	}
}

func TestPprofOptIn(t *testing.T) {
	srv := New(newOpsStore(t), nil, WithPprof())
	if w := get(t, srv.Handler(), "/debug/pprof/cmdline"); w.Code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline = %d with WithPprof, want 200", w.Code)
	}
}

// TestReadyzDegradesWhenWALUnwritable pins graceful degradation: with
// the WAL directory gone (the tests run as root, so chmod would be a
// no-op — removing the directory is the reliable way to make it
// unwritable), /readyz flips to 503 naming the reason while /healthz
// and the query API keep serving from memory.
func TestReadyzDegradesWhenWALUnwritable(t *testing.T) {
	dir := t.TempDir()
	store, err := resultstore.Open(dir, resultstore.Options{
		NoBackgroundCompact: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	srv := New(store, telemetry.New(telemetry.FixedClock{T: time.Unix(1700000000, 0)}))
	h := srv.Handler()

	if w := postResults(t, h, "k1", []metricsdb.Result{result("saxpy", "cts1", "saxpy_time", 1.0)}); w.Code != http.StatusOK {
		t.Fatalf("ingest: %d %s", w.Code, w.Body)
	}
	if w := get(t, h, "/readyz"); w.Code != http.StatusOK {
		t.Fatalf("/readyz before damage = %d", w.Code)
	}

	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}

	w := get(t, h, "/readyz")
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with dead WAL dir = %d, want 503", w.Code)
	}
	var health resultstore.Health
	if err := json.Unmarshal(w.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health.Ready || !strings.Contains(health.Reason, "not writable") {
		t.Fatalf("degraded health = %+v, want not-ready with a writability reason", health)
	}

	// Liveness and reads survive the degradation.
	if w := get(t, h, "/healthz"); w.Code != http.StatusOK {
		t.Fatalf("/healthz with dead WAL dir = %d, want 200", w.Code)
	}
	w = get(t, h, "/v1/series?benchmark=saxpy&fom=saxpy_time")
	if w.Code != http.StatusOK {
		t.Fatalf("series with dead WAL dir = %d %s", w.Code, w.Body)
	}
	var sr SeriesResponse
	if err := json.Unmarshal(w.Body.Bytes(), &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Points) != 1 {
		t.Fatalf("series points = %+v, want the pre-damage point", sr.Points)
	}

	// /metrics reflects the degradation.
	if text := get(t, h, "/metrics").Body.String(); !strings.Contains(text, "resultsd_store_ready 0\n") {
		t.Fatalf("/metrics does not report the unready store:\n%s", text)
	}
}
