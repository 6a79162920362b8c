package resultsd

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/metricsdb"
	"repro/internal/resultstore"
	"repro/internal/telemetry"
)

func newTestServer(t testing.TB) (*Server, *resultstore.Store) {
	t.Helper()
	store, err := resultstore.Open(t.TempDir(), resultstore.Options{
		Clock:               telemetry.FixedClock{T: time.Unix(1700000000, 0)},
		NoBackgroundCompact: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	tracer := telemetry.New(telemetry.FixedClock{T: time.Unix(1700000000, 0)})
	return New(store, tracer), store
}

func result(bench, system, fom string, v float64) metricsdb.Result {
	return metricsdb.Result{
		Benchmark:  bench,
		Workload:   "problem",
		System:     system,
		Experiment: bench + "_exp",
		FOMs:       map[string]float64{fom: v},
	}
}

func postResults(t *testing.T, h http.Handler, key string, rs []metricsdb.Result) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(IngestRequest{IngestKey: key, Results: rs})
	if err != nil {
		t.Fatal(err)
	}
	return postRaw(h, body, false)
}

func get(t *testing.T, h http.Handler, url string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, url, nil))
	return w
}

func TestIngestAndSeries(t *testing.T) {
	srv, store := newTestServer(t)
	h := srv.Handler()
	w := postResults(t, h, "k1", []metricsdb.Result{
		result("saxpy", "cts1", "saxpy_time", 1.0),
		result("saxpy", "cts1", "saxpy_time", 1.2),
	})
	if w.Code != http.StatusOK {
		t.Fatalf("ingest: %d %s", w.Code, w.Body)
	}
	var ir IngestResponse
	if err := json.Unmarshal(w.Body.Bytes(), &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Accepted != 2 || ir.Duplicate {
		t.Fatalf("IngestResponse = %+v", ir)
	}
	if store.Len() != 2 {
		t.Fatalf("store holds %d results, want 2", store.Len())
	}

	w = get(t, h, "/v1/series?benchmark=saxpy&fom=saxpy_time")
	if w.Code != http.StatusOK {
		t.Fatalf("series: %d %s", w.Code, w.Body)
	}
	var sr SeriesResponse
	if err := json.Unmarshal(w.Body.Bytes(), &sr); err != nil {
		t.Fatal(err)
	}
	if sr.FOM != "saxpy_time" || len(sr.Points) != 2 ||
		sr.Points[0].Value != 1.0 || sr.Points[1].Value != 1.2 {
		t.Fatalf("SeriesResponse = %+v", sr)
	}
}

func TestIngestDuplicateKey(t *testing.T) {
	srv, store := newTestServer(t)
	h := srv.Handler()
	rs := []metricsdb.Result{result("saxpy", "cts1", "saxpy_time", 1.0)}
	if w := postResults(t, h, "k1", rs); w.Code != http.StatusOK {
		t.Fatalf("first ingest: %d", w.Code)
	}
	w := postResults(t, h, "k1", rs)
	if w.Code != http.StatusOK {
		t.Fatalf("duplicate ingest: %d", w.Code)
	}
	var ir IngestResponse
	if err := json.Unmarshal(w.Body.Bytes(), &ir); err != nil {
		t.Fatal(err)
	}
	if !ir.Duplicate || ir.Accepted != 0 {
		t.Fatalf("duplicate IngestResponse = %+v", ir)
	}
	if store.Len() != 1 {
		t.Fatalf("store holds %d results after duplicate, want 1", store.Len())
	}
}

func TestIngestValidation(t *testing.T) {
	srv, _ := newTestServer(t)
	h := srv.Handler()
	cases := []struct {
		name string
		body string
	}{
		{"garbage", "{not json"},
		{"missing key", `{"results":[{"benchmark":"a","system":"b"}]}`},
		{"empty results", `{"ingest_key":"k","results":[]}`},
		{"no benchmark", `{"ingest_key":"k","results":[{"system":"b"}]}`},
		{"no system", `{"ingest_key":"k","results":[{"benchmark":"a"}]}`},
	}
	for _, tc := range cases {
		req := httptest.NewRequest(http.MethodPost, "/v1/results", strings.NewReader(tc.body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: code %d, want 400", tc.name, w.Code)
		}
		var e apiError
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Errorf("%s: error envelope missing: %q", tc.name, w.Body)
		}
	}
}

func TestRegressionsEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)
	h := srv.Handler()
	// A stable series with one 2x spike after the window fills.
	vals := []float64{1.0, 1.0, 1.0, 1.0, 2.0, 1.0}
	var rs []metricsdb.Result
	for _, v := range vals {
		rs = append(rs, result("saxpy", "cts1", "saxpy_time", v))
	}
	if w := postResults(t, h, "k1", rs); w.Code != http.StatusOK {
		t.Fatalf("ingest: %d", w.Code)
	}
	w := get(t, h, "/v1/regressions?benchmark=saxpy&fom=saxpy_time")
	if w.Code != http.StatusOK {
		t.Fatalf("regressions: %d %s", w.Code, w.Body)
	}
	var rr RegressionsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Window != DefaultWindow || rr.Threshold != DefaultThreshold {
		t.Fatalf("defaults not applied: %+v", rr)
	}
	if len(rr.Regressions) != 1 || rr.Regressions[0].Value != 2.0 || rr.Regressions[0].Ratio != 2.0 {
		t.Fatalf("Regressions = %+v", rr.Regressions)
	}
	// Explicit window/threshold that flags nothing.
	w = get(t, h, "/v1/regressions?benchmark=saxpy&fom=saxpy_time&window=4&threshold=3.0")
	if w.Code != http.StatusOK {
		t.Fatalf("regressions: %d", w.Code)
	}
	rr = RegressionsResponse{}
	if err := json.Unmarshal(w.Body.Bytes(), &rr); err != nil {
		t.Fatal(err)
	}
	if len(rr.Regressions) != 0 {
		t.Fatalf("threshold=3.0 flagged %+v", rr.Regressions)
	}
}

func TestQueryValidation(t *testing.T) {
	srv, _ := newTestServer(t)
	h := srv.Handler()
	for _, url := range []string{
		"/v1/series",      // missing fom
		"/v1/regressions", // missing fom
		"/v1/regressions?fom=t&window=1",
		"/v1/regressions?fom=t&window=x",
		"/v1/regressions?fom=t&threshold=0",
		"/v1/regressions?fom=t&threshold=x",
	} {
		if w := get(t, h, url); w.Code != http.StatusBadRequest {
			t.Errorf("GET %s: code %d, want 400", url, w.Code)
		}
	}
}

func TestSystemsEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)
	h := srv.Handler()
	// Empty store serves an empty array, not null.
	w := get(t, h, "/v1/systems")
	if w.Code != http.StatusOK {
		t.Fatalf("systems: %d", w.Code)
	}
	if got := strings.TrimSpace(w.Body.String()); got != `{"systems":[]}` {
		t.Fatalf("empty systems body = %q", got)
	}
	postResults(t, h, "k1", []metricsdb.Result{
		result("saxpy", "cts1", "saxpy_time", 1),
		result("saxpy", "cloud-c5n", "saxpy_time", 2),
	})
	var sr SystemsResponse
	w = get(t, h, "/v1/systems")
	if err := json.Unmarshal(w.Body.Bytes(), &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Systems) != 2 || sr.Systems[0] != "cloud-c5n" || sr.Systems[1] != "cts1" {
		t.Fatalf("Systems = %v", sr.Systems)
	}
}

func TestInstrumentation(t *testing.T) {
	srv, _ := newTestServer(t)
	h := srv.Handler()
	postResults(t, h, "k1", []metricsdb.Result{result("saxpy", "cts1", "saxpy_time", 1)})
	get(t, h, "/v1/series?fom=saxpy_time")
	get(t, h, "/v1/series") // invalid: counts an error

	snap := srv.Tracer().Snapshot()
	counters := snap.Metrics.Counters
	if counters[`resultsd_requests_total{route="results"}`] != 1 {
		t.Fatalf("results requests = %v", counters[`resultsd_requests_total{route="results"}`])
	}
	if counters[`resultsd_requests_total{route="series"}`] != 2 {
		t.Fatalf("series requests = %v", counters[`resultsd_requests_total{route="series"}`])
	}
	if counters[`resultsd_errors_total{route="series"}`] != 1 {
		t.Fatalf("series errors = %v", counters[`resultsd_errors_total{route="series"}`])
	}
	var spans int
	for _, s := range snap.Spans {
		if s.Name == "http:results" || s.Name == "http:series" {
			spans++
		}
	}
	if spans != 3 {
		t.Fatalf("recorded %d http spans, want 3", spans)
	}
}

func TestNilTracerServes(t *testing.T) {
	store, err := resultstore.Open(t.TempDir(), resultstore.Options{NoBackgroundCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv := New(store, nil)
	h := srv.Handler()
	if w := postResults(t, h, "k1", []metricsdb.Result{result("saxpy", "cts1", "t", 1)}); w.Code != http.StatusOK {
		t.Fatalf("uninstrumented ingest: %d %s", w.Code, w.Body)
	}
	if w := get(t, h, "/v1/systems"); w.Code != http.StatusOK {
		t.Fatalf("uninstrumented systems: %d", w.Code)
	}
}

func TestIngestStoreError(t *testing.T) {
	srv, store := newTestServer(t)
	h := srv.Handler()
	// Close the store underneath the server: ingest must surface a 500.
	store.Close()
	w := postResults(t, h, "k1", []metricsdb.Result{result("saxpy", "cts1", "t", 1)})
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("ingest on closed store: %d, want 500", w.Code)
	}
}
