package resultsd

// Federation-level tests: the sharded router and follower replicas
// behind the HTTP API — placement-transparent reads, the 429/
// Retry-After backpressure contract end to end through the retrying
// client, gzip ingest, and byte-identical replica serving.

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/loadgen"
	"repro/internal/metricsdb"
	"repro/internal/resultshard"
	"repro/internal/resultstore"
	"repro/internal/telemetry"
)

// newShardedServer builds a resultsd server over a 4-shard router in
// dir, with the frozen clock the determinism tests rely on.
func newShardedServer(t *testing.T, dir string, opts resultshard.Options) (*Server, *resultshard.Router) {
	t.Helper()
	if opts.Shards == 0 {
		opts.Shards = 4
	}
	opts.Store.Clock = telemetry.FixedClock{T: time.Unix(1700000000, 0)}
	opts.Store.NoBackgroundCompact = true
	router, err := resultshard.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { router.Close() })
	tracer := telemetry.New(telemetry.FixedClock{T: time.Unix(1700000000, 0)})
	return New(router, tracer), router
}

// fleetResults spans several (system, benchmark) pairs so a 4-shard
// router sees traffic on every shard.
func fleetResults(n int) []metricsdb.Result {
	out := make([]metricsdb.Result, n)
	for i := range out {
		out[i] = result(fmt.Sprintf("bench-%02d", i%7), fmt.Sprintf("sys-%02d", i%5), "fom", float64(i))
	}
	return out
}

// TestShardedServeRoutes: the full read API works unchanged over a
// sharded backend, and the replica endpoints appear.
func TestShardedServeRoutes(t *testing.T) {
	srv, router := newShardedServer(t, t.TempDir(), resultshard.Options{})
	h := srv.Handler()
	if w := postResults(t, h, "k1", fleetResults(20)); w.Code != http.StatusOK {
		t.Fatalf("ingest over router: %d %s", w.Code, w.Body)
	}
	if router.Len() != 20 {
		t.Fatalf("router holds %d results, want 20", router.Len())
	}

	w := get(t, h, "/v1/series?benchmark=bench-01&system=sys-01&fom=fom")
	if w.Code != http.StatusOK {
		t.Fatalf("series: %d %s", w.Code, w.Body)
	}
	w = get(t, h, "/v1/systems")
	var sys SystemsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &sys); err != nil {
		t.Fatal(err)
	}
	if len(sys.Systems) != 5 {
		t.Fatalf("systems = %v, want 5 entries", sys.Systems)
	}
	w = get(t, h, "/healthz")
	if w.Code != http.StatusOK {
		t.Fatalf("healthz over router: %d %s", w.Code, w.Body)
	}

	// The replication plane is registered on sharded primaries.
	w = get(t, h, "/v1/replica/meta")
	if w.Code != http.StatusOK {
		t.Fatalf("replica/meta: %d %s", w.Code, w.Body)
	}
	var meta resultshard.ReplicaMeta
	if err := json.Unmarshal(w.Body.Bytes(), &meta); err != nil {
		t.Fatal(err)
	}
	if meta.Shards != 4 || meta.Schema != resultshard.ReplicaSchema {
		t.Fatalf("meta = %+v", meta)
	}
	w = get(t, h, "/v1/replica/delta?shard=0&after=0")
	if w.Code != http.StatusOK {
		t.Fatalf("replica/delta: %d %s", w.Code, w.Body)
	}
	if w = get(t, h, "/v1/replica/delta?shard=99&after=0"); w.Code != http.StatusBadRequest {
		t.Fatalf("delta for absent shard: %d, want 400", w.Code)
	}
}

// TestShardedServeByteIdenticalAcrossRestart: the federated extension
// of the core determinism guarantee — kill a sharded primary, reopen
// the same directory, and every API response is byte-identical.
func TestShardedServeByteIdenticalAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	srv, _ := newShardedServer(t, dir, resultshard.Options{})
	h := srv.Handler()
	for i := 0; i < 5; i++ {
		if w := postResults(t, h, fmt.Sprintf("k%d", i), fleetResults(10)); w.Code != http.StatusOK {
			t.Fatalf("ingest %d: %d %s", i, w.Code, w.Body)
		}
	}
	urls := []string{
		"/v1/series?benchmark=bench-01&fom=fom",
		"/v1/series?benchmark=bench-01&system=sys-01&fom=fom",
		"/v1/regressions?benchmark=bench-02&fom=fom&window=3&threshold=1.1",
		"/v1/systems",
	}
	before := map[string]string{}
	for _, u := range urls {
		w := get(t, h, u)
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s: %d %s", u, w.Code, w.Body)
		}
		before[u] = w.Body.String()
	}

	// "Restart": a brand-new server over the recovered router.
	srv2, _ := newShardedServer(t, dir, resultshard.Options{})
	h2 := srv2.Handler()
	for _, u := range urls {
		w := get(t, h2, u)
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s after restart: %d %s", u, w.Code, w.Body)
		}
		if got := w.Body.String(); got != before[u] {
			t.Fatalf("%s not byte-identical across restart:\nbefore: %s\nafter:  %s", u, before[u], got)
		}
	}
}

// TestIngestOverloadMapsTo429: an overloaded shard surfaces as HTTP
// 429 with a Retry-After header, not a hang or a 500.
func TestIngestOverloadMapsTo429(t *testing.T) {
	srv, router := newShardedServer(t, t.TempDir(), resultshard.Options{
		Shards: 2,
		Store:  resultstore.Options{QueueDepth: 1, CommitDelay: 100 * time.Millisecond},
	})
	h := srv.Handler()
	// Fire enough concurrent single-key ingests at the slow shards to
	// fill a depth-1 queue.
	type resp struct {
		code       int
		retryAfter string
	}
	results := make(chan resp, 32)
	for i := 0; i < 32; i++ {
		go func(i int) {
			w := postResults(t, h, fmt.Sprintf("k%d", i), []metricsdb.Result{result("b", "s", "fom", float64(i))})
			results <- resp{w.Code, w.Result().Header.Get("Retry-After")}
		}(i)
	}
	overloaded := 0
	for i := 0; i < 32; i++ {
		r := <-results
		switch r.code {
		case http.StatusOK:
		case http.StatusTooManyRequests:
			overloaded++
			if r.retryAfter != "1" {
				t.Fatalf("Retry-After = %q, want \"1\"", r.retryAfter)
			}
		default:
			t.Fatalf("unexpected status %d", r.code)
		}
	}
	if overloaded == 0 {
		t.Fatal("no 429s from a depth-1 queue under 32 concurrent ingests")
	}
	if router.Overloads() == 0 {
		t.Fatal("router overload counter did not move")
	}
}

// TestClientHonorsRetryAfterAnd429: the retrying client treats 429 as
// retryable, waits at least the server's hint, and succeeds when the
// overload clears; when retries exhaust, the error matches
// resultshard.ErrOverloaded.
func TestClientHonorsRetryAfterAnd429(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(apiError{Error: "overloaded"})
			return
		}
		json.NewEncoder(w).Encode(IngestResponse{Accepted: 1})
	}))
	defer ts.Close()

	c := NewClient(ts.URL)
	c.MaxRetries = 3
	c.RetryBackoff = time.Millisecond
	var waits []time.Duration
	c.Jitter = func(d time.Duration) time.Duration {
		waits = append(waits, d)
		return 0 // don't actually sleep a second in tests
	}
	resp, err := c.Push(context.Background(), "k", []metricsdb.Result{result("b", "s", "fom", 1)})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 1 || calls.Load() != 3 {
		t.Fatalf("resp=%+v calls=%d", resp, calls.Load())
	}
	// Both waits were floored by the server's 1s hint, not the 1ms
	// client backoff.
	if len(waits) != 2 || waits[0] < time.Second || waits[1] < time.Second {
		t.Fatalf("waits = %v, want two >= 1s (Retry-After floor)", waits)
	}

	// A permanently overloaded server exhausts retries into an error
	// that matches ErrOverloaded.
	calls.Store(-1000)
	c.MaxRetries = 1
	_, err = c.Push(context.Background(), "k2", []metricsdb.Result{result("b", "s", "fom", 1)})
	if !errors.Is(err, resultshard.ErrOverloaded) {
		t.Fatalf("exhausted retries: %v, want ErrOverloaded", err)
	}
}

// TestIngestAcceptsGzip: the server transparently decodes
// Content-Encoding: gzip request bodies.
func TestIngestAcceptsGzip(t *testing.T) {
	srv, store := newTestServer(t)
	h := srv.Handler()
	body, err := json.Marshal(IngestRequest{IngestKey: "gz", Results: []metricsdb.Result{
		result("saxpy", "cts1", "t", 1), result("saxpy", "cts1", "t", 2),
	}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(body); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/results", &buf)
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Content-Encoding", "gzip")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("gzip ingest: %d %s", w.Code, w.Body)
	}
	if store.Len() != 2 {
		t.Fatalf("store holds %d results, want 2", store.Len())
	}
	// A corrupt gzip body is a 400, not a 500.
	req = httptest.NewRequest(http.MethodPost, "/v1/results", bytes.NewReader([]byte("not gzip")))
	req.Header.Set("Content-Encoding", "gzip")
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("corrupt gzip: %d, want 400", w.Code)
	}
}

// TestClientCompressesLargePushes: pushes at or above the gzip
// threshold go over the wire compressed; small ones stay plain.
func TestClientCompressesLargePushes(t *testing.T) {
	var lastEncoding atomic.Value
	lastEncoding.Store("")
	srv, _ := newTestServer(t)
	inner := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		lastEncoding.Store(r.Header.Get("Content-Encoding"))
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()
	c := fastClient(ts.URL)

	if _, err := c.Push(context.Background(), "small", []metricsdb.Result{result("b", "s", "fom", 1)}); err != nil {
		t.Fatal(err)
	}
	if got := lastEncoding.Load().(string); got != "" {
		t.Fatalf("small push encoded as %q, want identity", got)
	}
	if _, err := c.Push(context.Background(), "large", fleetResults(200)); err != nil {
		t.Fatal(err)
	}
	if got := lastEncoding.Load().(string); got != "gzip" {
		t.Fatalf("large push encoded as %q, want gzip", got)
	}

	// DisableCompression forces identity even for large pushes.
	c.DisableCompression = true
	if _, err := c.Push(context.Background(), "large2", fleetResults(200)); err != nil {
		t.Fatal(err)
	}
	if got := lastEncoding.Load().(string); got != "" {
		t.Fatalf("DisableCompression push encoded as %q", got)
	}
}

// TestFollowerOverHTTP: the full replica loop — a primary behind
// httptest, a follower syncing through ReplicaClient — serves
// byte-identical reads, reports status, and refuses writes with 403.
// Any primary can be followed: a plain store is a one-shard one (its
// row was TestSingleStoreHasNoReplicaPlane while only a Router could
// serve /v1/replica/meta).
func TestFollowerOverHTTP(t *testing.T) {
	sharded, _ := newShardedServer(t, t.TempDir(), resultshard.Options{})
	single, _ := newTestServer(t)
	for _, tc := range []struct {
		name   string
		srv    *Server
		shards int
	}{{"4-shard router", sharded, 4}, {"single store", single, 1}} {
		t.Run(tc.name, func(t *testing.T) {
			primary := httptest.NewServer(tc.srv.Handler())
			defer primary.Close()
			ph := tc.srv.Handler()
			for i := 0; i < 3; i++ {
				if w := postResults(t, ph, fmt.Sprintf("k%d", i), fleetResults(10)); w.Code != http.StatusOK {
					t.Fatalf("primary ingest: %d %s", w.Code, w.Body)
				}
			}
			var meta resultshard.ReplicaMeta
			if w := get(t, ph, "/v1/replica/meta"); w.Code != http.StatusOK || json.Unmarshal(w.Body.Bytes(), &meta) != nil || meta.Shards != tc.shards {
				t.Fatalf("replica/meta: %d %s, want 200 with shards: %d", w.Code, w.Body, tc.shards)
			}

			f := resultshard.NewFollower()
			src := NewReplicaClient(primary.URL)
			src.Client().Jitter = NoJitter
			applied, err := f.Sync(context.Background(), src)
			if err != nil {
				t.Fatal(err)
			}
			if applied != 30 {
				t.Fatalf("bootstrap pass applied %d results, want 30", applied)
			}

			tracer := telemetry.New(telemetry.FixedClock{T: time.Unix(1700000000, 0)})
			followerSrv := New(f, tracer)
			fh := followerSrv.Handler()

			// Reads: byte-identical to the primary.
			for _, u := range []string{
				"/v1/series?benchmark=bench-01&fom=fom",
				"/v1/series?benchmark=bench-01&system=sys-01&fom=fom",
				"/v1/regressions?benchmark=bench-02&fom=fom&window=3&threshold=1.1",
				"/v1/systems",
			} {
				pw, fw := get(t, ph, u), get(t, fh, u)
				if pw.Code != http.StatusOK || fw.Code != http.StatusOK {
					t.Fatalf("GET %s: primary %d, follower %d", u, pw.Code, fw.Code)
				}
				if pw.Body.String() != fw.Body.String() {
					t.Fatalf("%s differs between primary and follower", u)
				}
			}

			// Status: the follower reports its position per shard, and
			// what the pass it describes had to apply.
			status := func() (st resultshard.FollowerStatus) {
				w := get(t, fh, "/v1/replica/status")
				if w.Code != http.StatusOK {
					t.Fatalf("replica/status: %d %s", w.Code, w.Body)
				}
				if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
					t.Fatal(err)
				}
				return st
			}
			if st := status(); !st.Synced || st.Syncs != 1 || len(st.Shards) != tc.shards || st.LagResults != 30 {
				t.Fatalf("status after the bootstrap pass = %+v", st)
			}
			if _, err := f.Sync(context.Background(), src); err != nil {
				t.Fatal(err)
			}
			if st := status(); st.Syncs != 2 || st.LagResults != 0 || st.LastError != "" {
				t.Fatalf("status after a quiet pass = %+v", st)
			}

			// Writes: 403 with a pointer to the primary contract.
			if w := postResults(t, fh, "nope", fleetResults(2)); w.Code != http.StatusForbidden {
				t.Fatalf("replica ingest: %d, want 403", w.Code)
			}
			// A follower is nobody's primary.
			if w := get(t, fh, "/v1/replica/meta"); w.Code != http.StatusNotFound {
				t.Fatalf("replica/meta on a follower: %d, want 404", w.Code)
			}

			// Readiness: the follower is ready only because it synced.
			if w := get(t, fh, "/readyz"); w.Code != http.StatusOK {
				t.Fatalf("follower readyz: %d %s", w.Code, w.Body)
			}
			if w := get(t, New(resultshard.NewFollower(), tracer).Handler(), "/readyz"); w.Code != http.StatusServiceUnavailable {
				t.Fatalf("unsynced follower readyz: %d, want 503", w.Code)
			}
		})
	}
}

// TestFollowerBootstrapsAnyShardOverHTTP: a delta reply stays under the
// client's reply bound whatever the shard holds, so one Sync bootstraps
// a follower of a shard whose full delta is far over it — by count (60k
// loadgen-shaped results, ~12 MB) or by weight (3,000 results carrying
// ~4 kB manifests: over the bound within one page, so the handler halves
// it).
func TestFollowerBootstrapsAnyShardOverHTTP(t *testing.T) {
	for _, tc := range []struct {
		name              string
		results, manifest int
	}{{"60k loadgen-shaped results", 60000, 0}, {"3k results with 4 kB manifests", 3000, 4 << 10}} {
		t.Run(tc.name, func(t *testing.T) {
			srv, store := newTestServer(t)
			cfg := loadgen.Config{Runners: 100, ResultsPerBatch: 100, Systems: 16, Benchmarks: 8}
			for n := 0; n*cfg.ResultsPerBatch < tc.results; n++ {
				rs := cfg.Batch(n%cfg.Runners, n)
				for i := range rs {
					rs[i].Manifest = strings.Repeat("m", tc.manifest)
				}
				if _, err := store.Append(context.Background(), resultstore.Batch{Key: cfg.Key(0, n), Results: rs}); err != nil {
					t.Fatal(err)
				}
			}
			if whole, _ := json.Marshal(store.Query(metricsdb.Filter{})); len(whole) <= maxIngestBytes {
				t.Fatalf("the shard is only %d bytes: it fits one reply and tests nothing", len(whole))
			}
			var largest atomic.Int64
			inner := srv.Handler()
			primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				rec := httptest.NewRecorder()
				inner.ServeHTTP(rec, r)
				largest.Store(max(largest.Load(), int64(rec.Body.Len())))
				for k, v := range rec.Header() {
					w.Header()[k] = v
				}
				w.WriteHeader(rec.Code)
				w.Write(rec.Body.Bytes())
			}))
			defer primary.Close()

			f := resultshard.NewFollower()
			src := NewReplicaClient(primary.URL)
			src.Client().Jitter = NoJitter
			applied, err := f.Sync(context.Background(), src)
			if err != nil || applied != tc.results || f.Len() != store.Len() {
				t.Fatalf("one Sync applied %d of %d results: %v", applied, tc.results, err)
			}
			if got := largest.Load(); got > maxIngestBytes {
				t.Fatalf("largest reply was %d bytes, over the %d-byte bound", got, maxIngestBytes)
			}
			u := "/v1/series?benchmark=fedbench-03&fom=figure_of_merit"
			if pw, fw := get(t, inner, u), get(t, New(f, nil).Handler(), u); pw.Code != http.StatusOK || pw.Body.String() != fw.Body.String() {
				t.Fatalf("%s differs between primary and follower", u)
			}
		})
	}
}

// TestRunFollowerLoop: the sync loop keeps a follower converged while
// the primary ingests, and stops when its context is cancelled.
func TestRunFollowerLoop(t *testing.T) {
	primarySrv, router := newShardedServer(t, t.TempDir(), resultshard.Options{})
	primary := httptest.NewServer(primarySrv.Handler())
	defer primary.Close()
	if w := postResults(t, primarySrv.Handler(), "seed", fleetResults(10)); w.Code != http.StatusOK {
		t.Fatalf("seed ingest: %d", w.Code)
	}

	f := resultshard.NewFollower()
	src := NewReplicaClient(primary.URL)
	src.Client().Jitter = NoJitter
	tracer := telemetry.New(nil)
	ctx, cancel := context.WithCancel(context.Background())
	loopDone := make(chan struct{})
	go func() {
		defer close(loopDone)
		RunFollower(ctx, f, src, 5*time.Millisecond, tracer)
	}()

	// The loop must bootstrap, then chase the primary past the seed.
	if _, err := router.Append(context.Background(), resultstore.Batch{Key: "extra", Results: fleetResults(10)}); err != nil {
		t.Fatal(err)
	}
	// Wait for a COMPLETED sync too: Len reaches 20 before a first Sync
	// has pulled its last (possibly empty) shard, and cancelling there
	// fails that Sync before it marks the follower synced.
	deadline := time.After(5 * time.Second)
	for f.Len() != 20 || !f.Status().Synced {
		select {
		case <-deadline:
			t.Fatalf("follower stuck at %d results, want 20", f.Len())
		case <-time.After(5 * time.Millisecond):
		}
	}
	cancel()
	select {
	case <-loopDone:
	case <-time.After(5 * time.Second):
		t.Fatal("RunFollower did not stop on cancel")
	}
	st := f.Status()
	if !st.Synced {
		t.Fatal("follower never marked synced")
	}
	// The loop's metrics are the status' facts: one count per completed
	// pass, and the gauge is what the last of them had to apply.
	snap := tracer.Metrics().Snapshot()
	if got := snap.Counters["resultsd_replica_syncs_total"]; got != int64(st.Syncs) {
		t.Fatalf("resultsd_replica_syncs_total = %d, status says %d completed passes", got, st.Syncs)
	}
	if got := snap.Gauges["resultsd_replica_lag_results"]; got != int64(st.LagResults) {
		t.Fatalf("resultsd_replica_lag_results = %d, status lag_results %d", got, st.LagResults)
	}
	if _, ok := snap.Counters["resultsd_replica_sync_errors_total"]; !ok {
		t.Fatal("resultsd_replica_sync_errors_total is not registered")
	}
}

// Ensure the Retry-After rendering rounds up and floors at 1s.
func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 1},
		{time.Millisecond, 1},
		{time.Second, 1},
		{1100 * time.Millisecond, 2},
		{3 * time.Second, 3},
	}
	for _, c := range cases {
		if got := retryAfterSeconds(c.d); got != c.want {
			t.Errorf("retryAfterSeconds(%v) = %d, want %d", c.d, got, c.want)
		}
	}
	// And the header value parses back.
	if _, err := strconv.Atoi(strconv.Itoa(retryAfterSeconds(time.Second))); err != nil {
		t.Fatal(err)
	}
}
