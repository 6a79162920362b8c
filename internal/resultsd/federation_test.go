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
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fsys"
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
// 429 with a Retry-After header, not a hang or a 500. A 2-shard router
// with depth-1 queues behind a disk whose Syncs take 100ms gets 32
// concurrent ingests pinned to one shard: some are accepted, the rest
// refused, every answer arrives within the deadline, and the shard
// accepts again once its queue drains — overload is load shedding, not
// a terminal state.
func TestIngestOverloadMapsTo429(t *testing.T) {
	srv, router := newShardedServer(t, t.TempDir(), resultshard.Options{
		Shards: 2,
		Store:  resultstore.Options{QueueDepth: 1, FS: slowDisk{fsys.OS, 100 * time.Millisecond}},
	})
	h := srv.Handler()
	// Fire enough concurrent single-key ingests at the slow shards to
	// fill a depth-1 queue.
	type resp struct {
		code       int
		retryAfter string
	}
	const posts = 32
	results := make(chan resp, posts)
	for i := 0; i < posts; i++ {
		go func(i int) {
			w := postResults(t, h, fmt.Sprintf("k%d", i), []metricsdb.Result{result("b", "s", "fom", float64(i))})
			results <- resp{w.Code, w.Result().Header.Get("Retry-After")}
		}(i)
	}
	deadline := time.After(10 * time.Second)
	accepted, overloaded := 0, 0
	for i := 0; i < posts; i++ {
		var r resp
		select {
		case r = <-results:
		case <-deadline:
			t.Fatalf("overloaded shard hung: %d of %d concurrent ingests answered within 10s", i, posts)
		}
		switch r.code {
		case http.StatusOK:
			accepted++
		case http.StatusTooManyRequests:
			overloaded++
			if r.retryAfter != "1" {
				t.Fatalf("Retry-After = %q, want \"1\"", r.retryAfter)
			}
		default:
			t.Fatalf("unexpected status %d", r.code)
		}
	}
	if accepted == 0 || overloaded == 0 {
		t.Fatalf("%d accepted, %d refused of %d concurrent ingests into a depth-1 queue: want both", accepted, overloaded, posts)
	}
	if router.Overloads() == 0 {
		t.Fatal("router overload counter did not move")
	}
	for start := time.Now(); ; time.Sleep(50 * time.Millisecond) {
		w := postResults(t, h, "recovery", []metricsdb.Result{result("b", "s", "fom", -1)})
		if w.Code == http.StatusOK {
			break
		}
		if w.Code != http.StatusTooManyRequests {
			t.Fatalf("recovery ingest = %d, want 200 or 429", w.Code)
		}
		if time.Since(start) > 10*time.Second {
			t.Fatal("the shard never accepted again after its queue drained")
		}
	}
}

// slowDisk is the real disk with every Sync of a file opened for
// appending — a WAL segment — taking delay.
type slowDisk struct {
	fsys.FS
	delay time.Duration
}

func (d slowDisk) OpenAppend(path string) (fsys.File, error) {
	f, err := d.FS.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return slowFile{f, d.delay}, nil
}

type slowFile struct {
	fsys.File
	delay time.Duration
}

func (f slowFile) Sync() error {
	time.Sleep(f.delay)
	return f.File.Sync()
}

// TestClientHonorsRetryAfterAnd429: the retrying client treats 429 as
// retryable, and the wait it applies before each retry — measured at
// the server, from the moment the 429 was answered to the next
// attempt's arrival — is at least the server's one-second hint, not the
// client's 1ms base; it succeeds when the overload clears. With no
// retries left, the error matches resultshard.ErrOverloaded.
func TestClientHonorsRetryAfterAnd429(t *testing.T) {
	var mu sync.Mutex
	var answered, arrived []time.Time
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		arrived = append(arrived, time.Now())
		if len(arrived) <= 2 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(apiError{Error: "overloaded"})
			answered = append(answered, time.Now())
			return
		}
		json.NewEncoder(w).Encode(IngestResponse{Accepted: 1})
	}))
	defer ts.Close()

	c := fastClient(t, ts.URL)
	resp, err := c.Push(context.Background(), "k", []metricsdb.Result{result("b", "s", "fom", 1)})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	answeredAt, arrivedAt := slices.Clone(answered), slices.Clone(arrived)
	mu.Unlock()
	if resp.Accepted != 1 || len(arrivedAt) != 3 {
		t.Fatalf("resp=%+v after %d attempts, want accepted on the third", resp, len(arrivedAt))
	}
	for i, at := range answeredAt {
		if wait := arrivedAt[i+1].Sub(at); wait < time.Second {
			t.Errorf("retry %d came %v after the 429 that said Retry-After: 1", i+1, wait)
		}
	}

	overloaded := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer overloaded.Close()
	c = NewClient(overloaded.URL)
	c.MaxRetries = 0
	if _, err := c.Push(context.Background(), "k2", []metricsdb.Result{result("b", "s", "fom", 1)}); !errors.Is(err, resultshard.ErrOverloaded) {
		t.Fatalf("exhausted retries: %v, want ErrOverloaded", err)
	}
}

// TestNoRetryBeforeRetryAfter: eight runners told at the same moment to
// come back in one second each wait at least that second. Jitter that
// spread the wait around the hint, rather than past it, would send each
// one back early with probability ½, failing all but one run in 256.
func TestNoRetryBeforeRetryAfter(t *testing.T) {
	const runners = 8
	var mu sync.Mutex
	answered := map[string]time.Time{}
	waited := map[string]time.Duration{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req IngestRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		mu.Lock()
		defer mu.Unlock()
		if first, ok := answered[req.IngestKey]; ok {
			waited[req.IngestKey] = time.Since(first)
			json.NewEncoder(w).Encode(IngestResponse{Accepted: len(req.Results)})
			return
		}
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(apiError{Error: "overloaded"})
		answered[req.IngestKey] = time.Now()
	}))
	defer ts.Close()

	var wg sync.WaitGroup
	errs := make([]error, runners)
	for i := range runners {
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := fmt.Sprintf("runner-%d", i)
			_, errs[i] = NewClient(ts.URL).Push(context.Background(), key, []metricsdb.Result{result("b", "s", "fom", 1)})
		}()
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	for i, err := range errs {
		key := fmt.Sprintf("runner-%d", i)
		switch wait, ok := waited[key]; {
		case err != nil:
			t.Errorf("%s: %v", key, err)
		case !ok:
			t.Errorf("%s never retried", key)
		case wait < time.Second:
			t.Errorf("%s retried %v after its 429 said Retry-After: 1", key, wait)
		}
	}
}

// TestRetryWait pins the one retry rule: before retry n+1 the client
// waits d plus a draw from [0, d/2), d the larger of 50ms·2ⁿ and the
// server's Retry-After — so exactly d at the least draw and just under
// 3d/2 at the greatest.
func TestRetryWait(t *testing.T) {
	defer func(old func(int64) int64) { retryDraw = old }(retryDraw)
	failed := &retryableError{err: errors.New("server error 503")}
	overloaded := &retryableError{err: &resultshard.OverloadError{Shard: -1, RetryAfter: time.Second}}
	for _, tc := range []struct {
		n   int
		err error
		d   time.Duration
	}{
		{0, failed, 50 * time.Millisecond},
		{3, failed, 400 * time.Millisecond},
		{0, overloaded, time.Second},
		{4, overloaded, time.Second},
		{5, overloaded, 1600 * time.Millisecond}, // the doubled base outgrew the hint
		{99, failed, 50 * time.Millisecond << 30},
	} {
		retryDraw = func(int64) int64 { return 0 }
		if got := retryWait(tc.n, tc.err); got != tc.d {
			t.Errorf("retry %d after %v, least draw: wait %v, want %v", tc.n+1, tc.err, got, tc.d)
		}
		retryDraw = func(n int64) int64 { return n - 1 }
		if got, want := retryWait(tc.n, tc.err), tc.d+tc.d/2-1; got != want {
			t.Errorf("retry %d after %v, greatest draw: wait %v, want %v", tc.n+1, tc.err, got, want)
		}
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
// threshold go over the wire compressed; small ones stay plain, a
// nightly session's few kilobytes among them.
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
	c := fastClient(t, ts.URL)

	if _, err := c.Push(context.Background(), "small", []metricsdb.Result{result("b", "s", "fom", 1)}); err != nil {
		t.Fatal(err)
	}
	if got := lastEncoding.Load().(string); got != "" {
		t.Fatalf("small push encoded as %q, want identity", got)
	}
	session := pushOf("session", 20) // 3.4 KB of JSON
	if _, err := c.Push(context.Background(), "session", session); err != nil {
		t.Fatal(err)
	}
	if got := lastEncoding.Load().(string); got != "" {
		t.Fatalf("session-sized push encoded as %q, want identity", got)
	}
	if _, err := c.Push(context.Background(), "large", fleetResults(200)); err != nil {
		t.Fatal(err)
	}
	if got := lastEncoding.Load().(string); got != "gzip" {
		t.Fatalf("large push encoded as %q, want gzip", got)
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

// TestFollowerAcrossRotationMergeAndRestart: a follower pulling over
// HTTP from a plain store answers Query and Series byte for byte as the
// store does while the store rotates its WAL every batch or two, merges
// generations, and is closed — which folds the WAL tail — and reopened
// on the same directory. The reopened store's rows are rebuilt from its
// generations under the trace rule; the follower's came over the wire.
func TestFollowerAcrossRotationMergeAndRestart(t *testing.T) {
	dir := t.TempDir()
	open := func() *resultstore.Store {
		s, err := resultstore.Open(dir, resultstore.Options{SegmentBytes: 512})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	store := open()
	defer func() { store.Close() }()
	var handler atomic.Value // the current primary's http.Handler
	handler.Store(New(store, nil).Handler())
	primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.Load().(http.Handler).ServeHTTP(w, r)
	}))
	defer primary.Close()
	f, src := resultshard.NewFollower(), NewReplicaClient(primary.URL)
	same := func(step string) {
		t.Helper()
		if _, err := f.Sync(context.Background(), src); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		for _, flt := range []metricsdb.Filter{{}, {Benchmark: "bench-01"}, {System: "sys-02"}} {
			pq, _ := json.Marshal(store.Query(flt))
			fq, _ := json.Marshal(f.Query(flt))
			ps, _ := json.Marshal(store.Series(flt, "fom"))
			fs, _ := json.Marshal(f.Series(flt, "fom"))
			if !bytes.Equal(pq, fq) || !bytes.Equal(ps, fs) {
				t.Fatalf("%s: Query(%+v) or its Series differs:\nprimary:  %s\n%s\nfollower: %s\n%s", step, flt, pq, ps, fq, fs)
			}
		}
	}
	// Each round a traced batch, one of whose results carries its own
	// trace ID, and an untraced one; then a Compact.
	round := func(name string, i int) {
		traced := fleetResults(6)
		traced[2].TraceID = fmt.Sprintf("%032x", 1000+i)
		for _, b := range []resultstore.Batch{
			{Key: fmt.Sprintf("%s-traced-%d", name, i), TraceID: fmt.Sprintf("%032x", i+1), Results: traced},
			{Key: fmt.Sprintf("%s-untraced-%d", name, i), Results: fleetResults(4)},
		} {
			if _, err := store.Append(context.Background(), b); err != nil {
				t.Fatal(err)
			}
		}
		if err := store.Compact(); err != nil {
			t.Fatal(err)
		}
		same(fmt.Sprintf("%s round %d", name, i))
	}
	for i := 0; i < 6; i++ {
		round("first", i)
	}
	if h := store.Health(); h.ActiveSegment < 6 || h.SnapshotGenerations >= int(h.Compactions) {
		t.Fatalf("health %+v: want rotations and a merge (fewer generations than compactions)", h)
	}
	before, _ := json.Marshal(store.Query(metricsdb.Filter{}))
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if info, err := e.Info(); err != nil || strings.HasPrefix(e.Name(), "wal-") && info.Size() > 0 {
			t.Fatalf("after Close %s holds %d bytes (%v): the tail is not folded", e.Name(), info.Size(), err)
		}
	}
	store = open()
	handler.Store(New(store, nil).Handler())
	if after, _ := json.Marshal(store.Query(metricsdb.Filter{})); !bytes.Equal(after, before) {
		t.Fatalf("the reopened store serves\n%s\nwhere it served\n%s", after, before)
	}
	same("after the restart")
	for i := 0; i < 3; i++ {
		round("reopened", i)
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

// TestStaleReplicaPageIsExplained: a primary that starts serving pages
// repeating the follower's watermark leaves the follower where its last
// good pass put it, and says why through what a replica already emits:
// RunFollower counts each failed pass in
// resultsd_replica_sync_errors_total, /v1/replica/status carries the
// refusal in last_error with syncs standing still, and the follower's
// reads are those of its last good pass.
func TestStaleReplicaPageIsExplained(t *testing.T) {
	primarySrv, store := newTestServer(t)
	var stale atomic.Bool
	inner := primarySrv.Handler()
	primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if stale.Load() && r.URL.Path == "/v1/replica/delta" {
			q := r.URL.Query()
			after, _ := strconv.Atoi(q.Get("after"))
			q.Set("after", strconv.Itoa(after-1)) // the page starts at the watermark
			r.URL.RawQuery = q.Encode()
		}
		inner.ServeHTTP(w, r)
	}))
	defer primary.Close()
	if w := postResults(t, inner, "k0", fleetResults(10)); w.Code != http.StatusOK {
		t.Fatalf("primary ingest: %d %s", w.Code, w.Body)
	}
	f := resultshard.NewFollower()
	src := NewReplicaClient(primary.URL)
	if _, err := f.Sync(context.Background(), src); err != nil {
		t.Fatal(err)
	}
	tracer := telemetry.New(nil)
	fh := New(f, tracer).Handler()
	reads := func() (out []string) {
		for _, u := range []string{"/v1/series?benchmark=bench-01&fom=fom", "/v1/systems"} {
			w := get(t, fh, u)
			out = append(out, fmt.Sprint(w.Code, w.Body))
		}
		return out
	}
	good := reads()

	if _, err := store.Append(context.Background(), resultstore.Batch{Key: "k1", Results: fleetResults(10)}); err != nil {
		t.Fatal(err)
	}
	stale.Store(true)
	ctx, cancel := context.WithCancel(context.Background())
	loopDone := make(chan struct{})
	go func() {
		defer close(loopDone)
		RunFollower(ctx, f, src, 5*time.Millisecond, tracer)
	}()
	// Everything below is read while the loop still runs: a pass that
	// cancelling cuts short fails for that reason instead.
	defer func() {
		cancel()
		<-loopDone
	}()
	deadline := time.After(5 * time.Second)
	for tracer.Metrics().Snapshot().Counters["resultsd_replica_sync_errors_total"] < 2 {
		select {
		case <-deadline:
			t.Fatal("RunFollower counted no failed pass against the stale primary")
		case <-time.After(5 * time.Millisecond):
		}
	}
	if got := tracer.Metrics().Snapshot().Counters["resultsd_replica_syncs_total"]; got != 0 {
		t.Fatalf("resultsd_replica_syncs_total = %d against a stale primary, want 0", got)
	}
	var st resultshard.FollowerStatus
	if w := get(t, fh, "/v1/replica/status"); w.Code != http.StatusOK || json.Unmarshal(w.Body.Bytes(), &st) != nil {
		t.Fatalf("replica/status: %d %s", w.Code, w.Body)
	}
	if st.Syncs != 1 || st.Shards[0].MaxSeq != 10 || !strings.Contains(st.LastError, "does not follow this follower's seq 10") {
		t.Fatalf("status after stale pages = %+v, want syncs 1 at seq 10 and the refusal in last_error", st)
	}
	if got := reads(); !slices.Equal(got, good) {
		t.Fatalf("follower reads after stale pages\n%v\nwant those of its last good pass\n%v", got, good)
	}
}

// TestStoppedFollowerReportsNoError: cancelling RunFollower while a
// pass waits on the primary stops that pass; it is neither a completed
// pass nor a failed one. The status still shows the last good pass and
// no last_error, and neither counter moves.
func TestStoppedFollowerReportsNoError(t *testing.T) {
	primarySrv, _ := newTestServer(t)
	inner := primarySrv.Handler()
	var block atomic.Bool
	blocked := make(chan struct{}, 1)
	primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if block.Load() && r.URL.Path == "/v1/replica/delta" {
			select {
			case blocked <- struct{}{}:
			default:
			}
			<-r.Context().Done() // until the follower gives up the request
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer primary.Close()
	if w := postResults(t, inner, "k0", fleetResults(10)); w.Code != http.StatusOK {
		t.Fatalf("primary ingest: %d %s", w.Code, w.Body)
	}
	f := resultshard.NewFollower()
	tracer := telemetry.New(nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	loopDone := make(chan struct{})
	go func() {
		defer close(loopDone)
		RunFollower(ctx, f, NewReplicaClient(primary.URL), 5*time.Millisecond, tracer)
	}()
	deadline := time.After(5 * time.Second)
	for !f.Status().Synced {
		select {
		case <-deadline:
			t.Fatal("follower never completed a pass")
		case <-time.After(5 * time.Millisecond):
		}
	}
	block.Store(true)
	select {
	case <-blocked:
	case <-deadline:
		t.Fatal("no pass reached the blocking primary")
	}
	before := f.Status()
	counters := tracer.Metrics().Snapshot().Counters
	cancel()
	select {
	case <-loopDone:
	case <-time.After(5 * time.Second):
		t.Fatal("RunFollower did not stop on cancel")
	}

	var st resultshard.FollowerStatus
	if w := get(t, New(f, tracer).Handler(), "/v1/replica/status"); w.Code != http.StatusOK || json.Unmarshal(w.Body.Bytes(), &st) != nil {
		t.Fatalf("replica/status: %d %s", w.Code, w.Body)
	}
	if st.Syncs != before.Syncs || st.Shards[0].MaxSeq != 10 || st.LastError != "" {
		t.Fatalf("status after a stopped pass = %+v, want syncs %d at seq 10 and no last_error", st, before.Syncs)
	}
	after := tracer.Metrics().Snapshot().Counters
	for _, name := range []string{"resultsd_replica_syncs_total", "resultsd_replica_sync_errors_total"} {
		if after[name] != counters[name] {
			t.Errorf("%s = %d after the stopped pass, %d before it", name, after[name], counters[name])
		}
	}
	if got := after["resultsd_replica_syncs_total"]; got != int64(st.Syncs) {
		t.Errorf("resultsd_replica_syncs_total = %d, status says %d completed passes", got, st.Syncs)
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
