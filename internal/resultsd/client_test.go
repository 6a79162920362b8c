package resultsd

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metricsdb"
	"repro/internal/resultstore"
	"repro/internal/telemetry"
)

func fastClient(baseURL string) *Client {
	c := NewClient(baseURL)
	c.RetryBackoff = time.Millisecond
	c.Jitter = NoJitter
	return c
}

func TestClientRoundTrip(t *testing.T) {
	srv, _ := newTestServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := fastClient(ts.URL)
	ctx := context.Background()

	resp, err := c.Push(ctx, "k1", []metricsdb.Result{
		result("saxpy", "cts1", "saxpy_time", 1.0),
		result("saxpy", "cts1", "saxpy_time", 1.1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 2 || resp.Duplicate {
		t.Fatalf("Push = %+v", resp)
	}
	resp, err = c.Push(ctx, "k1", []metricsdb.Result{result("saxpy", "cts1", "saxpy_time", 9)})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Duplicate {
		t.Fatalf("second Push = %+v, want duplicate", resp)
	}

	pts, err := c.Series(ctx, metricsdb.Filter{Benchmark: "saxpy"}, "saxpy_time")
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[0].Value != 1.0 || pts[1].Value != 1.1 {
		t.Fatalf("Series = %+v", pts)
	}

	systems, err := c.Systems(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(systems) != 1 || systems[0] != "cts1" {
		t.Fatalf("Systems = %v", systems)
	}

	regs, err := c.Regressions(ctx, metricsdb.Filter{Benchmark: "saxpy"}, "saxpy_time", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("Regressions = %+v", regs)
	}
}

func TestClientRetriesServerErrors(t *testing.T) {
	var calls atomic.Int32
	backend, _ := newTestServer(t)
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, `{"error":"temporarily overloaded"}`, http.StatusServiceUnavailable)
			return
		}
		backend.Handler().ServeHTTP(w, r)
	}))
	defer flaky.Close()
	c := fastClient(flaky.URL)
	resp, err := c.Push(context.Background(), "k1",
		[]metricsdb.Result{result("saxpy", "cts1", "saxpy_time", 1.0)})
	if err != nil {
		t.Fatalf("push through flaky server: %v", err)
	}
	if resp.Accepted != 1 {
		t.Fatalf("Push = %+v", resp)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3 (two 503s then success)", got)
	}
}

func TestClientRetriesExhaust(t *testing.T) {
	var calls atomic.Int32
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"down"}`, http.StatusInternalServerError)
	}))
	defer down.Close()
	c := fastClient(down.URL)
	c.MaxRetries = 2
	_, err := c.Systems(context.Background())
	if err == nil {
		t.Fatal("expected error from a permanently down server")
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3 (1 try + 2 retries)", got)
	}
}

func TestClientDoesNotRetryClientErrors(t *testing.T) {
	var calls atomic.Int32
	srv, _ := newTestServer(t)
	counting := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		srv.Handler().ServeHTTP(w, r)
	}))
	defer counting.Close()
	c := fastClient(counting.URL)
	// Empty results is a 400 — terminal, one attempt only.
	_, err := c.Push(context.Background(), "k1", nil)
	if err == nil {
		t.Fatal("expected 400 from empty results")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d calls, want 1 (no retry on 4xx)", got)
	}
}

// TestClientRefusesReplyOverTheBound: a reply longer than the client
// reads is an error that says so, after one attempt — not the first
// 8 MiB of it handed to the JSON decoder ("unexpected end of JSON
// input"), and not retried: a retry reads the same bytes. Both ways a
// server can frame a body: a stated Content-Length, and chunked.
func TestClientRefusesReplyOverTheBound(t *testing.T) {
	body := []byte(`{"systems":["` + strings.Repeat("x", maxIngestBytes) + `"]}`)
	for _, chunked := range []bool{false, true} {
		var calls atomic.Int32
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			calls.Add(1)
			if chunked {
				w.(http.Flusher).Flush() // headers leave before the length is known
			} else {
				w.Header().Set("Content-Length", strconv.Itoa(len(body)))
			}
			w.Write(body)
		}))
		_, err := fastClient(ts.URL).Systems(context.Background())
		ts.Close()
		want := fmt.Sprintf("reply of %d bytes exceeds the %d-byte limit", len(body), maxIngestBytes)
		if chunked {
			want = fmt.Sprintf("chunked reply exceeds the %d-byte limit", maxIngestBytes)
		}
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("chunked=%v: err = %v, want %q", chunked, err, want)
		}
		if got := calls.Load(); got != 1 {
			t.Errorf("chunked=%v: server saw %d calls, want 1 (an over-long reply is terminal)", chunked, got)
		}
	}
	// At the bound exactly, either framing still reads.
	exact := []byte(`{"systems":["` + strings.Repeat("x", maxIngestBytes-len(`{"systems":[""]}`)) + `"]}`)
	for _, chunked := range []bool{false, true} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if chunked {
				w.(http.Flusher).Flush()
			} else {
				w.Header().Set("Content-Length", strconv.Itoa(len(exact)))
			}
			w.Write(exact)
		}))
		got, err := fastClient(ts.URL).Systems(context.Background())
		ts.Close()
		if err != nil || len(got) != 1 || len(exact) != maxIngestBytes {
			t.Errorf("chunked=%v: a %d-byte reply: %d systems, err %v", chunked, len(exact), len(got), err)
		}
	}
}

func TestClientRetriesTransportErrors(t *testing.T) {
	// A server that is immediately closed: connections are refused.
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close()
	c := fastClient(dead.URL)
	c.MaxRetries = 1
	start := time.Now()
	_, err := c.Systems(context.Background())
	if err == nil {
		t.Fatal("expected connection error")
	}
	// One backoff happened, proving the transport error was retried.
	if elapsed := time.Since(start); elapsed < time.Millisecond {
		t.Fatalf("returned in %v: retry backoff did not run", elapsed)
	}
}

func TestClientContextCancellation(t *testing.T) {
	var calls atomic.Int32
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"down"}`, http.StatusInternalServerError)
	}))
	defer down.Close()
	c := fastClient(down.URL)
	c.MaxRetries = 1000
	c.RetryBackoff = 10 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	_, err := c.Systems(ctx)
	if err == nil {
		t.Fatal("expected cancellation error")
	}
	if got := calls.Load(); got > 5 {
		t.Fatalf("server saw %d calls before cancellation; retries ignored the context", got)
	}
}

// TestClientRetryIsIdempotent pins the property the whole retry design
// rests on: a POST retried after a 5xx that actually reached the store
// does not double-ingest, because the ingest key dedups.
func TestClientRetryIsIdempotent(t *testing.T) {
	store, err := resultstore.Open(t.TempDir(), resultstore.Options{
		Clock:               telemetry.FixedClock{T: time.Unix(1700000000, 0)},
		NoBackgroundCompact: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv := New(store, nil)
	var calls atomic.Int32
	// The cruelest failure: the store applies the batch, then the
	// response is lost (emulated by a 500 AFTER the real handler ran).
	evil := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, r)
			http.Error(w, `{"error":"response lost"}`, http.StatusBadGateway)
			return
		}
		srv.Handler().ServeHTTP(w, r)
	}))
	defer evil.Close()
	c := fastClient(evil.URL)
	resp, err := c.Push(context.Background(), "k1",
		[]metricsdb.Result{result("saxpy", "cts1", "saxpy_time", 1.0)})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Duplicate {
		t.Fatalf("retry after applied-but-lost response: %+v, want duplicate ack", resp)
	}
	if store.Len() != 1 {
		t.Fatalf("store holds %d results, want 1 (no double ingest)", store.Len())
	}
}

// TestClientAttemptTimeout proves the per-attempt deadline frees a
// wedged attempt without giving up the whole call: the first attempt
// hangs until its own context fires, the retry succeeds.
func TestClientAttemptTimeout(t *testing.T) {
	var calls atomic.Int32
	backend, _ := newTestServer(t)
	release := make(chan struct{})
	defer close(release)
	stuck := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			// Drain the body so the server watches the connection;
			// then wedge until the attempt deadline makes the client
			// hang up (or the test ends, so Close never deadlocks).
			io.Copy(io.Discard, r.Body)
			select {
			case <-r.Context().Done():
			case <-release:
			}
			return
		}
		backend.Handler().ServeHTTP(w, r)
	}))
	defer stuck.Close()
	c := fastClient(stuck.URL)
	c.AttemptTimeout = 50 * time.Millisecond
	resp, err := c.Push(context.Background(), "k1",
		[]metricsdb.Result{result("saxpy", "cts1", "saxpy_time", 1.0)})
	if err != nil {
		t.Fatalf("push through stuck-then-healthy server: %v", err)
	}
	if resp.Accepted != 1 {
		t.Fatalf("Push = %+v", resp)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("server saw %d calls, want 2 (one wedged, one retried)", got)
	}
}
