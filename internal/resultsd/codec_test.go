package resultsd

import (
	"bytes"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/metricsdb"
	"repro/internal/resultshard"
	"repro/internal/resultstore"
)

// freshGzip is the reference encoding: what a gzip.Writer built for
// this one body produces.
func freshGzip(t testing.TB, body []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(body); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// pushOf is a batch of n results under one system name nothing else
// uses, so what the store holds for that system is what this push
// delivered. At n >= 8 the body is over gzipMinBytes.
func pushOf(system string, n int) []metricsdb.Result {
	out := make([]metricsdb.Result, n)
	for i := range out {
		out[i] = result(fmt.Sprintf("bench-%02d", i%3), system, "fom", float64(i)+0.25)
		out[i].Meta = map[string]string{"runner": system, "slot": fmt.Sprint(i)}
	}
	return out
}

// storedAs strips what the store assigns, leaving what was pushed.
func storedAs(store *resultstore.Store, system string) []metricsdb.Result {
	got := store.Query(metricsdb.Filter{System: system})
	for i := range got {
		got[i].ID, got[i].Seq, got[i].TraceID = 0, 0, ""
	}
	return got
}

// postRaw sends body as a gzip-encoded (or plain) ingest request.
func postRaw(h http.Handler, body []byte, gzipped bool) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/results", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	if gzipped {
		req.Header.Set("Content-Encoding", "gzip")
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// TestPooledCodecConcurrentPushes: 8 runners × 50 compressed pushes
// share the pooled writers and readers. Every body on the wire must be
// byte for byte what a fresh gzip.Writer makes of that payload, and
// every push must decode server-side to exactly what was pushed.
func TestPooledCodecConcurrentPushes(t *testing.T) {
	const runners, pushes = 8, 50
	srv, store := newTestServer(t)
	inner := srv.Handler()
	var mu sync.Mutex
	wire := map[[sha256.Size]byte]bool{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil || r.Header.Get("Content-Encoding") != "gzip" {
			t.Errorf("push arrived unreadable or uncompressed (%v, %q)", err, r.Header.Get("Content-Encoding"))
		}
		mu.Lock()
		wire[sha256.Sum256(body)] = true
		mu.Unlock()
		r.Body = io.NopCloser(bytes.NewReader(body))
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	var wg sync.WaitGroup
	for g := 0; g < runners; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := NewClient(ts.URL)
			for n := 0; n < pushes; n++ {
				system := fmt.Sprintf("runner-%d-%d", g, n)
				resp, err := c.Push(context.Background(), system, pushOf(system, 8+n%5))
				if err != nil || resp.Accepted != 8+n%5 {
					t.Errorf("push %s: %+v, %v", system, resp, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for g := 0; g < runners; g++ {
		for n := 0; n < pushes; n++ {
			system := fmt.Sprintf("runner-%d-%d", g, n)
			pushed := pushOf(system, 8+n%5)
			if got := storedAs(store, system); !reflect.DeepEqual(got, pushed) {
				t.Fatalf("%s: the store holds %+v, the runner pushed %+v", system, got, pushed)
			}
			plain, err := json.Marshal(IngestRequest{IngestKey: system, Results: pushed})
			if err != nil {
				t.Fatal(err)
			}
			if len(plain) < gzipMinBytes {
				t.Fatalf("%s: a %d-byte body does not exercise the compressor", system, len(plain))
			}
			if !wire[sha256.Sum256(freshGzip(t, plain))] {
				t.Fatalf("%s: no request carried the bytes a fresh gzip.Writer produces for it", system)
			}
		}
	}
	if len(wire) != runners*pushes {
		t.Fatalf("%d distinct bodies on the wire, want %d", len(wire), runners*pushes)
	}
}

// TestCutGzipBodyLeavesTheNextPushIntact: a body that ends anywhere
// short of its last byte, fails gzip's own checksum, or carries anything
// after its one JSON value is a 400 that stores nothing, and the
// decompressor and buffers it leaves in the pool serve the next push as
// if new.
func TestCutGzipBodyLeavesTheNextPushIntact(t *testing.T) {
	srv, store := newTestServer(t)
	h := srv.Handler()
	plain, err := json.Marshal(IngestRequest{IngestKey: "cut", Results: pushOf("cut", 40)})
	if err != nil {
		t.Fatal(err)
	}
	whole := freshGzip(t, plain)
	flipped := bytes.Clone(whole)
	flipped[len(flipped)-6] ^= 0x40 // in the CRC-32 of the 8-byte trailer
	type body struct {
		name    string
		bytes   []byte
		gzipped bool
	}
	bodies := []body{
		{"flipped CRC byte", flipped, true},
		{"garbage after the gzip member", append(bytes.Clone(whole), "garbage"...), true},
		{"a second JSON value, gzip", freshGzip(t, append(bytes.Clone(plain), plain...)), true},
		{"trailing bytes, gzip", freshGzip(t, append(bytes.Clone(plain), " \n x"...)), true},
		{"trailing bytes, plain", append(bytes.Clone(plain), " \n x"...), false},
		{"a second JSON value, plain", append(bytes.Clone(plain), plain...), false},
	}
	// Mid-stream twice, just past the 10-byte header, inside it (the one
	// Reset itself refuses), and inside the last deflate block and the
	// trailer, where the JSON value is already complete.
	for _, cut := range []int{len(whole) / 2, len(whole) * 3 / 4, 11, 3, len(whole) - 1, len(whole) - 4, len(whole) - 9} {
		bodies = append(bodies, body{fmt.Sprintf("cut at %d of %d", cut, len(whole)), whole[:cut], true})
	}
	for round, b := range bodies {
		if w := postRaw(h, b.bytes, b.gzipped); w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", b.name, w.Code)
		}
		system := fmt.Sprintf("after-cut-%d", round)
		pushed := pushOf(system, 12)
		good, err := json.Marshal(IngestRequest{IngestKey: system, Results: pushed})
		if err != nil {
			t.Fatal(err)
		}
		if w := postRaw(h, freshGzip(t, good), true); w.Code != http.StatusOK {
			t.Fatalf("push after %s: %d %s", b.name, w.Code, w.Body)
		}
		if got := storedAs(store, system); !reflect.DeepEqual(got, pushed) {
			t.Fatalf("push after %s stored %+v, want %+v", b.name, got, pushed)
		}
	}
	if n := len(store.Query(metricsdb.Filter{System: "cut"})); n != 0 {
		t.Fatalf("%d results of a refused body were stored", n)
	}
	// Whitespace after the value is not "anything".
	if w := postRaw(h, append(bytes.Clone(plain), " \r\n\t"...), false); w.Code != http.StatusOK {
		t.Fatalf("body with trailing whitespace: %d %s", w.Code, w.Body)
	}
}

// TestRepliesMatchEncodingJSON: the two replies the server appends by
// hand — a series and a replica page — are byte for byte what
// json.Marshal makes of the declared reply types, full and empty, and a
// follower's client reads the page back as the results it was cut from.
func TestRepliesMatchEncodingJSON(t *testing.T) {
	srv, store := newTestServer(t)
	h := srv.Handler()
	const fom = "bw <GB/s> & \"time\""
	pushed := pushOf("wire", 9)
	for i, v := range []float64{1e-7, 1e21, -0.5, 3, 5e-324} {
		pushed[i].FOMs = map[string]float64{fom: v}
	}
	pushed[8].Manifest = "spack:\n  specs: [saxpy +openmp]\n"
	if w := postResults(t, h, "wire", pushed); w.Code != http.StatusOK {
		t.Fatalf("ingest: %d %s", w.Code, w.Body)
	}
	reply := func(u string, want any) {
		t.Helper()
		data, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if w := get(t, h, u); w.Code != http.StatusOK || w.Body.String() != string(data)+"\n" {
			t.Fatalf("GET %s: %d\n%s\njson.Marshal of the reply type gives\n%s", u, w.Code, w.Body, data)
		}
	}
	series := SeriesResponse{FOM: fom, Points: []SeriesPoint{}}
	for _, p := range store.Series(metricsdb.Filter{System: "wire"}, fom) {
		series.Points = append(series.Points, SeriesPoint{Seq: p.Seq, Value: p.Value, TraceID: p.TraceID})
	}
	if len(series.Points) != 5 || series.Points[0].TraceID == "" {
		t.Fatalf("series under test: %+v", series)
	}
	q := url.Values{"system": {"wire"}, "fom": {fom}}
	reply("/v1/series?"+q.Encode(), series)
	reply("/v1/series?system=nowhere&fom=x", SeriesResponse{FOM: "x", Points: []SeriesPoint{}})
	all := store.Query(metricsdb.Filter{})
	reply("/v1/replica/delta?shard=0&after=0", resultshard.ReplicaDelta{MaxSeq: 9, Results: all})
	reply("/v1/replica/delta?shard=0&after=4", resultshard.ReplicaDelta{MaxSeq: 9, Results: all[4:]})
	reply("/v1/replica/delta?shard=0&after=9", resultshard.ReplicaDelta{MaxSeq: 9})

	ts := httptest.NewServer(h)
	defer ts.Close()
	page, err := NewReplicaClient(ts.URL).ReplicaDelta(context.Background(), 0, 4)
	if err != nil || page.MaxSeq != 9 || !reflect.DeepEqual(page.Results, all[4:]) {
		t.Fatalf("the client read the page as %+v, %v", page, err)
	}
}

// emptyObjects is the largest body the ingest bound admits made of the
// cheapest element there is: 2.8 million results that say nothing, a
// few kilobytes once compressed.
func emptyObjects() []byte {
	body := []byte(`{"ingest_key":"k","results":[{}`)
	body = append(body, bytes.Repeat([]byte(",{}"), (maxIngestBytes-len(body)-2)/3)...)
	return append(body, "]}"...)
}

// allocatedBy is how many bytes fn allocated, all goroutines counted.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestIngestRefusesAtTheFirstInvalidResult: results are validated as
// they are decoded, so 8 kB on the wire cannot make the server build
// 2.8 million Results (1.8 GB of slice growth) before it answers 400 —
// what is left is the body buffer's own growth to the 8 MiB bound. The
// refusal names the result, stores nothing, and leaves the next push
// intact.
func TestIngestRefusesAtTheFirstInvalidResult(t *testing.T) {
	srv, store := newTestServer(t)
	h := srv.Handler()
	hostile := freshGzip(t, emptyObjects())
	if len(hostile) > 16<<10 {
		t.Fatalf("the hostile body is %d bytes compressed", len(hostile))
	}
	var w *httptest.ResponseRecorder
	if got := allocatedBy(func() { w = postRaw(h, hostile, true) }); !raceEnabled && got >= 64<<20 {
		t.Errorf("refusing %d bytes on the wire allocated %d MB, want < 64", len(hostile), got>>20)
	}
	if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), `"result 0 needs benchmark and system"`) {
		t.Fatalf("hostile body: %d %s", w.Code, w.Body)
	}
	third := pushOf("third", 3)
	third[2].System = ""
	if w := postResults(t, h, "third", third); w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), `"result 2 needs benchmark and system"`) {
		t.Fatalf("a push whose third result names no system: %d %s", w.Code, w.Body)
	}
	if store.Len() != 0 {
		t.Fatalf("%d results of refused pushes were stored", store.Len())
	}
	pushed := pushOf("after-refusal", 3)
	if w := postResults(t, h, "after-refusal", pushed); w.Code != http.StatusOK {
		t.Fatalf("push after the refusals: %d %s", w.Code, w.Body)
	}
	if got := storedAs(store, "after-refusal"); store.Len() != 3 || !reflect.DeepEqual(got, pushed) {
		t.Fatalf("push after the refusals stored %+v, want %+v", got, pushed)
	}
}

// keeper is a Backend that gives up on every batch — the caller's
// context is done, say — and keeps it all the same, as a store's commit
// queue does.
type keeper struct {
	Backend
	kept []resultstore.Batch
}

func (k *keeper) Append(_ context.Context, b resultstore.Batch) (bool, error) {
	k.kept = append(k.kept, b)
	return false, context.Canceled
}

// TestBackendKeepsItsBatch: nothing the handler pools is handed to the
// backend. A batch the backend kept after a failed Append still holds
// its own results once later pushes of the same size have been decoded
// through the same scratch.
func TestBackendKeepsItsBatch(t *testing.T) {
	backend := &keeper{}
	h := New(backend, nil).Handler()
	const rounds = 8 // sync.Pool may drop a scratch now and then; not eight times
	for n := 0; n < rounds; n++ {
		key := fmt.Sprintf("kept-%d", n)
		if w := postResults(t, h, key, pushOf(key, 12)); w.Code != http.StatusInternalServerError {
			t.Fatalf("push %s into a backend that gave up: %d %s", key, w.Code, w.Body)
		}
	}
	for n, b := range backend.kept {
		key := fmt.Sprintf("kept-%d", n)
		if b.Key != key || !reflect.DeepEqual(b.Results, pushOf(key, 12)) {
			t.Fatalf("batch %s, kept by the backend, now reads %+v", key, b)
		}
	}
	if len(backend.kept) != rounds {
		t.Fatalf("the backend saw %d batches, want %d", len(backend.kept), rounds)
	}
}

// TestIngestAllocationBudget pins the handler's cost model: a push is
// read, decoded and validated in borrowed memory, and the one thing
// allocated per result beyond its own maps and strings is its place in
// the exact-size []Result the backend is handed — 12.5 KiB for 100.
// Measured 46.8 kB a push (it repeats exactly), the request, the
// recorder and a hundred one-entry maps included; pinned with a third
// of headroom. Decoding into a fresh slice grown by doubling, which
// the backend was then handed with its slack, took 72.
func TestIngestAllocationBudget(t *testing.T) {
	backend := &lastBatch{}
	h := New(backend, nil).Handler()
	batch := make([]metricsdb.Result, 100) // loadgen's shape: one FOM, no Meta
	for i := range batch {
		batch[i] = result(fmt.Sprintf("bench-%02d", i%3), "budget", "fom", float64(i)+0.25)
	}
	body, err := json.Marshal(IngestRequest{IngestKey: "budget", Results: batch})
	if err != nil {
		t.Fatal(err)
	}
	postRaw(h, body, false) // sizes the scratch
	var perPush []uint64
	for n := 0; n < 21; n++ {
		perPush = append(perPush, allocatedBy(func() {
			if w := postRaw(h, body, false); w.Code != http.StatusOK {
				t.Fatalf("push: %d %s", w.Code, w.Body)
			}
		}))
		if got := backend.got.Results; len(got) != 100 || cap(got) != 100 {
			t.Fatalf("the backend was handed %d results in room for %d, want exactly 100", len(got), cap(got))
		}
	}
	sort.Slice(perPush, func(i, j int) bool { return perPush[i] < perPush[j] })
	t.Logf("a 100-result push allocates %d bytes (median)", perPush[len(perPush)/2])
	if median := perPush[len(perPush)/2]; !raceEnabled && median >= 60<<10 {
		t.Fatalf("median 100-result push allocates %d bytes, want < %d (sorted: %v)", median, 60<<10, perPush)
	}
}

// TestPushAllocationBudget pins the client's cost model: a compressed
// push borrows its compressor. Building one per push is ~850 KiB; the
// median push here — the median, because a push that meets a pool the
// GC emptied reads high — stays under 128 KiB with the whole in-process
// HTTP round trip included.
func TestPushAllocationBudget(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) //nolint:errcheck
		writeJSON(w, http.StatusOK, IngestResponse{Accepted: 20})
	}))
	defer ts.Close()
	c := fastClient(t, ts.URL)
	batch := pushOf("budget", 20)
	push := func(n int) {
		if _, err := c.Push(context.Background(), fmt.Sprintf("budget-%d", n), batch); err != nil {
			t.Fatal(err)
		}
	}
	push(0) // connection set-up, and the pool's first compressor
	var perPush []uint64
	for n := 1; n <= 21; n++ {
		perPush = append(perPush, allocatedBy(func() { push(n) }))
	}
	sort.Slice(perPush, func(i, j int) bool { return perPush[i] < perPush[j] })
	if median := perPush[len(perPush)/2]; !raceEnabled && median >= 128<<10 {
		t.Fatalf("median push allocates %d KiB, want < 128 (per push, sorted: %v)", median>>10, perPush)
	}
}

// leastAllocation is the least of what 21 calls of fn allocate, after
// one call that warms connections and pools: a call that meets a pool
// the GC — or, under the race detector, chance — emptied reads high.
func leastAllocation(fn func()) uint64 {
	fn()
	least := allocatedBy(fn)
	for range 20 {
		least = min(least, allocatedBy(fn))
	}
	return least
}

// TestQueryAllocationBudget pins what a dashboard read costs with client
// and server in one process: a series GET allocates its two answers —
// the server's []metricsdb.Point and the client's []SeriesPoint, 32
// bytes a point each — plus the HTTP round trip, but neither the reply's
// bytes (read into a pooled buffer) nor a slice grown by doubling; a
// regression scan allocates no series at all (the server borrows it).
// Over 2,000 points that is 140 kB a series GET and 9 kB a scan; reading
// each reply into a buffer of its own, decoding into a slice grown by
// doubling and scanning a fresh series took 325 kB and 75 kB.
func TestQueryAllocationBudget(t *testing.T) {
	srv, store := newTestServer(t)
	const points = 2000
	batch := make([]metricsdb.Result, points)
	for i := range batch {
		batch[i] = result("saxpy", "cts1", "saxpy_time", 1+float64(i%7)/100)
	}
	ctx := context.Background()
	if _, err := store.AppendMany(ctx, []resultstore.Batch{{Key: "budget", Results: batch}}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := fastClient(t, ts.URL)
	f := metricsdb.Filter{System: "cts1", Benchmark: "saxpy"}
	answers := uint64(2 * points * 32)
	series := leastAllocation(func() {
		if pts, err := c.Series(ctx, f, "saxpy_time"); err != nil || len(pts) != points || cap(pts) != points {
			t.Fatalf("Series: %d points in room for %d, %v; want exactly %d", len(pts), cap(pts), err, points)
		}
	})
	scan := leastAllocation(func() {
		if regs, err := c.Regressions(ctx, f, "saxpy_time", 0, 0); err != nil || len(regs) != 0 {
			t.Fatalf("Regressions over a flat series: %v, %v", regs, err)
		}
	})
	t.Logf("a %d-point series GET allocates %d bytes, a scan of it %d (least of 21)", points, series, scan)
	if raceEnabled {
		return
	}
	if series >= answers+answers/4 {
		t.Errorf("a %d-point series GET allocates %d bytes, want < %d", points, series, answers+answers/4)
	}
	if scan >= answers/8 {
		t.Errorf("a regression scan of %d points allocates %d bytes, want < %d", points, scan, answers/8)
	}
}

// lastBatch is the Backend the fuzzer serves from: it keeps, in memory,
// the last batch the handler handed down, so an exec costs microseconds
// and runs the same code every time (a store's fsync and committer
// goroutine would make it milliseconds and its coverage a coin flip).
// Ingest calls nothing but Append.
type lastBatch struct {
	Backend
	got resultstore.Batch
}

func (b *lastBatch) Append(_ context.Context, batch resultstore.Batch) (bool, error) {
	b.got = batch
	return true, nil
}

// FuzzIngestBody: the ingest handler takes whatever a runner — or
// anything else that can reach the port — sends, and its decompressor
// is reused from request to request. Whatever the body, the handler
// must not panic, must answer with one of the statuses it documents,
// and must leave the next well-formed compressed push accepted and
// stored intact.
func FuzzIngestBody(f *testing.F) {
	valid, err := json.Marshal(IngestRequest{IngestKey: "seed", Results: pushOf("seed", 12)})
	if err != nil {
		f.Fatal(err)
	}
	zipped := freshGzip(f, valid)
	f.Add(valid, false)
	f.Add(zipped, true)
	f.Add(zipped[:len(zipped)/2], true)
	f.Add(freshGzip(f, []byte("not json at all")), true)
	f.Add(append(append([]byte(nil), zipped...), "garbage after the member"...), true)
	f.Add(valid, true) // plain bytes announced as gzip
	f.Add(freshGzip(f, emptyObjects()), true)

	pushed := pushOf("after-hostile", 10)
	good, err := json.Marshal(IngestRequest{IngestKey: "after-hostile", Results: pushed})
	if err != nil {
		f.Fatal(err)
	}
	good = freshGzip(f, good)

	backend := &lastBatch{}
	h := New(backend, nil).Handler()
	f.Fuzz(func(t *testing.T, body []byte, gzipped bool) {
		switch w := postRaw(h, body, gzipped); w.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusForbidden,
			http.StatusTooManyRequests, http.StatusInternalServerError:
		default:
			t.Fatalf("status %d for a %d-byte body (gzip %v)", w.Code, len(body), gzipped)
		}
		backend.got = resultstore.Batch{}
		if w := postRaw(h, good, true); w.Code != http.StatusOK {
			t.Fatalf("well-formed push after the hostile body: %d %s", w.Code, w.Body)
		}
		if got := backend.got; got.Key != "after-hostile" || !reflect.DeepEqual(got.Results, pushed) {
			t.Fatalf("well-formed push after the hostile body reached the backend as %+v, want %+v", got, pushed)
		}
	})
}
