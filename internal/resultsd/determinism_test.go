package resultsd

import (
	"net/http"
	"testing"
	"time"

	"repro/internal/metricsdb"
	"repro/internal/resultstore"
	"repro/internal/telemetry"
)

// TestServeByteIdenticalAcrossRestart is the determinism guard for the
// federation service: ingest a workload, capture every query
// endpoint's exact response bytes, shut the store down, recover it
// from disk, and re-serve — the bytes must be identical. This pins
// both halves of the contract: recovery rebuilds the exact state
// (resultstore), and responses contain nothing nondeterministic such
// as wall-clock stamps or map-ordered fields (resultsd).
func TestServeByteIdenticalAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	clock := telemetry.FixedClock{T: time.Unix(1700000000, 0)}
	opts := resultstore.Options{SegmentBytes: 256, NoBackgroundCompact: true}

	store, err := resultstore.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(store, telemetry.New(clock))
	h := srv.Handler()
	// Enough batches to force segment rotation, plus an explicit
	// compaction so recovery exercises the snapshot path too.
	for i, v := range []float64{1.0, 1.05, 0.98, 1.02, 1.4, 1.01} {
		key := "det-" + string(rune('a'+i))
		w := postResults(t, h, key, []metricsdb.Result{
			result("saxpy", "cts1", "saxpy_time", v),
			result("saxpy", "cloud-c5n", "saxpy_time", v*2),
		})
		if w.Code != http.StatusOK {
			t.Fatalf("ingest %s: %d %s", key, w.Code, w.Body)
		}
	}
	if err := store.Compact(); err != nil {
		t.Fatal(err)
	}

	urls := []string{
		"/v1/series?benchmark=saxpy&fom=saxpy_time",
		"/v1/series?benchmark=saxpy&system=cts1&fom=saxpy_time",
		"/v1/regressions?benchmark=saxpy&system=cts1&fom=saxpy_time",
		"/v1/regressions?benchmark=saxpy&fom=saxpy_time&window=3&threshold=1.3",
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
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store2, err := resultstore.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	h2 := New(store2, telemetry.New(clock)).Handler()
	for _, u := range urls {
		w := get(t, h2, u)
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s after restart: %d %s", u, w.Code, w.Body)
		}
		if got := w.Body.String(); got != before[u] {
			t.Fatalf("GET %s differs across restart:\nbefore %q\n after %q", u, before[u], got)
		}
	}
}
