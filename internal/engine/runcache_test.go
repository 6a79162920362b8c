package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/cachekey"
)

// cacheableRunner wraps mockRunner with the CacheableRunner contract:
// each experiment's outcome is a deterministic string derived from its
// salt, kept in outcomes[] whether executed or restored.
type cacheableRunner struct {
	mockRunner
	salts    []string // per-experiment key input; edit one to model a spec change
	outcomes []string
	execs    atomic.Int64 // real Execute calls (not replays)
	restored atomic.Int64
	keyed    []atomic.Int64 // ExperimentKey calls per experiment
}

func newCacheableRunner(n int) *cacheableRunner {
	r := &cacheableRunner{mockRunner: mockRunner{label: "cached@test", n: n}}
	r.salts = make([]string, n)
	r.outcomes = make([]string, n)
	r.keyed = make([]atomic.Int64, n)
	for i := range r.salts {
		r.salts[i] = fmt.Sprintf("salt-%d", i)
	}
	return r
}

func (r *cacheableRunner) Execute(ctx context.Context, i int) error {
	r.execs.Add(1)
	r.outcomes[i] = "computed:" + r.salts[i]
	return r.mockRunner.Execute(ctx, i)
}

func (r *cacheableRunner) ExperimentKey(i int) cachekey.Key {
	r.keyed[i].Add(1)
	return cachekey.Hash(r.salts[i]).Derive("execute")
}

func (r *cacheableRunner) MarshalExperiment(i int) ([]byte, error) {
	return json.Marshal(r.outcomes[i])
}

func (r *cacheableRunner) RestoreExperiment(_ context.Context, i int, data []byte) error {
	var out string
	if err := json.Unmarshal(data, &out); err != nil {
		return err
	}
	r.outcomes[i] = out
	r.restored.Add(1)
	return nil
}

func openRunLayer(t testing.TB, dir string) *cachekey.Layer {
	t.Helper()
	st, err := cachekey.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st.Layer("run")
}

func TestWarmRunExecutesZeroExperiments(t *testing.T) {
	dir := t.TempDir()

	cold := newCacheableRunner(12)
	crep, err := Run(context.Background(), cold, Options{Jobs: 4, Cache: openRunLayer(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	if cold.execs.Load() != 12 || crep.CacheHits != 0 {
		t.Fatalf("cold run: execs=%d hits=%d", cold.execs.Load(), crep.CacheHits)
	}

	warm := newCacheableRunner(12)
	wrep, err := Run(context.Background(), warm, Options{Jobs: 4, Cache: openRunLayer(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	if got := warm.execs.Load(); got != 0 {
		t.Errorf("warm run executed %d experiments, want 0", got)
	}
	if wrep.CacheHits != 12 || warm.restored.Load() != 12 {
		t.Errorf("warm run: CacheHits=%d restored=%d, want 12/12", wrep.CacheHits, warm.restored.Load())
	}
	// The report is otherwise indistinguishable from the cold run's.
	if wrep.Executed != 12 || wrep.Failed != 0 || wrep.Total != 12 {
		t.Errorf("warm report = %+v", wrep)
	}
	if warm.outcomes[3] != "computed:salt-3" {
		t.Errorf("restored outcome = %q", warm.outcomes[3])
	}
	// Commits still run for replayed experiments, in index order.
	if len(warm.commits) != 12 {
		t.Fatalf("warm commits = %v", warm.commits)
	}
	for i, c := range warm.commits {
		if c != i {
			t.Fatalf("warm commit order broken: %v", warm.commits)
		}
	}
	// Per-layer accounting lands in the report and its summary.
	if len(wrep.Cache) != 1 || wrep.Cache[0].Layer != "run" ||
		wrep.Cache[0].Hits != 12 || wrep.Cache[0].Misses != 0 || wrep.Cache[0].Bytes == 0 {
		t.Errorf("cache stats = %+v", wrep.Cache)
	}
}

// TestExperimentKeyComputedOncePerExperiment: a key hashes an
// experiment's whole rendered text, so the engine asks for it once —
// on a miss the key that missed is the key the outcome is stored under.
func TestExperimentKeyComputedOncePerExperiment(t *testing.T) {
	dir := t.TempDir()
	for _, pass := range []string{"cold", "warm"} {
		r := newCacheableRunner(6)
		rep, err := Run(context.Background(), r, Options{Jobs: 3, Cache: openRunLayer(t, dir)})
		if err != nil {
			t.Fatal(err)
		}
		if want := map[string]int{"cold": 0, "warm": 6}[pass]; rep.CacheHits != want {
			t.Errorf("%s run replayed %d experiments, want %d", pass, rep.CacheHits, want)
		}
		for i := range r.keyed {
			if n := r.keyed[i].Load(); n != 1 {
				t.Errorf("%s run computed experiment %d's key %d times, want once", pass, i, n)
			}
		}
	}
}

func TestWarmRunReExecutesOnlyTheDelta(t *testing.T) {
	dir := t.TempDir()
	cold := newCacheableRunner(8)
	if _, err := Run(context.Background(), cold, Options{Jobs: 4, Cache: openRunLayer(t, dir)}); err != nil {
		t.Fatal(err)
	}

	// One experiment's key input changes — a single spec/variable edit.
	warm := newCacheableRunner(8)
	warm.salts[5] = "salt-5-edited"
	wrep, err := Run(context.Background(), warm, Options{Jobs: 4, Cache: openRunLayer(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	if got := warm.execs.Load(); got != 1 {
		t.Errorf("delta run executed %d experiments, want exactly 1", got)
	}
	if wrep.CacheHits != 7 {
		t.Errorf("delta run CacheHits = %d, want 7", wrep.CacheHits)
	}
	if warm.outcomes[5] != "computed:salt-5-edited" {
		t.Errorf("edited experiment outcome = %q", warm.outcomes[5])
	}

	// The edited result was cached in turn: a third run is fully warm.
	third := newCacheableRunner(8)
	third.salts[5] = "salt-5-edited"
	if _, err := Run(context.Background(), third, Options{Jobs: 4, Cache: openRunLayer(t, dir)}); err != nil {
		t.Fatal(err)
	}
	if got := third.execs.Load(); got != 0 {
		t.Errorf("third run executed %d experiments, want 0", got)
	}
}

func TestCorruptedCacheEntryReExecutes(t *testing.T) {
	dir := t.TempDir()
	cold := newCacheableRunner(4)
	if _, err := Run(context.Background(), cold, Options{Jobs: 2, Cache: openRunLayer(t, dir)}); err != nil {
		t.Fatal(err)
	}
	// Corrupt every persisted entry.
	err := filepath.Walk(filepath.Join(dir, "run"), func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		return os.WriteFile(path, []byte("zap"), 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}

	warm := newCacheableRunner(4)
	wrep, err := Run(context.Background(), warm, Options{Jobs: 2, Cache: openRunLayer(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	if got := warm.execs.Load(); got != 4 {
		t.Errorf("corrupt cache: executed %d, want 4 (all cold misses)", got)
	}
	if wrep.CacheHits != 0 || wrep.Failed != 0 {
		t.Errorf("corrupt cache report: hits=%d failed=%d", wrep.CacheHits, wrep.Failed)
	}
}

// failingRestoreCache serves bytes the runner cannot restore.
type failingRestoreCache struct{ inner ExperimentCache }

func (f failingRestoreCache) Get(k cachekey.Key) ([]byte, bool) {
	if _, ok := f.inner.Get(k); ok {
		return []byte("not json"), true
	}
	return nil, false
}
func (f failingRestoreCache) Put(k cachekey.Key, d []byte) error { return f.inner.Put(k, d) }

func TestRestoreFailureFallsBackToExecute(t *testing.T) {
	dir := t.TempDir()
	cold := newCacheableRunner(3)
	if _, err := Run(context.Background(), cold, Options{Jobs: 1, Cache: openRunLayer(t, dir)}); err != nil {
		t.Fatal(err)
	}

	warm := newCacheableRunner(3)
	cache := failingRestoreCache{inner: openRunLayer(t, dir)}
	wrep, err := Run(context.Background(), warm, Options{Jobs: 1, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if got := warm.execs.Load(); got != 3 {
		t.Errorf("restore failures must re-execute: execs=%d, want 3", got)
	}
	if wrep.CacheHits != 0 || wrep.Failed != 0 {
		t.Errorf("report after restore failures: %+v", wrep)
	}
}

func TestFailedExecutionsAreNotCached(t *testing.T) {
	dir := t.TempDir()
	cold := newCacheableRunner(4)
	cold.execErr = func(i int) error {
		if i == 2 {
			return fmt.Errorf("node failure")
		}
		return nil
	}
	crep, err := Run(context.Background(), cold, Options{Jobs: 2, Cache: openRunLayer(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	if crep.Failed != 1 {
		t.Fatalf("cold failed = %d", crep.Failed)
	}

	// The failed experiment stays a miss and re-executes warm.
	warm := newCacheableRunner(4)
	wrep, err := Run(context.Background(), warm, Options{Jobs: 2, Cache: openRunLayer(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	if got := warm.execs.Load(); got != 1 {
		t.Errorf("warm run executed %d, want 1 (only the previously failed one)", got)
	}
	if wrep.CacheHits != 3 || wrep.Failed != 0 {
		t.Errorf("warm report: hits=%d failed=%d", wrep.CacheHits, wrep.Failed)
	}
}

func TestUncacheableRunnerIgnoresCache(t *testing.T) {
	// A plain Runner with Options.Cache set runs exactly as before.
	dir := t.TempDir()
	m := &mockRunner{label: "plain@test", n: 5}
	rep, err := Run(context.Background(), m, Options{Jobs: 2, Cache: openRunLayer(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CacheHits != 0 || len(rep.Cache) != 0 {
		t.Errorf("plain runner must not report cache traffic: %+v", rep)
	}
	if len(m.executed) != 5 {
		t.Errorf("executed = %v", m.executed)
	}
}

func TestTimingSummaryRendersCacheTable(t *testing.T) {
	rep := &Report{Cache: []CacheStat{{Layer: "run", Hits: 3, Misses: 1, Bytes: 2048}}}
	got := rep.TimingSummary()
	for _, want := range []string{"cache", "hits", "run", "2048"} {
		if !strings.Contains(got, want) {
			t.Errorf("summary missing %q:\n%s", want, got)
		}
	}
}
