package resultshard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/fsys"
	"repro/internal/metricsdb"
	"repro/internal/resultstore"
)

func fixedStoreOpts() resultstore.Options {
	return resultstore.Options{
		NoBackgroundCompact: true,
	}
}

// slowStoreOpts is fixedStoreOpts with a bounded queue behind a slow
// disk: commits lag enqueues by delay.
func slowStoreOpts(depth int, delay time.Duration) resultstore.Options {
	o := fixedStoreOpts()
	o.QueueDepth, o.FS = depth, slowDisk{fsys.OS, delay}
	return o
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

func res(bench, system, fom string, v float64) metricsdb.Result {
	return metricsdb.Result{
		Benchmark:  bench,
		Workload:   "problem",
		System:     system,
		Experiment: bench + "_exp",
		FOMs:       map[string]float64{fom: v},
	}
}

func openRouter(t *testing.T, dir string, shards int) *Router {
	t.Helper()
	r, err := Open(dir, Options{Shards: shards, Store: fixedStoreOpts()})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// spreadResults builds one result per (system, benchmark) pair from a
// pool wide enough to hit every shard of a small router.
func spreadResults(n int) []metricsdb.Result {
	out := make([]metricsdb.Result, n)
	for i := range out {
		out[i] = res(fmt.Sprintf("bench-%02d", i%7), fmt.Sprintf("sys-%02d", i%5), "fom", float64(i))
	}
	return out
}

// TestAppendKeepsNothingOfTheBatch: the router keeps the ownership rule
// of the stores it routes to (resultsd.Backend). Once Append returns nil
// — every shard it enqueued on has committed, and a duplicate's nil as
// well — the caller overwrites every string of its results and empties
// every map, and Query and Series read exactly as before, as does the
// router reopened from its shards' WALs.
func TestAppendKeepsNothingOfTheBatch(t *testing.T) {
	dir := t.TempDir()
	r := openRouter(t, dir, 4)
	reads := func(r *Router) [2]string {
		query, err := json.Marshal(r.Query(metricsdb.Filter{}))
		if err != nil {
			t.Fatal(err)
		}
		series, err := json.Marshal(r.Series(metricsdb.Filter{}, "fom"))
		if err != nil {
			t.Fatal(err)
		}
		return [2]string{string(query), string(series)}
	}
	for _, key := range []string{"k1", "k2", "k1"} {
		rs := spreadResults(40)
		for i := range rs {
			rs[i].Meta = map[string]string{"slot": fmt.Sprint(i)}
		}
		if _, err := r.Append(context.Background(), resultstore.Batch{Key: key, Results: rs}); err != nil {
			t.Fatal(err)
		}
		before := reads(r)
		for i := range rs {
			rs[i].Benchmark, rs[i].Workload, rs[i].System, rs[i].Experiment = "x", "x", "x", "x"
			clear(rs[i].FOMs)
			rs[i].FOMs["fom"] = -1
			clear(rs[i].Meta)
		}
		if after := reads(r); after != before {
			t.Fatalf("push %s: after the caller reused its results the router reads\n%v\nwant\n%v", key, after, before)
		}
	}
	want := reads(r)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r = openRouter(t, dir, 4)
	defer r.Close()
	if got := reads(r); got != want || r.Len() != 80 {
		t.Fatalf("reopened router holds %d results and reads\n%v\nwant 80 and\n%v", r.Len(), got, want)
	}
}

// TestRouterRoutesAndMerges: a mixed batch lands on the shards the key
// function names, and merged reads see every result exactly once.
func TestRouterRoutesAndMerges(t *testing.T) {
	r := openRouter(t, t.TempDir(), 4)
	defer r.Close()

	results := spreadResults(40)
	applied, err := r.Append(context.Background(), resultstore.Batch{Key: "k1", Results: results})
	if err != nil {
		t.Fatal(err)
	}
	if !applied {
		t.Fatal("fresh batch reported duplicate")
	}
	if got := r.Len(); got != 40 {
		t.Fatalf("Len = %d, want 40", got)
	}
	// Placement: every result sits on exactly the shard ShardFor names.
	for i, sh := range r.shards {
		for _, got := range sh.Query(metricsdb.Filter{}) {
			if want := ShardFor(got.System, got.Benchmark, 4); want != i {
				t.Fatalf("result %s/%s on shard %d, want %d", got.System, got.Benchmark, i, want)
			}
		}
	}
	// Merged read sees all 40, Seq-sorted.
	all := r.Query(metricsdb.Filter{})
	if len(all) != 40 {
		t.Fatalf("merged Query returned %d results", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i].Seq < all[i-1].Seq {
			t.Fatalf("merged stream not Seq-sorted at %d", i)
		}
	}
	// A fully-pinned filter routes to one shard and agrees with the
	// merged view.
	f := metricsdb.Filter{System: "sys-01", Benchmark: "bench-01"}
	direct := r.Query(f)
	var scan []metricsdb.Result
	for _, x := range all {
		if x.System == "sys-01" && x.Benchmark == "bench-01" {
			scan = append(scan, x)
		}
	}
	if len(direct) != len(scan) {
		t.Fatalf("routed query %d results, merged scan %d", len(direct), len(scan))
	}
}

// TestRouterIdempotentAcrossShards: replaying a key dedups on every
// shard it touched.
func TestRouterIdempotentAcrossShards(t *testing.T) {
	r := openRouter(t, t.TempDir(), 4)
	defer r.Close()
	b := resultstore.Batch{Key: "k1", Results: spreadResults(12)}
	if applied, err := r.Append(context.Background(), b); err != nil || !applied {
		t.Fatalf("first append: applied=%v err=%v", applied, err)
	}
	if applied, err := r.Append(context.Background(), b); err != nil || applied {
		t.Fatalf("replay: applied=%v err=%v, want false/nil", applied, err)
	}
	if got := r.Len(); got != 12 {
		t.Fatalf("Len after replay = %d, want 12", got)
	}
}

// TestRouterBackpressure: a shard driven past its queue bound refuses
// with ErrOverloaded carrying the Retry-After hint — it does not hang.
func TestRouterBackpressure(t *testing.T) {
	r, err := Open(t.TempDir(), Options{Shards: 2, Store: slowStoreOpts(1, 50*time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Hammer one routing key so everything lands on one shard's
	// depth-1 queue; with a 50ms Sync the queue must fill.
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		go func(i int) {
			_, err := r.Append(context.Background(), resultstore.Batch{
				Key:     fmt.Sprintf("k%d", i),
				Results: []metricsdb.Result{res("b", "s", "fom", float64(i))},
			})
			errs <- err
		}(i)
	}
	overloads := 0
	for i := 0; i < 64; i++ {
		err := <-errs
		if err == nil {
			continue
		}
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("unexpected error kind: %v", err)
		}
		var ov *OverloadError
		if !errors.As(err, &ov) {
			t.Fatalf("overload not an *OverloadError: %v", err)
		}
		if ov.RetryAfter != RetryAfter {
			t.Fatalf("RetryAfter = %v, want %v", ov.RetryAfter, RetryAfter)
		}
		overloads++
	}
	if overloads == 0 {
		t.Fatal("64 appends against a depth-1 queue with a 50ms Sync produced no overloads")
	}
	if got := r.Overloads(); got != int64(overloads) {
		t.Fatalf("Overloads() = %d, counted %d", got, overloads)
	}
}

// TestRouterPartialApplyConverges: when one shard refuses a mixed
// batch, the other shards still commit, and retrying the same key
// converges — dedup where it landed, apply where it was refused.
func TestRouterPartialApplyConverges(t *testing.T) {
	// Find two results that land on different shards of a 2-shard
	// router.
	a := res("bench-a", "sys-a", "fom", 1)
	var b metricsdb.Result
	for i := 0; ; i++ {
		b = res(fmt.Sprintf("bench-%d", i), "sys-b", "fom", 2)
		if ShardFor(b.System, b.Benchmark, 2) != ShardFor(a.System, a.Benchmark, 2) {
			break
		}
	}
	shardB := ShardFor(b.System, b.Benchmark, 2)

	// The slow Sync keeps shard B's worker busy with the blocker
	// while its depth-1 queue holds the filler, so the mixed batch's
	// B-half is deterministically refused while the A-half commits.
	r, err := Open(t.TempDir(), Options{Shards: 2, Store: slowStoreOpts(1, 200*time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Spins until the committer picks up whatever holds the depth-1
	// queue (and starts its 200ms Sync).
	enqueue := func(key string) *resultstore.Pending {
		for {
			p, err := r.shards[shardB].Enqueue(resultstore.Batch{Key: key, Results: []metricsdb.Result{b}})
			if err == nil {
				return p
			}
			if !errors.Is(err, resultstore.ErrQueueFull) {
				t.Fatal(err)
			}
			runtime.Gosched()
		}
	}
	blocker := enqueue("blocker")
	filler := enqueue("filler") // now occupies the whole queue

	mixed := resultstore.Batch{Key: "mixed", Results: []metricsdb.Result{a, b}}
	applied, err := r.Append(context.Background(), mixed)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("mixed append against the full shard: err=%v, want ErrOverloaded", err)
	}
	if !applied {
		t.Fatal("partial apply: the unblocked shard should have committed")
	}
	if _, err := blocker.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := filler.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Retry the SAME key: the shard that applied dedups, the refused
	// shard applies. The batch converges to fully-applied.
	applied, err = r.Append(context.Background(), mixed)
	if err != nil {
		t.Fatalf("retry: %v", err)
	}
	if !applied {
		t.Fatal("retry applied nothing — refused shard never caught up")
	}
	// Result b now exists under three distinct keys (blocker, filler,
	// mixed) — the invariant under test is no double-apply of "mixed"
	// on the shard that committed it the first time.
	fa := metricsdb.Filter{System: a.System, Benchmark: a.Benchmark}
	if got := len(r.Query(fa)); got != 1 {
		t.Fatalf("result a applied %d times, want exactly 1", got)
	}
}

// TestRouterRefusesReshard: reopening with a different shard count (or
// a doctored key schema) is an explicit error, not silent
// re-partitioning.
func TestRouterRefusesReshard(t *testing.T) {
	dir := t.TempDir()
	r := openRouter(t, dir, 4)
	if _, err := r.Append(context.Background(), resultstore.Batch{Key: "k", Results: spreadResults(8)}); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{Shards: 8, Store: fixedStoreOpts()}); err == nil {
		t.Fatal("reopening 4-shard store with 8 shards should fail")
	} else if got := err.Error(); !strings.Contains(got, "explicit migration") {
		t.Fatalf("reshard error %q should say it needs an explicit migration", got)
	}
	// Same count reopens fine and recovers the data.
	r2 := openRouter(t, dir, 4)
	defer r2.Close()
	if got := r2.Len(); got != 8 {
		t.Fatalf("recovered Len = %d, want 8", got)
	}
}

// TestRouterClosedAppendFails: Append after Close is a clean error.
func TestRouterClosedAppendFails(t *testing.T) {
	r := openRouter(t, t.TempDir(), 2)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
	if _, err := r.Append(context.Background(), resultstore.Batch{
		Key: "k", Results: []metricsdb.Result{res("b", "s", "fom", 1)},
	}); err == nil {
		t.Fatal("Append on a closed router should fail")
	}
}

// TestRouterDeterministicAcrossRestart: the federated determinism
// guarantee, per shard and merged — reopening the same directory
// reproduces byte-identical query responses.
func TestRouterDeterministicAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	r := openRouter(t, dir, 4)
	for i := 0; i < 5; i++ {
		if _, err := r.Append(context.Background(), resultstore.Batch{
			Key:     fmt.Sprintf("k%d", i),
			TraceID: fmt.Sprintf("%032x", i+1),
			Results: spreadResults(10),
		}); err != nil {
			t.Fatal(err)
		}
	}
	snap := func(r *Router) [][]byte {
		var out [][]byte
		for _, sh := range r.shards {
			b, err := json.Marshal(sh.Query(metricsdb.Filter{}))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, b)
		}
		merged, err := json.Marshal(r.Query(metricsdb.Filter{}))
		if err != nil {
			t.Fatal(err)
		}
		series, err := json.Marshal(r.Series(metricsdb.Filter{}, "fom"))
		if err != nil {
			t.Fatal(err)
		}
		return append(out, merged, series)
	}
	before := snap(r)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2 := openRouter(t, dir, 4)
	defer r2.Close()
	after := snap(r2)
	if len(before) != len(after) {
		t.Fatalf("snapshot count changed: %d vs %d", len(before), len(after))
	}
	for i := range before {
		if string(before[i]) != string(after[i]) {
			t.Fatalf("view %d not byte-identical across restart:\nbefore: %s\nafter:  %s", i, before[i], after[i])
		}
	}
}

// TestRouterHealthAggregates: the aggregate is ready iff every shard
// is, and counts sum.
func TestRouterHealthAggregates(t *testing.T) {
	r := openRouter(t, t.TempDir(), 3)
	defer r.Close()
	if _, err := r.Append(context.Background(), resultstore.Batch{Key: "k", Results: spreadResults(9)}); err != nil {
		t.Fatal(err)
	}
	h := r.Health()
	if !h.Ready {
		t.Fatalf("aggregate not ready: %+v", h)
	}
	if h.Results != 9 {
		t.Fatalf("aggregate Results = %d, want 9", h.Results)
	}
	sub := r.ShardHealth()
	if len(sub) != 3 {
		t.Fatalf("ShardHealth returned %d entries", len(sub))
	}
	total := 0
	for _, s := range sub {
		total += s.Results
	}
	if total != 9 {
		t.Fatalf("per-shard results sum to %d, want 9", total)
	}
}

// TestManifestWrittenAtomically: the first Open leaves a complete
// router.json and no temp file behind — neither its own nor the one an
// interrupted manifest write left before it.
func TestManifestWrittenAtomically(t *testing.T) {
	dir := t.TempDir()
	// What a crash between temp-file creation and rename leaves.
	if err := os.WriteFile(filepath.Join(dir, ".tmp-123"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	openRouter(t, dir, 4).Close()
	data, err := os.ReadFile(filepath.Join(dir, "router.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("router.json %q: %v", data, err)
	}
	if want := (manifest{Format: manifestFormat, KeySchema: KeySchema, Shards: 4}); m != want {
		t.Fatalf("manifest = %+v, want %+v", m, want)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Fatalf("Open left %s behind", e.Name())
		}
	}
	openRouter(t, dir, 4).Close() // the verified path
}
