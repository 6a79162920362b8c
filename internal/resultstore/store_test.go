package resultstore

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"

	"repro/internal/fsys"
	"repro/internal/metricsdb"
)

// fixedOpts is a store whose files change only on an explicit Compact.
func fixedOpts() Options { return Options{NoBackgroundCompact: true} }

func res(bench, system string, fom string, v float64) metricsdb.Result {
	return metricsdb.Result{
		Benchmark:  bench,
		Workload:   "problem",
		System:     system,
		Experiment: bench + "_exp",
		FOMs:       map[string]float64{fom: v},
	}
}

func mustAppend(t *testing.T, s *Store, key string, rs ...metricsdb.Result) {
	t.Helper()
	applied, err := s.Append(context.Background(), Batch{Key: key, Results: rs})
	if err != nil {
		t.Fatalf("Append(%s): %v", key, err)
	}
	if !applied {
		t.Fatalf("Append(%s): unexpectedly reported duplicate", key)
	}
}

func TestAppendAssignsIdentityAndQueries(t *testing.T) {
	s, err := Open(t.TempDir(), fixedOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mustAppend(t, s, "k1", res("saxpy", "cts1", "saxpy_time", 1.0), res("saxpy", "cts1", "saxpy_time", 1.1))
	mustAppend(t, s, "k2", res("stream", "cloud-c5n", "triad_bw", 90))

	if got := s.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	all := s.Query(metricsdb.Filter{})
	for i, r := range all {
		if r.Seq != i+1 {
			t.Fatalf("result %d has Seq=%d, want %d", i, r.Seq, i+1)
		}
	}
	pts := s.Series(metricsdb.Filter{Benchmark: "saxpy"}, "saxpy_time")
	if len(pts) != 2 || pts[0].Value != 1.0 || pts[1].Value != 1.1 {
		t.Fatalf("Series = %+v", pts)
	}
	if got := s.Systems(); !reflect.DeepEqual(got, []string{"cloud-c5n", "cts1"}) {
		t.Fatalf("Systems = %v", got)
	}
}

func TestAppendValidatesBatch(t *testing.T) {
	s, err := Open(t.TempDir(), fixedOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Append(context.Background(), Batch{Results: []metricsdb.Result{res("a", "b", "t", 1)}}); err == nil {
		t.Fatal("append without key should fail")
	}
	if _, err := s.Append(context.Background(), Batch{Key: "k"}); err == nil {
		t.Fatal("append without results should fail")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Append(ctx, Batch{Key: "k", Results: []metricsdb.Result{res("a", "b", "t", 1)}}); err == nil {
		t.Fatal("append on a cancelled context should fail")
	}
}

func TestDuplicateKeyIsNoOp(t *testing.T) {
	s, err := Open(t.TempDir(), fixedOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mustAppend(t, s, "k1", res("saxpy", "cts1", "saxpy_time", 1.0))
	applied, err := s.Append(context.Background(), Batch{
		Key:     "k1",
		Results: []metricsdb.Result{res("saxpy", "cts1", "saxpy_time", 99)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if applied {
		t.Fatal("duplicate key was applied")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d after duplicate, want 1", s.Len())
	}
	if !s.HasKey("k1") || s.HasKey("k2") {
		t.Fatal("HasKey bookkeeping wrong")
	}
}

// TestAppendKeepsNothingOfTheBatch pins the ownership rule the ingest
// handler reuses its memory by (resultsd.Backend): once Append returns
// nil — a duplicate's included — the store holds copies of what it was
// handed. The caller then overwrites every string of its results and
// empties every map, as the server's next push decodes into them, and
// Query, Series and the DB's SaveJSON read exactly as before.
func TestAppendKeepsNothingOfTheBatch(t *testing.T) {
	s, err := Open(t.TempDir(), fixedOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reads := func() [3]string {
		dump, err := s.db.SaveJSON()
		if err != nil {
			t.Fatal(err)
		}
		return [3]string{served(t, s), servedSeries(t, s), dump}
	}
	for i, key := range []string{"k1", "k2", "k1"} {
		rs := []metricsdb.Result{res("saxpy", "cts1", "saxpy_time", float64(i)), res("stream", "cts1", "triad_bw", float64(i))}
		rs[0].Meta = map[string]string{"runner": "r1"}
		rs[1].Manifest, rs[1].TraceID = "spack: {}", "0af7651916cd43dd8448eb211c80319c"
		if _, err := s.Append(context.Background(), Batch{Key: key, TraceID: "4bf92f3577b34da6a3ce929d0e0e4736", Results: rs}); err != nil {
			t.Fatal(err)
		}
		before := reads()
		scribble(rs)
		if after := reads(); after != before {
			t.Fatalf("push %s: after the caller reused its results the store reads\n%v\nwant\n%v", key, after, before)
		}
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
}

// scribble overwrites every string of rs and empties every map, giving
// each one other member, as decoding the next push into them would.
func scribble(rs []metricsdb.Result) {
	for i := range rs {
		r := &rs[i]
		r.Seq = -1
		r.Benchmark, r.Workload, r.System, r.Experiment, r.Manifest, r.TraceID = "x", "x", "x", "x", "x", "x"
		if r.FOMs != nil {
			clear(r.FOMs)
			r.FOMs["saxpy_time"] = -1
		}
		if r.Meta != nil {
			clear(r.Meta)
			r.Meta["x"] = "x"
		}
	}
}

func TestReopenRecoversState(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, fixedOpts())
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, s, "k1", res("saxpy", "cts1", "saxpy_time", 1.0))
	mustAppend(t, s, "k2", res("saxpy", "cts1", "saxpy_time", 1.2))
	before := s.Query(metricsdb.Filter{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, fixedOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Query(metricsdb.Filter{}); !reflect.DeepEqual(got, before) {
		t.Fatalf("recovered state differs:\n got %+v\nwant %+v", got, before)
	}
	// Seq assignment continues past the recovered watermark, and
	// applied keys stay applied.
	if applied, err := s2.Append(context.Background(), Batch{
		Key: "k1", Results: []metricsdb.Result{res("x", "y", "t", 1)},
	}); err != nil || applied {
		t.Fatalf("k1 after reopen: applied=%v err=%v, want duplicate no-op", applied, err)
	}
	mustAppend(t, s2, "k3", res("saxpy", "cts1", "saxpy_time", 1.4))
	all := s2.Query(metricsdb.Filter{})
	if last := all[len(all)-1]; last.Seq != 3 {
		t.Fatalf("post-recovery identity: Seq=%d, want 3", last.Seq)
	}
}

// TestReplayAppendsOnly: replay applies a WAL record under a new key —
// one carrying its receive time as well — only when its Seqs rise above
// the store's top. A record under an
// applied key is skipped whatever its Seqs; one under a new key whose
// Seqs tie with the top, fall below it or step back within the record
// fails Open, naming the segment and the Seq, as a CRC-valid but
// undecodable record does.
func TestReplayAppendsOnly(t *testing.T) {
	golden := t.TempDir()
	s, err := Open(golden, fixedOpts())
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, s, "k1", res("saxpy", "cts1", "saxpy_time", 1.0))
	mustAppend(t, s, "k2", res("saxpy", "cts1", "saxpy_time", 1.2))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// record is a record of one result per Seq under key, in the form
	// appendJSON writes: a head table, and each result naming its head.
	record := func(key string, seqs ...int) string {
		var rs []string
		for _, seq := range seqs {
			rs = append(rs, fmt.Sprintf(`{"seq":%d,"head":0,"foms":{"t":%d}}`, seq, seq))
		}
		return fmt.Sprintf(`{"key":%q,"heads":[["saxpy","problem","cts1","e",-1]],"results":[%s]}`, key, strings.Join(rs, ","))
	}
	// The first head-table records carried their receive time as well,
	// in this form; replay skips that member.
	timed := `{"key":"k3","trace_id":"","received_unix_ns":1700000000000000000,"manifests":[],"heads":[["saxpy","problem","cts1","e",-1]],"results":[{"seq":3,"head":0,"foms":{"t":3}}]}`
	// open reopens golden's files with records of payloads appended to
	// its segment, in a directory of their own.
	open := func(payloads ...string) (*Store, error) {
		dir := t.TempDir()
		for name, data := range readDir(t, golden) {
			if name == segmentName(1) {
				for _, p := range payloads {
					at := len(data)
					data = append(append(data, make([]byte, recordHeaderSize)...), p...)
					sealRecord(data, at)
				}
			}
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return Open(dir, fixedOpts())
	}
	taken := []string{timed, record("k1", 1)}
	s, err = open(taken...)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 || s.MaxSeq() != 3 || !s.HasKey("k3") {
		t.Fatalf("replay holds %d results to Seq %d (key k3 applied: %v), want 3 to Seq 3", s.Len(), s.MaxSeq(), s.HasKey("k3"))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []struct{ record, want string }{
		{record("tie", 3), "Seq 3, not above 3"},
		{record("below", 1), "Seq 1, not above 3"},
		{record("back", 5, 4), "Seq 4, not above 5"},
	} {
		if s, err := open(append(taken, bad.record)...); err == nil {
			s.Close()
			t.Fatalf("Open replayed %s over top Seq 3", bad.record)
		} else if !strings.Contains(err.Error(), segmentName(1)) || !strings.Contains(err.Error(), bad.want) {
			t.Fatalf("Open refused %s with %v, which does not name the segment and %q", bad.record, err, bad.want)
		}
	}
}

func TestRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	opts := fixedOpts()
	opts.SegmentBytes = 64 // rotate roughly every batch
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		mustAppend(t, s, "k"+string(rune('a'+i)), res("saxpy", "cts1", "saxpy_time", float64(i)))
	}
	segs, err := listNumbered(fsys.OS, dir, segmentPrefix, segmentSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("expected rotation to create several segments, got %v", segs)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	// Compaction keeps only the active segment plus one snapshot.
	segs, err = listNumbered(fsys.OS, dir, segmentPrefix, segmentSuffix)
	if err != nil {
		t.Fatal(err)
	}
	snaps, err := listNumbered(fsys.OS, dir, snapshotPrefix, snapshotSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || len(snaps) != 1 {
		t.Fatalf("after compaction: segments %v snapshots %v, want 1 and 1", segs, snaps)
	}
	if s.Len() != 6 {
		t.Fatalf("Len = %d after compaction, want 6", s.Len())
	}
	// A second compact with nothing new sealed is a no-op.
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	before := s.Query(metricsdb.Filter{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery from snapshot + active segment reproduces the state.
	s2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Query(metricsdb.Filter{}); !reflect.DeepEqual(got, before) {
		t.Fatalf("state after snapshot recovery differs:\n got %+v\nwant %+v", got, before)
	}
	for i := 0; i < 6; i++ {
		if !s2.HasKey("k" + string(rune('a'+i))) {
			t.Fatalf("key k%c lost across snapshot recovery", 'a'+i)
		}
	}
}

func TestBackgroundCompactor(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{
		SegmentBytes: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		mustAppend(t, s, "bg"+string(rune('a'+i)), res("saxpy", "cts1", "saxpy_time", float64(i)))
	}
	// Close waits for the compactor goroutine, so after Close the
	// store must still hold every result when reopened.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, fixedOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 8 {
		t.Fatalf("Len after background compaction + reopen = %d, want 8", s2.Len())
	}
}

// defaultOpts is what benchpark serve opens a store with, on a fixed
// clock: background compaction on, the default segment size.
func defaultOpts() Options {
	opts := fixedOpts()
	opts.NoBackgroundCompact = false
	return opts
}

// servedSeries is the byte form of one series a store serves.
func servedSeries(t *testing.T, s *Store) string {
	t.Helper()
	data, err := json.Marshal(s.Series(metricsdb.Filter{System: "cts1", Benchmark: "saxpy"}, "saxpy_time"))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestCleanCloseFoldsTheTail: a store on default options whose WAL
// never reached the rotation threshold leaves, once closed cleanly, one
// generation and an empty active segment, not the WAL it wrote, and
// reopens to the same answers.
func TestCleanCloseFoldsTheTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		mustAppend(t, s, fmt.Sprintf("k%d", i), res("saxpy", "cts1", "saxpy_time", float64(i)), res("stream", "cts1", "triad_bw", float64(i)))
	}
	query, series := served(t, s), servedSeries(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	files := readDir(t, dir)
	if got := snapshotFilesOf(files); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("snapshot files %v after a clean Close, want [1]", got)
	}
	if wal, ok := files[segmentName(2)]; len(files) != 2 || !ok || len(wal) != 0 {
		t.Fatalf("a clean Close left %d files, want the generation and an empty %s", len(files), segmentName(2))
	}
	s, err = Open(dir, fixedOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := served(t, s); got != query {
		t.Fatalf("Query after reopen:\n got %s\nwant %s", got, query)
	}
	if got := servedSeries(t, s); got != series {
		t.Fatalf("Series after reopen:\n got %s\nwant %s", got, series)
	}
}

// TestFailedFoldKeepsTheWAL: when Close's generation write fails, Close
// says so, and the WAL it could not fold still holds every acknowledged
// batch.
func TestFailedFoldKeepsTheWAL(t *testing.T) {
	dir := t.TempDir()
	opts := defaultOpts()
	opts.FS = &hookFS{FS: fsys.OS, createTemp: failNth(1, syscall.ENOSPC)}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		mustAppend(t, s, fmt.Sprintf("k%d", i), res("saxpy", "cts1", "saxpy_time", float64(i)))
	}
	want := served(t, s)
	if err := s.Close(); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Close with a failing generation write = %v, want ENOSPC", err)
	}
	if snaps := snapshotFiles(t, dir); len(snaps) != 0 {
		t.Fatalf("a failed fold left snapshot files %v", snaps)
	}
	s, err = Open(dir, fixedOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := served(t, s); got != want {
		t.Fatalf("reopen after a failed fold serves\n%s\nthe acknowledged batches are\n%s", got, want)
	}
}

// TestCloseWithoutBackgroundCompactionFoldsNothing: a NoBackgroundCompact
// store folds only on an explicit Compact, so Close leaves its files
// byte for byte as they were.
func TestCloseWithoutBackgroundCompactionFoldsNothing(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, fixedOpts())
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, s, "k1", res("saxpy", "cts1", "saxpy_time", 1))
	before := readDir(t, dir)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if after := readDir(t, dir); !reflect.DeepEqual(after, before) || len(after) != 1 || after[segmentName(1)] == nil {
		t.Fatalf("Close changed the layout %v into %v, want %s alone, untouched", slices.Sorted(maps.Keys(before)), slices.Sorted(maps.Keys(after)), segmentName(1))
	}
}

func TestConcurrentAppend(t *testing.T) {
	s, err := Open(t.TempDir(), Options{
		SegmentBytes: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				key := "g" + string(rune('0'+g)) + "-" + string(rune('0'+i))
				if _, err := s.Append(context.Background(), Batch{
					Key:     key,
					Results: []metricsdb.Result{res("saxpy", "cts1", "saxpy_time", float64(i))},
				}); err != nil {
					t.Errorf("append %s: %v", key, err)
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 80 {
		t.Fatalf("Len = %d, want 80", s.Len())
	}
	// Seqs are unique and dense.
	seen := map[int]bool{}
	for _, r := range s.Query(metricsdb.Filter{}) {
		if seen[r.Seq] {
			t.Fatalf("duplicate seq %d", r.Seq)
		}
		seen[r.Seq] = true
	}
	for i := 1; i <= 80; i++ {
		if !seen[i] {
			t.Fatalf("missing seq %d", i)
		}
	}
}

func TestCloseSemantics(t *testing.T) {
	s, err := Open(t.TempDir(), fixedOpts())
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, s, "k1", res("saxpy", "cts1", "saxpy_time", 1.0))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := s.Append(context.Background(), Batch{
		Key: "k2", Results: []metricsdb.Result{res("a", "b", "t", 1)},
	}); err == nil {
		t.Fatal("append after Close should fail")
	}
	if err := s.Compact(); err == nil {
		t.Fatal("compact after Close should fail")
	}
}

func TestRecoveryIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, fixedOpts())
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, s, "k1", res("saxpy", "cts1", "saxpy_time", 1.0))
	s.Close()
	for _, name := range []string{"notes.txt", "wal-abc.log", "snap-.json"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := Open(dir, fixedOpts())
	if err != nil {
		t.Fatalf("reopen with foreign files: %v", err)
	}
	defer s2.Close()
	if s2.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s2.Len())
	}
}
