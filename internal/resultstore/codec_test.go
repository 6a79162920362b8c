package resultstore

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
	"unsafe"

	"repro/internal/metricsdb"
)

// fleetBatch is a loadgen-shaped batch (loadgen itself imports this
// package): n results of one runner's system, benchmarks rotating, one
// FOM each — 16 systems × 8 benchmarks over the whole fleet.
func fleetBatch(runner, batch, n int) Batch {
	rs := make([]metricsdb.Result, n)
	for i := range rs {
		rs[i] = metricsdb.Result{
			Benchmark:  fmt.Sprintf("fedbench-%02d", (batch+i)%8),
			Workload:   "standard",
			System:     fmt.Sprintf("fedsys-%03d", runner%16),
			Experiment: fmt.Sprintf("fed-r%04d", runner),
			FOMs:       map[string]float64{"figure_of_merit": 100 + float64((runner*31+batch*7+i*3)%50)},
		}
	}
	return Batch{Key: fmt.Sprintf("fleet-%d-%d", runner, batch), Results: rs}
}

// allocated is the bytes fn allocates, as the median of several runs:
// a slice in the DB doubling, or the GC emptying a pool, lands on some.
func allocated(runs int, fn func(run int)) uint64 {
	var per []uint64
	var before, after runtime.MemStats
	for run := 0; run < runs; run++ {
		runtime.ReadMemStats(&before)
		fn(run)
		runtime.ReadMemStats(&after)
		per = append(per, after.TotalAlloc-before.TotalAlloc)
	}
	sort.Slice(per, func(i, j int) bool { return per[i] < per[j] })
	return per[len(per)/2]
}

// TestWrittenBytesMatchEncodingJSON: with a fixed clock, the WAL segment
// and the generation file the store writes are byte for byte what
// json.Marshal makes of the same walBatch values and of the header with
// its results spliced in — for a result with every optional field set,
// one with none, and batches with and without a trace ID.
func TestWrittenBytesMatchEncodingJSON(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, fixedOpts())
	if err != nil {
		t.Fatal(err)
	}
	full := metricsdb.Result{
		Benchmark: "saxpy", Workload: "problem", System: "cts1", Experiment: "saxpy_512",
		FOMs:     map[string]float64{"time": 1.25, "bw<GB/s>": 1e21, "tiny": 1e-7, "a&b": -0.5},
		Meta:     map[string]string{"runner": "r-1", "note": "line\nbreak \"quoted\" \u2028", "": "empty key"},
		Manifest: "spack:\n  specs: [saxpy@1.0 +openmp]\n\t# tab, \\ and \x01 and \xff\n",
		TraceID:  "4bf92f3577b34da6a3ce929d0e0e4736",
	}
	bare := metricsdb.Result{Benchmark: "b", System: "s"}
	batches := []Batch{
		{Key: "traced <&>", TraceID: "00f067aa0ba902b700f067aa0ba902b7", Results: []metricsdb.Result{full, bare}},
		{Key: "untraced", Results: []metricsdb.Result{bare, full, res("saxpy", "cts1", "saxpy_time", 2)}},
	}
	var want []byte
	next := 0
	for _, b := range batches {
		wb := walBatch{Key: b.Key, TraceID: b.TraceID, Received: fixedOpts().Clock.Now().UnixNano()}
		for _, r := range b.Results {
			next++
			r.ID, r.Seq = next, next
			if r.TraceID == "" {
				r.TraceID = b.TraceID
			}
			wb.Results = append(wb.Results, r)
		}
		payload, err := json.Marshal(wb)
		if err != nil {
			t.Fatal(err)
		}
		want = binary.BigEndian.AppendUint32(want, uint32(len(payload)))
		want = binary.BigEndian.AppendUint32(want, crc32.ChecksumIEEE(payload))
		want = append(want, payload...)
	}
	if _, err := s.AppendMany(context.Background(), batches); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, segmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("WAL segment holds\n%q\njson.Marshal of the same batches, framed, is\n%q", got, want)
	}

	head := &snapshotHeader{Format: snapshotFormat, Covered: 1, NextID: next, NextSeq: next, Keys: []string{"traced <&>", "untraced"}}
	var file bytes.Buffer
	if err := s.encodeGeneration(&file, head); err != nil {
		t.Fatal(err)
	}
	whole, err := json.Marshal(wholeGeneration{snapshotHeader: *head, Results: s.db.QueryAfterN(0, next)})
	if err != nil {
		t.Fatal(err)
	}
	if file.String() != string(whole) {
		t.Fatalf("generation file holds\n%s\njson.Marshal of the same generation is\n%s", file.Bytes(), whole)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAppendManyAllocationBudget pins the write path's cost model: a
// group is staged and framed in the store's own buffers and copied into
// a DB chunk that is already there, so the median 100-result batch
// allocates its bookkeeping — the applied flags, the group's key set,
// the posting lists' growth — and neither a copy of the results nor an
// encoded form. Measured 1.2 kB (one run in ten also opens a 128 KiB
// chunk: the results' own bytes, once); with a make+copy per batch and
// one growing slice in the DB it was 14.7, with a json.Marshal per
// record on top 38.3.
func TestAppendManyAllocationBudget(t *testing.T) {
	s, err := Open(t.TempDir(), fixedOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	for warm := 0; warm < 3; warm++ { // grows the buffer to a bulk batch's size
		if _, err := s.AppendMany(ctx, []Batch{fleetBatch(0, -1-warm, 100)}); err != nil {
			t.Fatal(err)
		}
	}
	batches := make([][]Batch, 21)
	for i := range batches {
		batches[i] = []Batch{fleetBatch(i, i, 100)}
	}
	median := allocated(len(batches), func(run int) {
		if _, err := s.AppendMany(ctx, batches[run]); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("a 100-result AppendMany allocates %d bytes (median)", median)
	if median >= 4<<10 {
		t.Fatalf("a 100-result AppendMany allocates %d bytes (median), want < %d", median, 4<<10)
	}
}

// TestOpenCostsWhatItKeeps pins recovery's cost model on a compacted
// 20,000-result store of a loadgen-shaped fleet. Decoding record by
// record with interned names into chunks that are never copied again,
// Open allocates 3.9x the bytes it reads — 1.8x the results' maps, 1.0x
// the file, 0.9x the results themselves — where one slice growing by a
// quarter at a time took 6.9x and whole-file encoding/json 11.4x, and
// what stays live afterwards is the results with each name held once:
// 395 B a result, 477 when every decoded name was its own allocation.
// Both numbers repeat exactly.
func TestOpenCostsWhatItKeeps(t *testing.T) {
	const results = 20000
	dir := t.TempDir()
	opts := fixedOpts()
	opts.SegmentBytes = 64 << 10
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < results/100; i++ {
		if _, err := s.AppendMany(context.Background(), []Batch{fleetBatch(i, i, 100)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var onDisk int64
	for name, data := range readDir(t, dir) {
		if _, ok := parseNumbered(name, snapshotPrefix, snapshotSuffix); ok {
			onDisk += int64(len(data))
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	s, err = Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	defer s.Close()
	if s.Len() != results {
		t.Fatalf("reopened store holds %d results, want %d", s.Len(), results)
	}
	ratio := float64(after.TotalAlloc-before.TotalAlloc) / float64(onDisk)
	if ratio >= 4.5 {
		t.Errorf("Open allocated %.1fx the %d bytes of generations it read, want < 4.5x", ratio, onDisk)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / results
	t.Logf("Open allocated %.1fx the %d bytes it read and keeps %d B live per result", ratio, onDisk, per)
	if per >= 440 {
		t.Errorf("the reopened store keeps %d B live per result, want < 440", per)
	}
}

// TestRecoverySharesNames: after a restart, results that arrived in
// different pushes — one since folded into a generation, one still in
// the WAL — hold one copy of the system name they share, and their own
// copies of what is theirs alone.
func TestRecoverySharesNames(t *testing.T) {
	dir := t.TempDir()
	opts := fixedOpts()
	opts.SegmentBytes = 1 // every append rotates
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	first, second := res("saxpy", "cts1", "saxpy_time", 1), res("stream", "cts1", "triad_bw", 2)
	first.Manifest, second.Manifest = "spack: {}", "spack: {}"
	mustAppend(t, s, "first", first)
	mustAppend(t, s, "second", second)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, s, "third", second)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(dir, opts); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got := s.Query(metricsdb.Filter{System: "cts1"})
	if len(got) != 3 || got[0].System != "cts1" || got[2].System != "cts1" {
		t.Fatalf("recovered %+v", got)
	}
	for _, r := range got[1:] {
		if unsafe.StringData(r.System) != unsafe.StringData(got[0].System) || unsafe.StringData(r.Workload) != unsafe.StringData(got[0].Workload) {
			t.Errorf("result %d holds its own copy of a name result 1 holds too", r.Seq)
		}
		if unsafe.StringData(r.Manifest) == unsafe.StringData(got[0].Manifest) {
			t.Errorf("result %d shares its manifest's bytes with result 1", r.Seq)
		}
	}
}
