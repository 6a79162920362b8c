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
	"runtime/debug"
	"slices"
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

// allocated is the bytes fn allocates, as the median of several runs: a
// slice in the DB doubling lands on some. The collector is held off
// while it measures, so no run meets a pool a GC emptied.
func allocated(runs int, fn func(run int)) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
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

// storedResult is a Result as a store's files write it: its head an
// index into the file's heads, its trace ID nil where it equals the
// previous result's.
type storedResult struct {
	Seq     int                `json:"seq"`
	Head    int                `json:"head"`
	FOMs    map[string]float64 `json:"foms"`
	Meta    map[string]string  `json:"meta,omitempty"`
	TraceID *string            `json:"trace_id,omitempty"`
}

// storedTables are a file's tables: its distinct manifests, and its
// distinct heads as [benchmark, workload, system, experiment, m], m the
// index of the head's manifest or -1.
type storedTables struct {
	Manifests []string `json:"manifests,omitempty"`
	Heads     [][]any  `json:"heads,omitempty"`
}

// stored is rs as one file writes them, the first result's trace ID
// compared against trace: the tables list each distinct manifest and
// head once, in first-use order, and each result names its head by
// index and carries its trace ID only where it differs from the
// previous result's.
func stored(rs []metricsdb.Result, trace string) (tables storedTables, out []storedResult) {
	var heads [][5]string
	for _, r := range rs {
		h := [5]string{r.Benchmark, r.Workload, r.System, r.Experiment, r.Manifest}
		i := slices.Index(heads, h)
		if i < 0 {
			m := -1
			if r.Manifest != "" {
				if m = slices.Index(tables.Manifests, r.Manifest); m < 0 {
					m, tables.Manifests = len(tables.Manifests), append(tables.Manifests, r.Manifest)
				}
			}
			i, heads = len(heads), append(heads, h)
			tables.Heads = append(tables.Heads, []any{r.Benchmark, r.Workload, r.System, r.Experiment, m})
		}
		sr := storedResult{Seq: r.Seq, Head: i, FOMs: r.FOMs, Meta: r.Meta}
		if r.TraceID != trace {
			sr.TraceID = &r.TraceID
		}
		trace = r.TraceID
		out = append(out, sr)
	}
	return tables, out
}

// generationBytes is the generation file of head and rs as json.Marshal
// writes it from declared structs: the header, then the results and the
// tables as stored writes them, then the CRC-32 of every byte before it.
func generationBytes(t *testing.T, head *snapshotHeader, rs []metricsdb.Result) []byte {
	t.Helper()
	tables, results := stored(rs, "")
	whole, err := json.Marshal(struct {
		snapshotHeader
		Results []storedResult `json:"results"`
		storedTables
	}{*head, results, tables})
	if err != nil {
		t.Fatal(err)
	}
	whole = whole[:len(whole)-1]
	return fmt.Appendf(whole, `,"crc32":%d}`, crc32.ChecksumIEEE(whole))
}

// TestWrittenBytesMatchEncodingJSON: with a fixed clock, the WAL segment
// and the generation file the store writes are byte for byte what
// json.Marshal makes of declared structs holding the same records, and
// the header with its results, its tables and its checksum — each
// result's head the index of the file's table and its trace ID written
// only where it changes — for a result with every optional field set,
// one with none, manifests equal and unequal, heads repeated, and
// batches with and without a trace ID, whose results carry traces of
// their own or none.
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
	other := res("stream", "cts1", "triad_bw", 3)
	other.Manifest = "suite: stream/openmp\n"
	bare := metricsdb.Result{Benchmark: "b", System: "s"}
	batches := []Batch{
		{Key: "traced <&>", TraceID: "00f067aa0ba902b700f067aa0ba902b7", Results: []metricsdb.Result{full, bare, bare}},
		{Key: "untraced", Results: []metricsdb.Result{bare, full, res("saxpy", "cts1", "saxpy_time", 2), other, full, bare}},
		{Key: "no manifests", Results: []metricsdb.Result{bare, res("saxpy", "cts1", "saxpy_time", 4)}},
	}
	type record struct {
		Key     string `json:"key"`
		TraceID string `json:"trace_id,omitempty"`
		storedTables
		Results []storedResult `json:"results"`
	}
	var want []byte
	next := 0
	for _, b := range batches {
		var rs []metricsdb.Result
		for _, r := range b.Results {
			next++
			r.Seq = next
			if r.TraceID == "" {
				r.TraceID = b.TraceID
			}
			rs = append(rs, r)
		}
		rec := record{Key: b.Key, TraceID: b.TraceID}
		rec.storedTables, rec.Results = stored(rs, b.TraceID)
		payload, err := json.Marshal(rec)
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

	head := &snapshotHeader{Format: snapshotFormat, Covered: 1, NextSeq: next, Keys: []string{"no manifests", "traced <&>", "untraced"}}
	var file bytes.Buffer
	if n, err := (generationFile{s.db, head, new(metricsdb.HeadTable)}).WriteTo(&file); err != nil || n != int64(file.Len()) {
		t.Fatalf("WriteTo wrote %d bytes, reports %d: %v", file.Len(), n, err)
	}
	if whole := generationBytes(t, head, s.db.QueryAfterN(0, next)); !bytes.Equal(file.Bytes(), whole) {
		t.Fatalf("generation file holds\n%s\njson.Marshal of the same generation is\n%s", file.Bytes(), whole)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAppendManyAllocationBudget pins the write path's cost model: a
// group is staged and framed in the store's own buffers and copied into
// DB chunks that are already there — the rows and their FOM pairs — so
// the median 100-result batch allocates only bookkeeping — the applied
// flags, the group's key set, the posting lists' growth — and neither a
// copy of the results nor an encoded form. Measured 1.9 kB: most runs
// allocate 1.0 kB, and the runs that open or grow a chunk of rows or of
// pairs, or grow the head table or the posting map, allocate their new
// storage, 7 to 72 kB, once. Each batch also brings eight new heads,
// which the head table takes in one jump to 64 and then grows as a
// slice does. With each result's pairs in a slice of its own, and rows
// of 80 bytes, it was 3.4 kB, 2.4 of them the pairs; with a make+copy
// per batch and one growing slice in the DB 14.7 kB, with a json.Marshal
// per record on top 38.3.
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
	if !raceEnabled && median >= 4<<10 {
		t.Fatalf("a 100-result AppendMany allocates %d bytes (median), want < %d", median, 4<<10)
	}
}

// TestOpenCostsWhatItKeeps pins recovery's cost model on a compacted
// 20,000-result store of a loadgen-shaped fleet, per result. Decoding
// record by record with interned names, one recycled FOM map, and rows
// and pairs in chunks that are never copied again, Open allocates 234 B
// a result: the 60 B of file it reads, the 32-byte row and the 24-byte
// FOM pair and their shares of chunks grown as slices grow, and the
// DB's and the file's head tables. It was 265 B when a row was 80 bytes
// and each result's pair a slice of its own; before the files listed
// each head once (2.8 MB where they are now 1.2 MB) 320 B; a fresh map
// per result took about 610 B, one slice growing by a quarter at a time
// about 960 B and whole-file encoding/json about 1.6 kB. The bound is
// per result, not per byte read, because a smaller file raises the
// ratio while Open allocates less. What stays live afterwards is the
// rows, each naming its series' one head and its FOMs' run in the
// arena: 86 B a result, 132 B with 80-byte rows, 140 when each row also
// held an ID beside its Seq, 196 when it held its own five name and
// manifest strings, 395 when the DB stored each result's maps, 477 when
// every decoded name was its own allocation. The live number repeats
// exactly, the allocation within a byte.
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
	alloc := float64(after.TotalAlloc-before.TotalAlloc) / results
	if !raceEnabled && alloc >= 240 {
		t.Errorf("Open allocated %.1f B per result, want < 240", alloc)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / results
	t.Logf("Open read %d bytes of generations, allocated %.1f B per result and keeps %d B live per result", onDisk, alloc, per)
	if !raceEnabled && per >= 88 {
		t.Errorf("the reopened store keeps %d B live per result, want < 88", per)
	}
}

// TestWALReplayCostsWhatItKeeps pins crash recovery's cost model: a
// store that never compacted reopens from its WAL alone, record by
// record, each record's FOM maps handed back to the decoder once the DB
// has stored its copies, so a replayed result allocates its share of
// the segments read (58 B), the row and pair chunks and the head
// tables, but no map: 227 B a result, where a fresh FOM map per
// replayed result made it 481.
func TestWALReplayCostsWhatItKeeps(t *testing.T) {
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
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var segments, onDisk int
	for name, data := range readDir(t, dir) {
		if _, ok := parseNumbered(name, snapshotPrefix, snapshotSuffix); ok {
			t.Fatalf("the store wrote generation %s: recovery would not be from the WAL alone", name)
		}
		if _, ok := parseNumbered(name, segmentPrefix, segmentSuffix); ok {
			segments++
			onDisk += len(data)
		}
	}
	var before, after runtime.MemStats
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
	alloc := float64(after.TotalAlloc-before.TotalAlloc) / results
	t.Logf("Open replayed %d segments (%d bytes) and allocated %.1f B per result", segments, onDisk, alloc)
	if !raceEnabled && alloc >= 256 {
		t.Errorf("Open allocated %.1f B per result, want < 256", alloc)
	}
}

// TestGenerationKeepsItsTable: a store writes every generation through
// one HeadTable. A generation of 512 heads written through a table that
// already wrote one allocates none of the table again — measured 96 B,
// the header's JSON — where a table of its own made it allocate 102 kB,
// and it writes the same bytes.
func TestGenerationKeepsItsTable(t *testing.T) {
	s, err := Open(t.TempDir(), fixedOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for runner := 0; runner < 64; runner++ { // 8 heads each
		if _, err := s.AppendMany(context.Background(), []Batch{fleetBatch(runner, runner, 16)}); err != nil {
			t.Fatal(err)
		}
	}
	head := &snapshotHeader{Format: snapshotFormat, Covered: 1, NextSeq: s.db.MaxSeq()}
	var want bytes.Buffer
	write := func(into *bytes.Buffer, table *metricsdb.HeadTable) {
		into.Reset()
		if _, err := (generationFile{s.db, head, table}).WriteTo(into); err != nil {
			t.Fatal(err)
		}
	}
	fresh := allocated(5, func(int) { write(&want, new(metricsdb.HeadTable)) })
	var kept metricsdb.HeadTable
	got := bytes.NewBuffer(make([]byte, 0, 2*want.Len()))
	write(got, &kept)
	again := allocated(5, func(int) { write(got, &kept) })
	t.Logf("a 512-head generation allocates %d bytes through a kept table, %d through a table of its own", again, fresh)
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("through a kept table the generation is\n%s\nthrough a table of its own\n%s", got.Bytes(), want.Bytes())
	}
	if !raceEnabled && (again >= 1<<10 || fresh < 64<<10) {
		t.Errorf("a 512-head generation allocates %d bytes through a kept table, want < %d, and %d through its own, want >= %d",
			again, 1<<10, fresh, 64<<10)
	}
}

// TestRecoverySharesNames: after a restart, results that arrived in
// different pushes — one since folded into a generation, one still in
// the WAL — hold one copy of the system name they share, and of the
// manifest they share; unequal manifests keep their own. So they do
// once a Compact has folded the WAL in too.
func TestRecoverySharesNames(t *testing.T) {
	dir := t.TempDir()
	opts := fixedOpts()
	opts.SegmentBytes = 1 // every append rotates
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	first, second, other := res("saxpy", "cts1", "saxpy_time", 1), res("stream", "cts1", "triad_bw", 2), res("amg2023", "cts1", "fom", 3)
	first.Manifest, second.Manifest, other.Manifest = "spack: {}", "spack: {}", "spack: {specs: []}"
	mustAppend(t, s, "first", first)
	mustAppend(t, s, "second", second, other)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, s, "third", other, second)
	for _, compact := range []bool{false, true} {
		if compact {
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if s, err = Open(dir, opts); err != nil {
			t.Fatal(err)
		}
		got := s.Query(metricsdb.Filter{System: "cts1"})
		if len(got) != 5 || got[0].System != "cts1" || got[4].System != "cts1" {
			t.Fatalf("recovered %+v", got)
		}
		byText := map[string]*byte{}
		for _, r := range got {
			if unsafe.StringData(r.System) != unsafe.StringData(got[0].System) || unsafe.StringData(r.Workload) != unsafe.StringData(got[0].Workload) {
				t.Errorf("result %d holds its own copy of a name result 1 holds too", r.Seq)
			}
			if held, ok := byText[r.Manifest]; !ok {
				byText[r.Manifest] = unsafe.StringData(r.Manifest)
			} else if held != unsafe.StringData(r.Manifest) {
				t.Errorf("compacted %v: result %d holds its own copy of manifest %q", compact, r.Seq, r.Manifest)
			}
		}
		if len(byText) != 2 || byText["spack: {}"] == byText["spack: {specs: []}"] {
			t.Errorf("compacted %v: manifests %v", compact, byText)
		}
	}
	s.Close()
}
