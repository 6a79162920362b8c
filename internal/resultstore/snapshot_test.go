package resultstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math/bits"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/fsys"
	"repro/internal/metricsdb"
)

// chainOpts rotates on every append (any record outgrows 64 bytes) and
// compacts only when the test says so, so file layouts are exact.
func chainOpts() Options {
	opts := fixedOpts()
	opts.SegmentBytes = 64
	return opts
}

// served is the byte form of everything a store serves.
func served(t *testing.T, s *Store) string {
	t.Helper()
	data, err := json.Marshal(s.Query(metricsdb.Filter{}))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func snapshotFiles(t *testing.T, dir string) []int {
	t.Helper()
	snaps, err := listNumbered(fsys.OS, dir, snapshotPrefix, snapshotSuffix)
	if err != nil {
		t.Fatal(err)
	}
	return snaps
}

// readDir returns every regular file in dir by name.
func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = data
	}
	return files
}

func writeDir(t *testing.T, files map[string][]byte) string {
	t.Helper()
	dir := t.TempDir()
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// buildChain appends one single-result batch per entry of compactAfter
// and compacts after those marked true. It returns the store still
// open.
func buildChain(t *testing.T, dir string, prefix string, compactAfter ...bool) *Store {
	t.Helper()
	s, err := Open(dir, chainOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i, compact := range compactAfter {
		mustAppend(t, s, fmt.Sprintf("%s-%d", prefix, i), res("saxpy", "cts1", "saxpy_time", float64(i)))
		if compact {
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return s
}

// threeGenerations leaves a closed store whose chain is three files —
// sizes 4, 2 and 1 results — under a sealed and an active segment.
func threeGenerations(t *testing.T) (dir string, want string, keys []string) {
	t.Helper()
	dir = t.TempDir()
	// Tails of 2,1,1 results merge into one generation of 4; then 1,1
	// into one of 2; then 1. The last two appends stay in the WAL.
	s := buildChain(t, dir, "k", false, true, true, true, true, true, true, false, false)
	if got := snapshotFiles(t, dir); len(got) != 3 {
		t.Fatalf("snapshot files %v, want three generations", got)
	}
	want = served(t, s)
	for i := 0; i < 9; i++ {
		keys = append(keys, fmt.Sprintf("k-%d", i))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, want, keys
}

// requireState opens dir and requires the store to serve exactly want
// and hold every key.
func requireState(t *testing.T, dir, want string, keys []string) *Store {
	t.Helper()
	s, err := Open(dir, chainOpts())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if got := served(t, s); got != want {
		s.Close()
		t.Fatalf("served results differ after reopen:\n got %s\nwant %s", got, want)
	}
	if got := s.Health().IngestKeys; got != len(keys) {
		t.Errorf("Health().IngestKeys = %d, want %d", got, len(keys))
	}
	for _, k := range keys {
		if !s.HasKey(k) {
			t.Errorf("ingest key %s lost", k)
		}
	}
	return s
}

// TestCompactionIsSizeTiered pins the merge rule: after every Compact
// each generation is larger than everything newer combined, so the
// chain is logarithmic in the store; the files on disk are exactly the
// chain; and the bytes compaction wrote stay far below what rewriting
// the whole state every time costs.
func TestCompactionIsSizeTiered(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, chainOpts())
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 64
	// One batch ahead, so that every round seals a segment.
	keys := []string{"k-first"}
	mustAppend(t, s, keys[0], res("saxpy", "cts1", "saxpy_time", -1))
	var wholeState int64 // what one full snapshot per round would have written
	for i := 0; i < rounds; i++ {
		keys = append(keys, fmt.Sprintf("k-%d", i))
		mustAppend(t, s, fmt.Sprintf("k-%d", i), res("saxpy", "cts1", "saxpy_time", float64(i)))
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
		s.mu.Lock()
		gens := append([]generation(nil), s.gens...)
		s.mu.Unlock()
		newer := 0
		for g := len(gens) - 1; g >= 0; g-- {
			before := 0
			if g > 0 {
				before = gens[g-1].topSeq
			}
			held := gens[g].topSeq - before
			if g < len(gens)-1 && held <= newer {
				t.Fatalf("round %d: generation %d holds %d results, the newer ones %d: it should have been absorbed", i, g, held, newer)
			}
			newer += held
		}
		if limit := bits.Len(uint(s.Len())); len(gens) > limit {
			t.Fatalf("round %d: %d generations for %d results, want at most %d", i, len(gens), s.Len(), limit)
		}
		var onDisk []int
		for _, g := range gens {
			onDisk = append(onDisk, g.covered)
		}
		if got := snapshotFiles(t, dir); !reflect.DeepEqual(got, onDisk) {
			t.Fatalf("round %d: snapshot files %v, chain %v", i, got, onDisk)
		}
		h := s.Health()
		wholeState += h.SnapshotBytes
		if h.SnapshotGenerations != len(gens) || h.Compactions != int64(i+1) || h.SnapshotCovered != gens[len(gens)-1].covered {
			t.Fatalf("round %d: Health %+v disagrees with a chain of %d", i, h, len(gens))
		}
	}
	h := s.Health()
	if h.CompactionBytesWritten*4 > wholeState {
		t.Fatalf("compaction wrote %d bytes; a whole-state rewrite per round writes %d — not tiered", h.CompactionBytesWritten, wholeState)
	}
	// Nothing newly sealed: a no-op, not another generation.
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if after := s.Health(); after.Compactions != h.Compactions || after.SnapshotGenerations != h.SnapshotGenerations {
		t.Fatalf("Compact with nothing sealed wrote a generation: %+v then %+v", h, after)
	}
	want := served(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	requireState(t, dir, want, keys).Close()
}

// TestChainSurvivesPowerCuts covers the two crash windows of a
// generation write, with the files arranged as each leaves them.
func TestChainSurvivesPowerCuts(t *testing.T) {
	dir, want, keys := threeGenerations(t)
	before := readDir(t, dir)
	// The next compaction absorbs all three generations (2 results in
	// the tail, then 1, 2 and 4) into one file.
	s, err := Open(dir, chainOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	after := readDir(t, dir)
	merged := snapshotFiles(t, dir)
	if len(merged) != 1 {
		t.Fatalf("snapshot files %v after the merge, want one", merged)
	}
	mergedName := snapshotName(merged[0])

	cases := []struct {
		name  string
		files func() map[string][]byte
	}{
		{
			// Cut after the merged generation's rename, before any delete:
			// the new file beside everything it supersedes.
			name: "after rename, before deletes",
			files: func() map[string][]byte {
				files := map[string][]byte{mergedName: after[mergedName]}
				for name, data := range before {
					files[name] = data
				}
				return files
			},
		},
		{
			// Cut halfway through the deletes.
			name: "between deletes",
			files: func() map[string][]byte {
				files := map[string][]byte{}
				for name, data := range after {
					files[name] = data
				}
				survivor := snapshotName(snapshotFilesOf(before)[1])
				files[survivor] = before[survivor]
				return files
			},
		},
		{
			// Cut before the rename: the old chain, the WAL, and a temp
			// file holding part of the generation.
			name: "before rename",
			files: func() map[string][]byte {
				files := map[string][]byte{fsys.TempPrefix + "123456": after[mergedName][:len(after[mergedName])/2]}
				for name, data := range before {
					files[name] = data
				}
				return files
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			crashed := writeDir(t, tc.files())
			s := requireState(t, crashed, want, keys)
			defer s.Close()
			// Whatever the chain subsumes, and every temp file, is gone.
			onDisk := 0
			for name := range readDir(t, crashed) {
				if strings.HasPrefix(name, fsys.TempPrefix) {
					t.Errorf("%s survived Open", name)
				}
				if strings.HasPrefix(name, snapshotPrefix) {
					onDisk++
				}
			}
			if h := s.Health(); onDisk != h.SnapshotGenerations {
				t.Errorf("%d snapshot files on disk, chain of %d", onDisk, h.SnapshotGenerations)
			}
			// And the recovered store keeps working: append, compact, reopen.
			mustAppend(t, s, "post-crash", res("saxpy", "cts1", "saxpy_time", 9.9))
			mustAppend(t, s, "post-crash-2", res("saxpy", "cts1", "saxpy_time", 9.8))
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
			again := served(t, s)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			requireState(t, crashed, again, append(append([]string(nil), keys...), "post-crash", "post-crash-2")).Close()
		})
	}
}

// snapshotFilesOf lists the snapshot numbers among files, ascending.
func snapshotFilesOf(files map[string][]byte) []int {
	var out []int
	for name := range files {
		if n, ok := parseNumbered(name, snapshotPrefix, snapshotSuffix); ok {
			out = append(out, n)
		}
	}
	sort.Ints(out)
	return out
}

// resealed is a generation file's bytes with its checksum made to
// match them again: a file a writer got wrong rather than one damaged
// after it was written. A file without a checksum gets one in place of
// its last '}'; one without a '}' comes back as it is.
func resealed(data []byte) []byte {
	at := bytes.LastIndex(data, []byte(`,"crc32":`))
	if at < 0 {
		at = bytes.LastIndexByte(data, '}')
	}
	if at < 0 {
		return data
	}
	return fmt.Appendf(data[:at:at], `,"crc32":%d}`, crc32.ChecksumIEEE(data[:at]))
}

// TestOpenRefusesBrokenChain: a missing or damaged generation is a
// loud Open error naming the file, never a store with a hole in it —
// and so is a chain whose links disagree though each file's checksum
// matches it (a flip the checksum catches, TestOpenRefusesAFlippedByte
// pins).
func TestOpenRefusesBrokenChain(t *testing.T) {
	dir, _, _ := threeGenerations(t)
	intact := readDir(t, dir)
	snaps := snapshotFilesOf(intact)
	oldest, middle, newest := snapshotName(snaps[0]), snapshotName(snaps[1]), snapshotName(snaps[2])
	flip := func(name, at string) func(map[string][]byte) {
		return func(files map[string][]byte) {
			data := append([]byte(nil), files[name]...)
			i := strings.Index(string(data), at)
			if i < 0 {
				t.Fatalf("%s does not contain %q", name, at)
			}
			data[i] ^= 0x01
			files[name] = resealed(data)
		}
	}
	cases := []struct {
		name    string
		damage  func(files map[string][]byte)
		wantErr string // a substring the error must carry
	}{
		{"middle generation deleted", func(f map[string][]byte) { delete(f, middle) },
			fmt.Sprintf("nothing covers segments %d..%d", snaps[0]+1, snaps[1])},
		{"oldest generation deleted", func(f map[string][]byte) { delete(f, oldest) },
			fmt.Sprintf("nothing covers segments 1..%d", snaps[0])},
		{"newest truncated", func(f map[string][]byte) { f[newest] = f[newest][:len(f[newest])/2] }, newest},
		{"oldest truncated to nothing", func(f map[string][]byte) { f[oldest] = nil }, oldest},
		{"bit flip in the format tag", flip(middle, "benchpark-snap"), middle},
		{"bit flip in the covered field's name", flip(newest, "covered_segment"), newest},
		{"bit flip in the base link", flip(newest, fmt.Sprintf(`%d,"covered_segment"`, snaps[1])), "snapshot chain is broken"},
		{"generation renamed", func(f map[string][]byte) {
			f[snapshotName(snaps[2]+1)] = f[newest]
			delete(f, newest)
		}, "its name says"},
		{"seq ranges disagree", func(f map[string][]byte) {
			f[middle] = resealed([]byte(strings.Replace(string(f[middle]), `"after_seq":4`, `"after_seq":3`, 1)))
		}, "snapshot chain is broken"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			files := map[string][]byte{}
			for name, data := range intact {
				files[name] = data
			}
			tc.damage(files)
			s, err := Open(writeDir(t, files), chainOpts())
			if err == nil {
				s.Close()
				t.Fatalf("Open succeeded with %d results", s.Len())
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Open error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestOldFormatStoresAreRefused: a store reads only the format it
// writes. A data directory of an older one — a benchpark-snap-1, -2 or
// -3 generation, or WAL records whose results come without a head table
// — fails Open with an error naming the file and its format or the
// missing head table, and Open leaves every file as it was.
func TestOldFormatStoresAreRefused(t *testing.T) {
	fixture := func(name string, without ...string) map[string][]byte {
		files := readDir(t, filepath.Join("testdata", name))
		for _, file := range without {
			delete(files, file)
		}
		return files
	}
	for _, tc := range []struct {
		name  string
		files map[string][]byte
		want  []string // what the error must name
	}{
		{"parent-format", fixture("parent-format"), []string{"snap-00000003.json", `format "benchpark-snap-1"`}},
		{"inline-manifests", fixture("inline-manifests"), []string{"snap-00000001.json", `format "benchpark-snap-2"`}},
		{"snap3-manifests", fixture("snap3-manifests"), []string{"snap-00000001.json", `format "benchpark-snap-3"`}},
		{"inline-manifests WAL only", fixture("inline-manifests", "snap-00000001.json"), []string{"wal-00000002.log", "no head table"}},
		{"snap3-manifests WAL only", fixture("snap3-manifests", "snap-00000001.json"), []string{"wal-00000002.log", "no head table"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := writeDir(t, tc.files)
			s, err := Open(dir, chainOpts())
			if err == nil {
				s.Close()
				t.Fatalf("Open took the store, serving %d results", s.Len())
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("Open error %q does not name %q", err, want)
				}
			}
			if after := readDir(t, dir); !reflect.DeepEqual(after, tc.files) {
				t.Errorf("the refused Open changed the directory: %d files before, %d after", len(tc.files), len(after))
			}
		})
	}
}

// TestGenerationTablesAreChecked: a benchpark-snap-4 generation's
// results read through its tables, wherever they stand, with each trace
// ID the previous result's unless it names one; and a head or a
// manifest the tables do not hold, a head of other than five members, a
// checksum that does not match or does not end the file, and the same
// tables or checksum under an older format tag are refused.
func TestGenerationTablesAreChecked(t *testing.T) {
	const (
		header  = `{"format":"benchpark-snap-4","base_segment":2,"covered_segment":3,"after_seq":3,"next_seq":6,"keys":["c"]`
		results = `,"results":[{"seq":4,"head":0,"foms":{"t":4},"trace_id":"t1"},{"seq":5,"head":1,"foms":{"t":5}},{"seq":6,"head":0,"foms":{"t":6},"trace_id":""}]`
		tables  = `,"manifests":["m0"],"heads":[["saxpy","problem","cts1","e",0],["saxpy","problem","cts1","f",-1]]`
	)
	sealed := func(body string) string { return string(resealed([]byte(header + body + `,"crc32":0}`))) }
	read := func(file string) ([]metricsdb.Result, error) {
		var d metricsdb.Decoder
		var got []metricsdb.Result
		snap, err := decodeHeader(&d, []byte(file), 3)
		if err == nil {
			err = snap.eachResult(&d, func(r metricsdb.Result) error { got = append(got, r); return nil })
		}
		return got, err
	}
	want := []string{"4 e m0 t1", "5 f  t1", "6 e m0 "}
	for _, file := range []string{sealed(results + tables), sealed(tables + results)} {
		got, err := read(file)
		var short []string
		for _, r := range got {
			if r.Benchmark != "saxpy" || r.Workload != "problem" || r.System != "cts1" {
				t.Errorf("result %d reads as %+v", r.Seq, r)
			}
			short = append(short, fmt.Sprint(r.Seq, " ", r.Experiment, " ", r.Manifest, " ", r.TraceID))
		}
		if err != nil || !reflect.DeepEqual(short, want) {
			t.Errorf("%s\nreads as %q (%v), want %q", file, short, err, want)
		}
	}
	whole := sealed(results + tables)
	for _, file := range []string{
		sealed(strings.Replace(results, `"head":1`, `"head":-1`, 1) + tables),
		sealed(strings.Replace(results, `"head":1`, `"head":2`, 1) + tables),
		sealed(results + strings.Replace(tables, `"f",-1`, `"f",1`, 1)),
		sealed(results + strings.Replace(tables, `"f",-1`, `"f"`, 1)),
		header + results + tables + `,"crc32":1}`,
		header + results + tables + `}`,
		whole[:len(whole)-1] + `,"x":1}`,
	} {
		if got, err := read(file); err == nil {
			t.Errorf("%s\nread as %d results, want it refused", file, len(got))
		}
	}
	snap3 := strings.Replace(header, "snap-4", "snap-3", 1)
	for _, file := range []string{snap3 + results + tables + `}`, string(resealed([]byte(snap3 + `,"results":[],"crc32":0}`)))} {
		if _, err := read(file); err == nil || !strings.Contains(err.Error(), `format "benchpark-snap-3": this binary reads only benchpark-snap-4`) {
			t.Errorf("%s\nread with error %v, want it refused for its format", file, err)
		}
	}
}

// TestOpenRefusesAFlippedByte: a generation's checksum covers every
// byte before it, so one byte changed inside the results of a compacted
// store — a FOM's digit, which still parses — makes Open refuse the
// store, naming the file, where the unchanged bytes open.
func TestOpenRefusesAFlippedByte(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, chainOpts())
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, s, "k1", res("saxpy", "cts1", "saxpy_time", 1234))
	mustAppend(t, s, "k2", res("saxpy", "cts1", "saxpy_time", 5678))
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	name := snapshotName(snapshotFiles(t, dir)[0])
	path := filepath.Join(dir, name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(data, []byte(`"saxpy_time":1234`)) + len(`"saxpy_time":12`)
	if at < len(`"saxpy_time":12`) || bytes.Index(data, []byte(`"results":`)) > at {
		t.Fatalf("no FOM 1234 among the results of %s", data)
	}
	flipped := slices.Clone(data)
	flipped[at] = '9'
	if err := json.Unmarshal(flipped, new(any)); err != nil {
		t.Fatalf("the flipped file is not valid JSON (%v), so it proves nothing", err)
	}
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := Open(dir, chainOpts()); err == nil || !strings.Contains(err.Error(), name) || !strings.Contains(err.Error(), "checksum") {
		if err == nil {
			s.Close()
		}
		t.Fatalf("Open of a generation with one byte flipped: %v, want a checksum error naming %s", err, name)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err = Open(dir, chainOpts())
	if err != nil {
		t.Fatalf("Open of the unchanged bytes: %v", err)
	}
	s.Close()
}

// TestOpenRemovesStaleTemps: what a crash inside fsys.Commit
// leaves behind is deleted by the next Open, and nothing else is.
func TestOpenRemovesStaleTemps(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, fixedOpts())
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, s, "k1", res("saxpy", "cts1", "saxpy_time", 1.0))
	want := served(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{fsys.TempPrefix + "1234567890", "notes.txt"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(`{"format":"benchpark-snap-2","cov`), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	requireState(t, dir, want, []string{"k1"}).Close()
	files := readDir(t, dir)
	if _, ok := files[fsys.TempPrefix+"1234567890"]; ok {
		t.Error("the stale temp file survived Open")
	}
	if _, ok := files["notes.txt"]; !ok {
		t.Error("Open removed a file that is not a temp file")
	}
}

// TestGenerationSpansPages: Compact streams a generation's results a
// page at a time while appends keep landing. Whatever the tail's size —
// four to eight pages of these results, the last one ending at a
// different place each time — the file holds each result up to the
// captured NextSeq once, and none of what arrived after the capture.
func TestGenerationSpansPages(t *testing.T) {
	for _, results := range []int{1023, 1024, 1025, 2048, 2055} {
		t.Run(fmt.Sprint(results), func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, chainOpts())
			if err != nil {
				t.Fatal(err)
			}
			rs := make([]metricsdb.Result, results)
			for i := range rs {
				rs[i] = res("saxpy", "cts1", "saxpy_time", float64(i))
			}
			mustAppend(t, s, "bulk", rs...)
			mustAppend(t, s, "seal", res("saxpy", "cts1", "saxpy_time", -1)) // rotates; in the generation too
			head, _ := s.planGeneration()
			if head == nil {
				t.Fatal("planGeneration planned nothing")
			}
			mustAppend(t, s, "late", res("saxpy", "cts1", "saxpy_time", -2)) // after the capture
			var file bytes.Buffer
			if n, err := (generationFile{s.db, head, new(metricsdb.HeadTable)}).WriteTo(&file); err != nil || n != int64(file.Len()) {
				t.Fatalf("WriteTo wrote %d bytes, reports %d: %v", file.Len(), n, err)
			}
			var snap struct {
				snapshotHeader
				Results []storedResult `json:"results"`
			}
			if err := json.Unmarshal(file.Bytes(), &snap); err != nil {
				t.Fatal(err)
			}
			if len(snap.Results) != results+1 {
				t.Fatalf("generation holds %d results, want %d", len(snap.Results), results+1)
			}
			for i, r := range snap.Results {
				if r.Seq != i+1 {
					t.Fatalf("result %d has Seq %d", i, r.Seq)
				}
			}
			// The same bytes a whole-value encode gives.
			held := s.db.QueryAfterN(0, results+1)
			if !bytes.Equal(file.Bytes(), generationBytes(t, head, held)) {
				t.Fatal("streamed generation differs from json.Marshal of the same snapshot")
			}
			// And what recovery reads back, header then results streamed,
			// is the header json.Unmarshal reads and the results the DB
			// holds.
			var dec metricsdb.Decoder
			var streamed []metricsdb.Result
			read, err := decodeHeader(&dec, file.Bytes(), head.Covered)
			if err == nil {
				err = read.eachResult(&dec, func(r metricsdb.Result) error { streamed = append(streamed, r); return nil })
			}
			if err != nil || !reflect.DeepEqual(read.snapshotHeader, snap.snapshotHeader) || !reflect.DeepEqual(streamed, held) {
				t.Fatalf("recovery reads the generation as %+v with %d results (%v), json.Unmarshal as %+v with %d",
					read.snapshotHeader, len(streamed), err, snap.snapshotHeader, len(held))
			}
			// And through the real path: compact, reopen, same served bytes.
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
			want := served(t, s)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			requireState(t, dir, want, []string{"bulk", "seal", "late"}).Close()
		})
	}
}
