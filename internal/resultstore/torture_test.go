package resultstore

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// TestPowerCutAtEveryByte is the crash-safety contract of the WAL,
// checked exhaustively: write a sequence of batches, then simulate a
// power cut at EVERY byte offset of the segment by truncating a copy
// there, and require that recovery (a) keeps exactly the batches whose
// final byte made it to disk, (b) drops the torn tail without an
// error, and (c) accepts new appends afterwards. Offsets are exact
// because the WAL has no file header — a batch is durable iff the file
// reaches its commit boundary.
//
// The torn segment sits on top of a snapshot chain of two generations
// and a sealed, not yet compacted segment, so every cut also recovers
// through the chain: what the generations hold must come back whatever
// happens to the WAL above them.
func TestPowerCutAtEveryByte(t *testing.T) {
	const batches = 6
	golden := t.TempDir()
	// Five single-result batches, a segment each: generations of 3 and
	// 2 results, then "base-5" in the segment the torture appends to.
	base := buildChain(t, golden, "base", false, false, true, false, true, false)
	const chained = 5
	if h := base.Health(); h.SnapshotGenerations != 2 {
		t.Fatalf("chain of %d generations beneath the torn segment, want 2", h.SnapshotGenerations)
	}
	torn := base.Health().ActiveSegment
	if err := base.Close(); err != nil {
		t.Fatal(err)
	}
	opts := Options{
		SegmentBytes:        1 << 20, // never rotate: one segment, exact offsets
		Clock:               telemetry.FixedClock{T: time.Unix(1700000000, 0)},
		NoBackgroundCompact: true,
	}
	s, err := Open(golden, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The segment's batches in write order: key, result count, and the
	// commit point — the segment size after the append.
	type commit struct {
		key      string
		results  int
		boundary int64
	}
	segPath := filepath.Join(golden, segmentName(torn))
	size := func() int64 {
		fi, err := os.Stat(segPath)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	commits := []commit{{"base-5", 1, size()}}
	for i := 0; i < batches; i++ {
		key := fmt.Sprintf("batch-%d", i)
		mustAppend(t, s, key,
			res("saxpy", "cts1", "saxpy_time", float64(i)),
			res("saxpy", "cloud-c5n", "saxpy_time", float64(i)+0.5))
		commits = append(commits, commit{key, 2, size()})
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	files := readDir(t, golden)
	data := files[segmentName(torn)]
	if int64(len(data)) != commits[batches].boundary {
		t.Fatalf("segment is %d bytes, want %d", len(data), commits[batches].boundary)
	}

	for off := 0; off <= len(data); off++ {
		files[segmentName(torn)] = data[:off]
		dir := writeDir(t, files)
		wantResults := chained
		var lastGood int64
		for _, c := range commits {
			if c.boundary <= int64(off) {
				wantResults += c.results
				lastGood = c.boundary
			}
		}

		rec, err := Open(dir, opts)
		if err != nil {
			t.Fatalf("offset %d: recovery errored: %v", off, err)
		}
		if got := rec.Len(); got != wantResults {
			t.Fatalf("offset %d: recovered %d results, want %d", off, got, wantResults)
		}
		for i := 0; i < chained; i++ {
			if key := fmt.Sprintf("base-%d", i); !rec.HasKey(key) {
				t.Fatalf("offset %d: %s, held by the snapshot chain, is gone", off, key)
			}
		}
		for _, c := range commits {
			want := c.boundary <= int64(off)
			if got := rec.HasKey(c.key); got != want {
				t.Fatalf("offset %d: HasKey(%s) = %v, want %v", off, c.key, got, want)
			}
		}
		// Recovery must have truncated the torn tail back to the last
		// commit boundary so new appends land on clean ground.
		fi, err := os.Stat(filepath.Join(dir, segmentName(torn)))
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != lastGood {
			t.Fatalf("offset %d: segment is %d bytes after recovery, want %d", off, fi.Size(), lastGood)
		}
		mustAppend(t, rec, "post-crash", res("saxpy", "cts1", "saxpy_time", 9.9))
		if err := rec.Close(); err != nil {
			t.Fatalf("offset %d: close: %v", off, err)
		}
		// And the post-crash append itself survives another recovery.
		rec2, err := Open(dir, opts)
		if err != nil {
			t.Fatalf("offset %d: second recovery: %v", off, err)
		}
		if got := rec2.Len(); got != wantResults+1 {
			t.Fatalf("offset %d: second recovery holds %d results, want %d", off, got, wantResults+1)
		}
		rec2.Close()
		os.RemoveAll(dir)
	}
}

// TestPowerCutWithBitrot flips a byte inside the tail record instead
// of truncating: CRC validation must drop the corrupted record and
// everything after it while keeping the intact prefix.
func TestPowerCutWithBitrot(t *testing.T) {
	golden := t.TempDir()
	opts := Options{
		SegmentBytes:        1 << 20,
		Clock:               telemetry.FixedClock{T: time.Unix(1700000000, 0)},
		NoBackgroundCompact: true,
	}
	s, err := Open(golden, opts)
	if err != nil {
		t.Fatal(err)
	}
	segPath := filepath.Join(golden, segmentName(1))
	mustAppend(t, s, "good", res("saxpy", "cts1", "saxpy_time", 1.0))
	fi, err := os.Stat(segPath)
	if err != nil {
		t.Fatal(err)
	}
	boundary := fi.Size()
	mustAppend(t, s, "casualty", res("saxpy", "cts1", "saxpy_time", 2.0))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	data[boundary+recordHeaderSize+4] ^= 0xff // corrupt the second payload
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("recovery errored on bitrot: %v", err)
	}
	defer rec.Close()
	if rec.Len() != 1 || !rec.HasKey("good") || rec.HasKey("casualty") {
		t.Fatalf("bitrot recovery: Len=%d good=%v casualty=%v",
			rec.Len(), rec.HasKey("good"), rec.HasKey("casualty"))
	}
}

// TestScanRecordsRejectsHugeLength pins that a corrupt length field is
// treated as a torn tail, not an allocation request.
func TestScanRecordsRejectsHugeLength(t *testing.T) {
	data := []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}
	payloads, good := scanRecords(data)
	if len(payloads) != 0 || good != 0 {
		t.Fatalf("scanRecords = %d payloads, good=%d; want 0, 0", len(payloads), good)
	}
}

// TestTornTailInteriorSegment: only the newest segment may be
// truncated on recovery; an older (sealed) segment with a tear stops
// replaying at the tear but keeps its bytes.
func TestTornTailInteriorSegment(t *testing.T) {
	dir := t.TempDir()
	opts := Options{
		SegmentBytes:        40, // tiny: force rotation between batches
		Clock:               telemetry.FixedClock{T: time.Unix(1700000000, 0)},
		NoBackgroundCompact: true,
	}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, s, "k1", res("saxpy", "cts1", "saxpy_time", 1.0))
	mustAppend(t, s, "k2", res("saxpy", "cts1", "saxpy_time", 2.0))
	mustAppend(t, s, "k3", res("saxpy", "cts1", "saxpy_time", 3.0))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listNumbered(dir, segmentPrefix, segmentSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("need at least two segments, got %v", segs)
	}
	// Tear the FIRST segment mid-record.
	first := filepath.Join(dir, segmentName(segs[0]))
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	torn := int64(len(data) - 3)
	if err := os.Truncate(first, torn); err != nil {
		t.Fatal(err)
	}
	rec, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("recovery errored: %v", err)
	}
	defer rec.Close()
	// k1's record was torn away; later segments still replay.
	if rec.HasKey("k1") {
		t.Fatal("torn k1 should not have been recovered")
	}
	if !rec.HasKey("k2") || !rec.HasKey("k3") {
		t.Fatal("segments after the torn one must still replay")
	}
	fi, err := os.Stat(first)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != torn {
		t.Fatalf("sealed segment was modified: %d bytes, want %d", fi.Size(), torn)
	}
}
