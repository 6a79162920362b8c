package resultstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/fsys"
	"repro/internal/metricsdb"
)

// FuzzScanRecords: the WAL frame decoder takes whatever a crash or a
// failing disk left in a segment. It must never panic, never read past
// its input, and what it calls committed must be exactly the frames
// sealRecord would have framed.
func FuzzScanRecords(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		payloads, good := scanRecords(data)
		if good < 0 || good > len(data) {
			t.Fatalf("good offset %d outside the %d input bytes", good, len(data))
		}
		var framed []byte
		for _, p := range payloads {
			at := len(framed)
			framed = append(append(framed, make([]byte, recordHeaderSize)...), p...)
			sealRecord(framed, at)
		}
		if !bytes.Equal(framed, data[:good]) {
			t.Fatalf("re-framing the %d committed payloads gives %d bytes, not the %d-byte committed prefix", len(payloads), len(framed), good)
		}
		if again, g := scanRecords(data[:good]); g != good || len(again) != len(payloads) {
			t.Fatalf("the committed prefix rescans to %d payloads / %d bytes, want %d / %d", len(again), g, len(payloads), good)
		}
	})
}

// FuzzWALRecord: replay decodes whatever payload a CRC-valid record
// holds. The decoder must never panic. What it accepts, appendJSON
// writes back as a record that decodes to the same batch — each result's
// head and trace ID included — and re-encodes to the same bytes. With
// ref and a table of tableLen entries, two records are refused exactly
// when ref is not an index of that table: a head naming manifest ref
// (or -1, none), and a result naming head ref; a third, whose result
// names manifest ref with no head table, as records before the head
// table did, is refused whatever ref is. So is every seed in a form
// written before the head table.
func FuzzWALRecord(f *testing.F) {
	manifest := "suite: saxpy/openmp\nsystem-model: 0123456789abcdef\nroot: saxpy@1.0 <&>\n"
	r := res("saxpy", "cts1", "saxpy_time", 1)
	r.Seq, r.Manifest = 1, manifest
	other := res("stream", "cts1", "triad_bw", 2)
	other.Seq, other.Manifest, other.TraceID = 2, "suite: stream/openmp\n", "00f067aa0ba902b700f067aa0ba902b7"
	bare := res("amg2023", "cts1", "fom", 3)
	bare.Seq = 3
	var table metricsdb.HeadTable
	for _, b := range []walBatch{
		{Key: "k", TraceID: "4bf92f3577b34da6a3ce929d0e0e4736", Results: []metricsdb.Result{r, other, r, bare}},
		{Key: "bare", Results: []metricsdb.Result{bare, other, bare}},
	} {
		payload, err := b.appendJSON(nil, &table)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload, uint8(2), 1)
	}
	// Records before the head table: names and manifests inline, with a
	// receive time, and manifest tables. Replay refuses them.
	inline, err := json.Marshal(map[string]any{"key": "old", "received_unix_ns": 1, "results": []metricsdb.Result{r, other}})
	if err != nil {
		f.Fatal(err)
	}
	var d metricsdb.Decoder
	for _, old := range []string{
		string(inline),
		`{"key":"late","results":[{"manifest":0}],"manifests":["m"]}`,
		`{"key":"out","manifests":["m"],"results":[{"manifest":1}]}`,
	} {
		if err := new(walBatch).decode(&d, []byte(old)); err == nil || !strings.Contains(err.Error(), "no head table") {
			f.Fatalf("%s: decode error %v, want it refused for having no head table", old, err)
		}
		f.Add([]byte(old), uint8(1), 0)
	}
	for _, seed := range []string{
		// Heads: an index of -1 and one past the table, a manifest index
		// past its table inside a head, names given inline and by index,
		// and the table after the results.
		`{"key":"neg","heads":[["b","w","s","e",-1]],"results":[{"seq":1,"head":-1}]}`,
		`{"key":"past","heads":[["b","w","s","e",-1]],"results":[{"seq":1,"head":1}]}`,
		`{"key":"mpast","manifests":["m"],"heads":[["b","w","s","e",1]],"results":[{"seq":1,"head":0}]}`,
		`{"key":"both","manifests":["m"],"heads":[["b","w","s","e",0]],"results":[{"seq":1,"system":"x","head":0,"benchmark":"y","manifest":"n"}]}`,
		`{"key":"after","results":[{"seq":1,"head":0}],"manifests":["m"],"heads":[["b","w","s","e",0]]}`,
		`{"key":"short","heads":[["b","w","s","e"]],"results":[{"seq":1,"head":0}]}`,
		// Trace IDs: omitted after the record's, and an explicit "" after
		// a traced result.
		`{"key":"tr","trace_id":"t1","heads":[["b","w","s","e",-1]],"results":[{"seq":1,"head":0},{"seq":2,"head":0,"trace_id":"t2"},{"seq":3,"head":0},{"seq":4,"head":0,"trace_id":""},{"seq":5,"head":0}]}`,
	} {
		f.Add([]byte(seed), uint8(1), 0)
	}
	f.Fuzz(func(t *testing.T, payload []byte, tableLen uint8, ref int) {
		var d metricsdb.Decoder
		var b walBatch
		if b.decode(&d, payload) == nil {
			var table metricsdb.HeadTable
			first, err := b.appendJSON(nil, &table)
			if err != nil {
				return // a FOM with no JSON form never reaches a record
			}
			var back walBatch
			if err := back.decode(&d, first); err != nil {
				t.Fatalf("appendJSON wrote %s, which does not decode: %v", first, err)
			}
			if back.Key != b.Key || back.TraceID != b.TraceID || len(back.Results) != len(b.Results) {
				t.Fatalf("decoded back as key %q trace %q with %d results, want %q %q with %d",
					back.Key, back.TraceID, len(back.Results), b.Key, b.TraceID, len(b.Results))
			}
			for i, r := range b.Results {
				g := back.Results[i]
				if g.Seq != r.Seq || g.Benchmark != r.Benchmark || g.Workload != r.Workload || g.System != r.System ||
					g.Experiment != r.Experiment || g.Manifest != r.Manifest || g.TraceID != r.TraceID {
					t.Fatalf("result %d decoded back as %+v, want %+v", i, g, r)
				}
			}
			if again, _ := back.appendJSON(nil, &table); !bytes.Equal(again, first) {
				t.Fatalf("re-encoding the decoded record gives\n%s\nnot\n%s", again, first)
			}
		}
		n := int(tableLen % 4)
		list := func(each func(i int) string) string {
			var out []string
			for i := 0; i < n; i++ {
				out = append(out, each(i))
			}
			return "[" + strings.Join(out, ",") + "]"
		}
		manifests := list(func(i int) string { return strconv.Quote(fmt.Sprint("m", i)) })
		heads := list(func(i int) string { return fmt.Sprintf(`["b","w","s%d","e",-1]`, i) })
		for _, c := range []struct {
			record string
			inside bool
			check  func(r metricsdb.Result) bool
		}{
			{fmt.Sprintf(`{"key":"k","manifests":%s,"results":[{"benchmark":"b","system":"s","manifest":%d}]}`, manifests, ref),
				false, nil},
			{fmt.Sprintf(`{"key":"k","manifests":%s,"heads":[["b","w","s","e",%d]],"results":[{"head":0}]}`, manifests, ref),
				ref >= -1 && ref < n, func(r metricsdb.Result) bool { return r.System == "s" && (ref < 0) == (r.Manifest == "") }},
			{fmt.Sprintf(`{"key":"k","heads":%s,"results":[{"seq":1,"head":%d}]}`, heads, ref),
				ref >= 0 && ref < n, func(r metricsdb.Result) bool { return r.System == fmt.Sprint("s", ref) && r.Manifest == "" }},
		} {
			err := b.decode(&d, []byte(c.record))
			if (err == nil) != c.inside {
				t.Fatalf("%s: decode error %v, index %d of a %d-entry table", c.record, err, ref, n)
			}
			if err == nil && !c.check(b.Results[0]) {
				t.Fatalf("%s: decoded as %+v", c.record, b.Results[0])
			}
		}
	})
}

// fuzzBase is the intact generation FuzzReadSnapshot's input is placed
// on top of: segments (0, 2], seqs (0, 3].
var fuzzBase = resealed([]byte(`{"format":"benchpark-snap-4","covered_segment":2,"next_seq":3,"keys":["a","b"],"results":[` +
	`{"seq":1,"head":0,"foms":{"t":1}},{"seq":2,"head":0,"foms":{"t":2}},{"seq":3,"head":0,"foms":{"t":3}}],` +
	`"heads":[["saxpy","problem","cts1","e",-1]],"crc32":0}`))

// FuzzReadSnapshot: recovery reads data as snap-<n>.json above one
// intact generation, in the two steps Open runs — loadChain over the
// headers, then each generation's results streamed oldest first. It
// must never panic; whenever both steps accept the directory the chain
// is sound — every file is a benchpark-snap-4 generation that agrees
// with its name, every link with the generation beneath it, every
// streamed Seq is in its generation's range — and Open serves exactly
// the results streamed; and what either step refuses, Open refuses.
// Each input is also read resealed, its checksum made to match, so a
// mutation reaches the chain links and the results behind the checksum.
func FuzzReadSnapshot(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, n int) {
		if n < 1 || n > 1<<20 {
			t.Skip()
		}
		readOnBase(t, data, n)
		if sealed := resealed(data); !bytes.Equal(sealed, data) {
			readOnBase(t, sealed, n)
		}
	})
}

// readOnBase is FuzzReadSnapshot's check of data as snap-<n>.json above
// fuzzBase, in a directory of its own.
func readOnBase(t *testing.T, data []byte, n int) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapshotName(2)), fuzzBase, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapshotName(n)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	refused := func(step string, err error) {
		if s, oerr := Open(dir, fixedOpts()); oerr == nil {
			s.Close()
			t.Fatalf("%s refused the directory (%v) but Open took it", step, err)
		}
	}
	var dec metricsdb.Decoder
	chain, stale, err := loadChain(fsys.OS, dir, &dec)
	if err != nil {
		refused("loadChain", err)
		return
	}
	if len(chain) == 0 || chain[len(chain)-1].Covered != max(n, 2) {
		t.Fatalf("chain %v does not end at the newest file", chain)
	}
	results, before := 0, &snapshot{}
	for _, snap := range chain {
		if snap.Format != snapshotFormat {
			t.Fatalf("accepted format %q", snap.Format)
		}
		if snap.Base != before.Covered || snap.AfterSeq != before.NextSeq || snap.Covered <= snap.Base {
			t.Fatalf("generation segments (%d, %d] seqs (%d, %d] does not continue segments ..%d seqs ..%d",
				snap.Base, snap.Covered, snap.AfterSeq, snap.NextSeq, before.Covered, before.NextSeq)
		}
		err := snap.eachResult(&dec, func(r metricsdb.Result) error {
			if r.Seq <= snap.AfterSeq || r.Seq > snap.NextSeq {
				t.Fatalf("seq %d outside (%d, %d]", r.Seq, snap.AfterSeq, snap.NextSeq)
			}
			results++
			return nil
		})
		if err != nil {
			refused("streaming "+snapshotName(snap.Covered), err)
			return
		}
		before = snap
	}
	if len(chain)+len(stale) != len(map[int]bool{2: true, n: true}) {
		t.Fatalf("%d on the chain + %d stale, but the directory holds other files", len(chain), len(stale))
	}
	s, err := Open(dir, fixedOpts())
	if err != nil {
		t.Fatalf("loadChain and the streamed results took the directory but Open did not: %v", err)
	}
	defer s.Close()
	if s.Len() != results {
		t.Fatalf("Open serves %d results, the chain streamed %d", s.Len(), results)
	}
}

// TestSnapshotSeedsFailForTheirReason: each FuzzReadSnapshot seed,
// placed on fuzzBase, is taken by Open or refused with the error its
// row names. A seed in a format older than benchpark-snap-4 is refused
// for its format unless the chain subsumes it, and the sealed twin of
// an older chain-shape seed meets the fate that seed met while its
// format was still read.
func TestSnapshotSeedsFailForTheirReason(t *testing.T) {
	rows := map[string][]string{
		// older-than-the-base lies below the chain, which subsumes it:
		// Open removes it unread, whatever its format.
		"": {"head-inline-and-indexed", "head-table", "head-table-first", "older-than-the-base", "sealed-empty-generation",
			"sealed-generation-on-base", "sealed-generation-skipping-segments", "sealed-merged-over-base",
			"sealed-older-than-the-base", "sealed-replaces-the-base"},
		`format "benchpark-snap-1": this binary reads only`: {"parent-format-full", "parent-format-with-base"},
		`format "benchpark-snap-2": this binary reads only`: {"after-seq-disagrees", "base-missing", "base-not-below-covered",
			"empty-generation", "generation-on-base", "generation-skipping-segments", "manifest-table-in-snap-2",
			"merged-over-base", "name-disagrees", "replaces-the-base", "seq-out-of-order", "seq-out-of-range"},
		`format "benchpark-snap-3": this binary reads only`: {"checksum-in-snap-3", "head-table-in-snap-3", "manifest-index-negative",
			"manifest-index-outside-table", "manifest-index-without-table", "manifest-inline-and-indexed", "manifest-table",
			"manifest-table-first"},
		`format "benchpark-snap-9": this binary reads only`:   {"unknown-format"},
		"does not end the file, or does not match":            {"checksum-mismatch", "checksum-missing", "checksum-not-last"},
		"is not in the file's table":                          {"head-index-negative", "head-index-outside-table"},
		"is not four names and one of the file's 1 manifests": {"head-manifest-outside-table", "head-of-four-members"},
		"invalid JSON": {"not-json", "truncated", "sealed-truncated"},
		"starts after seq 2, but snap-00000002.json ends at seq 3":           {"sealed-after-seq-disagrees"},
		"builds on snap-00000001.json, which is missing":                     {"sealed-base-missing"},
		"snap-00000003.json: covers segments (3, 3]":                         {"sealed-base-not-below-covered"},
		"snap-00000004.json: covers segment 3, but its name says 4":          {"sealed-name-disagrees"},
		"snap-00000003.json: result seq 4 is out of order or outside (3, 5]": {"sealed-seq-out-of-order"},
		"snap-00000003.json: result seq 7 is out of order or outside (3, 4]": {"sealed-seq-out-of-range"},
	}
	reason := map[string]string{}
	for why, seeds := range rows {
		for _, seed := range seeds {
			reason[seed] = why
		}
	}
	corpus := filepath.Join("testdata", "fuzz", "FuzzReadSnapshot")
	entries, err := os.ReadDir(corpus)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(reason) {
		t.Errorf("the corpus holds %d seeds, the table %d", len(entries), len(reason))
	}
	for _, e := range entries {
		want, ok := reason[e.Name()]
		if !ok {
			t.Errorf("seed %s has no row", e.Name())
			continue
		}
		raw, err := os.ReadFile(filepath.Join(corpus, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		// go test fuzz v1, then []byte("…") and int(n) a line each.
		lines := strings.Split(string(raw), "\n")
		data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("seed %s: %v", e.Name(), err)
		}
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(lines[2], "int("), ")"))
		if err != nil {
			t.Fatalf("seed %s: %v", e.Name(), err)
		}
		dir := writeDir(t, map[string][]byte{snapshotName(2): fuzzBase, snapshotName(n): []byte(data)})
		s, err := Open(dir, fixedOpts())
		switch {
		case err == nil && want != "":
			s.Close()
			t.Errorf("seed %s: Open took it, want it refused with %q", e.Name(), want)
		case err == nil:
			s.Close()
		case want == "" || !strings.Contains(err.Error(), want):
			t.Errorf("seed %s: Open error %v, want %q", e.Name(), err, want)
		}
	}
}
