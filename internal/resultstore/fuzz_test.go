package resultstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
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
// writes back as a record that decodes to the same batch and re-encodes
// to the same bytes. And a record whose table lists tableLen manifests
// and whose result names manifest ref is refused exactly when ref is
// not an index of that table.
func FuzzWALRecord(f *testing.F) {
	manifest := "suite: saxpy/openmp\nsystem-model: 0123456789abcdef\nroot: saxpy@1.0 <&>\n"
	r := res("saxpy", "cts1", "saxpy_time", 1)
	r.Seq, r.Manifest = 1, manifest
	other := res("stream", "cts1", "triad_bw", 2)
	other.Seq, other.Manifest = 2, "suite: stream/openmp\n"
	bare := res("amg2023", "cts1", "fom", 3)
	bare.Seq = 3
	var table metricsdb.ManifestTable
	for _, b := range []walBatch{
		{Key: "k", TraceID: "4bf92f3577b34da6a3ce929d0e0e4736", Received: 1700000000000000000, Results: []metricsdb.Result{r, other, r, bare}},
		{Key: "bare", Received: 1, Results: []metricsdb.Result{bare}},
	} {
		payload, err := b.appendJSON(nil, &table)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload, uint8(2), 1)
	}
	inline, err := json.Marshal(map[string]any{"key": "old", "received_unix_ns": 1, "results": []metricsdb.Result{r, other}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(inline, uint8(0), 0)
	f.Add([]byte(`{"key":"late","results":[{"manifest":0}],"manifests":["m"]}`), uint8(1), -1)
	f.Add([]byte(`{"key":"out","manifests":["m"],"results":[{"manifest":1}]}`), uint8(3), 3)
	f.Fuzz(func(t *testing.T, payload []byte, tableLen uint8, ref int) {
		var d metricsdb.Decoder
		var b walBatch
		if b.decode(&d, payload) == nil {
			var table metricsdb.ManifestTable
			first, err := b.appendJSON(nil, &table)
			if err != nil {
				return // a FOM with no JSON form never reaches a record
			}
			var back walBatch
			if err := back.decode(&d, first); err != nil {
				t.Fatalf("appendJSON wrote %s, which does not decode: %v", first, err)
			}
			if back.Key != b.Key || len(back.Results) != len(b.Results) {
				t.Fatalf("decoded back as key %q with %d results, want %q with %d", back.Key, len(back.Results), b.Key, len(b.Results))
			}
			for i := range b.Results {
				if back.Results[i].Manifest != b.Results[i].Manifest {
					t.Fatalf("result %d decoded back with manifest %q, want %q", i, back.Results[i].Manifest, b.Results[i].Manifest)
				}
			}
			if again, _ := back.appendJSON(nil, &table); !bytes.Equal(again, first) {
				t.Fatalf("re-encoding the decoded record gives\n%s\nnot\n%s", again, first)
			}
		}
		n := int(tableLen % 4)
		record := []byte(`{"key":"k","manifests":[`)
		for i := 0; i < n; i++ {
			if i > 0 {
				record = append(record, ',')
			}
			record = strconv.AppendQuote(record, fmt.Sprint("m", i))
		}
		record = fmt.Appendf(record, `],"results":[{"benchmark":"b","system":"s","manifest":%d}]}`, ref)
		err := b.decode(&d, record)
		if inside := ref >= 0 && ref < n; (err == nil) != inside {
			t.Fatalf("%s: decode error %v, index %d of a %d-manifest table", record, err, ref, n)
		}
		if err == nil && b.Results[0].Manifest != fmt.Sprint("m", ref) {
			t.Fatalf("%s: manifest %q", record, b.Results[0].Manifest)
		}
	})
}

// fuzzBase is the intact generation FuzzReadSnapshot's input is placed
// on top of: segments (0, 2], seqs (0, 3].
const fuzzBase = `{"format":"benchpark-snap-2","covered_segment":2,"next_id":3,"next_seq":3,"keys":["a","b"],"results":[` +
	`{"id":1,"seq":1,"benchmark":"saxpy","workload":"problem","system":"cts1","experiment":"e","foms":{"t":1}},` +
	`{"id":2,"seq":2,"benchmark":"saxpy","workload":"problem","system":"cts1","experiment":"e","foms":{"t":2}},` +
	`{"id":3,"seq":3,"benchmark":"saxpy","workload":"problem","system":"cts1","experiment":"e","foms":{"t":3}}]}`

// FuzzReadSnapshot: recovery reads data as snap-<n>.json above one
// intact generation, in the two steps Open runs — loadChain over the
// headers, then each generation's results streamed oldest first. It
// must never panic; whenever both steps accept the directory the chain
// is sound — every file agrees with its name, every link with the
// generation beneath it, every streamed Seq is in its generation's
// range — and Open serves exactly the results streamed; and what either
// step refuses, Open refuses.
func FuzzReadSnapshot(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, n int) {
		if n < 1 || n > 1<<20 {
			t.Skip()
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, snapshotName(2)), []byte(fuzzBase), 0o644); err != nil {
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
			if snap.Format != snapshotFormat && snap.Format != chainSnapshotFormat && snap.Format != fullSnapshotFormat {
				t.Fatalf("accepted format %q", snap.Format)
			}
			if snap.Base != before.Covered || snap.AfterSeq != before.NextSeq || snap.Covered <= snap.Base {
				t.Fatalf("generation segments (%d, %d] seqs (%d, %d] does not continue segments ..%d seqs ..%d",
					snap.Base, snap.Covered, snap.AfterSeq, snap.NextSeq, before.Covered, before.NextSeq)
			}
			err := snap.eachResult(&dec, func(r metricsdb.Result) {
				if r.Seq <= snap.AfterSeq || r.Seq > snap.NextSeq {
					t.Fatalf("seq %d outside (%d, %d]", r.Seq, snap.AfterSeq, snap.NextSeq)
				}
				results++
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
	})
}
