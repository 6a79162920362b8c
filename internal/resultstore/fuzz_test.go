package resultstore

import (
	"bytes"
	"os"
	"path/filepath"
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
			if snap.Format != snapshotFormat && snap.Format != fullSnapshotFormat {
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
