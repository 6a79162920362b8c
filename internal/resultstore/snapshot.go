package resultstore

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/fsys"
	"repro/internal/metricsdb"
)

// snapshot is one generation file, snap-<covered>.json: the results and
// ingest keys the store gained between the generation beneath it and
// the moment it was captured. It folds in the WAL segments
// (Base, Covered] — Base is the Covered of the generation beneath, 0
// for the oldest — and holds exactly the results with
// AfterSeq < Seq <= NextSeq, so a chain whose links agree on Base and
// AfterSeq has neither a gap nor an overlap. After the results come the
// file's tables (see metricsdb.HeadTable): its distinct manifests and
// heads once each, in first-use order, which each result names by
// index, its trace ID written only where it differs from the previous
// result's. Last comes a CRC-32 of every byte before it. A file in any
// other format is refused by name (see snapshotFormat). In memory it is
// the decoded header and tables and the file's bytes from its results
// on: those are decoded once, straight into the DB (eachResult).
type snapshot struct {
	snapshotHeader
	table   metricsdb.HeadTable // the file's tables
	results []byte              // the file from the value of its "results" member on; nil without one
	size    int64               // bytes of the file it was read from
}

// snapshotHeader is a generation file without its results — all of it
// that Compact holds in memory; the results are streamed from the DB.
type snapshotHeader struct {
	Format   string   `json:"format"`
	Base     int      `json:"base_segment,omitempty"`
	Covered  int      `json:"covered_segment"`
	AfterSeq int      `json:"after_seq,omitempty"`
	NextSeq  int      `json:"next_seq"`
	Keys     []string `json:"keys"`
}

// snapshotFormat tags generation files, and is the one format Open
// reads: a generation in any other is refused by name, before recovery
// changes a file, as a binary older than this format refuses these.
const snapshotFormat = "benchpark-snap-4"

// mergeFactor is the size-tiered merge rule's one constant: a Compact
// absorbs the next older generation while that generation holds at
// most mergeFactor times the results already going into the write. At
// 1 the chain is a binary counter: every surviving generation is
// larger than everything newer combined, so a store of n segments
// keeps at most log2(n)+1 files and rewrites a result at most that
// many times.
const mergeFactor = 1

// generation is the in-memory record of one snapshot file on the
// chain. What it holds is bounded below by the generation before it
// (the zero generation before the oldest): segments, Seqs and ingest
// keys are all ranges (before, this].
type generation struct {
	covered int   // newest WAL segment folded in; names the file
	topSeq  int   // highest Seq folded in
	keyEnd  int   // Store.keyLog[:keyEnd] are the keys folded in so far
	bytes   int64 // file size
}

// decodeHeader parses the bytes of snap-<n>.json except its results,
// which it only checks for syntax and remembers the place of, and
// rejects a file in another format, one that disagrees with its own
// name or its checksum, and one that is not a well-formed generation.
// The codec splits the file and reads the tables, wherever they stand;
// the header — every other member, a few hundred bytes and the key list
// — is read through its declared struct, as the encoder writes it.
func decodeHeader(d *metricsdb.Decoder, data []byte, n int) (*snapshot, error) {
	snap := &snapshot{size: int64(len(data))}
	head := []byte{'{'}
	last := ""                   // the last member read
	end, sum, summed := 0, -1, 0 // end: where the member before the current one ends
	err := d.Document(data, func(name []byte) {
		member, from := string(name), d.Offset() // a copy: Skip may reuse name's bytes
		switch last = member; {
		case d.Table(&snap.table, name):
		case member == "results":
			d.Skip()
			snap.results = data[from:]
		case member == "crc32":
			summed = end
			d.Int(&sum)
		default:
			d.Skip()
			head = append(append(append(metricsdb.AppendString(head, member), ':'), data[from:d.Offset()]...), ',')
		}
		end = d.Offset()
	})
	if err != nil {
		return nil, err
	}
	// After the last comma, a member no header has: nothing reads it.
	if err := json.Unmarshal(append(head, `"":0}`...), &snap.snapshotHeader); err != nil {
		return nil, err
	}
	switch {
	case snap.Format != snapshotFormat:
		return nil, fmt.Errorf("format %q: this binary reads only %s", snap.Format, snapshotFormat)
	case last != "crc32" || sum != int(crc32.ChecksumIEEE(data[:summed])):
		return nil, fmt.Errorf("checksum %d does not end the file, or does not match the %d bytes before it", sum, summed)
	case snap.Covered != n:
		return nil, fmt.Errorf("covers segment %d, but its name says %d", snap.Covered, n)
	case snap.Base < 0 || snap.Base >= snap.Covered:
		return nil, fmt.Errorf("covers segments (%d, %d]", snap.Base, snap.Covered)
	case snap.AfterSeq < 0 || snap.NextSeq < snap.AfterSeq || (snap.Base == 0 && snap.AfterSeq != 0):
		return nil, fmt.Errorf("covers seqs (%d, %d] over base segment %d", snap.AfterSeq, snap.NextSeq, snap.Base)
	}
	return snap, nil
}

// eachResult decodes the generation's results, in file order, into fn
// one at a time and then lets go of the file's bytes. A Seq out of
// order or outside (AfterSeq, NextSeq], a head the file's tables do not
// hold, any result of a file with no head table, or an error from fn
// ends the walk with that error, and fn has by then seen the results
// before it.
func (snap *snapshot) eachResult(d *metricsdb.Decoder, fn func(metricsdb.Result) error) error {
	if snap.results == nil {
		return nil
	}
	d.Reset(snap.results)
	d.UseTable(&snap.table, "")
	snap.results = nil
	last := snap.AfterSeq
	d.Array(func() {
		var r metricsdb.Result
		if d.Result(&r); d.Err() != nil {
			return
		}
		if r.Seq <= last || r.Seq > snap.NextSeq {
			d.Fail(fmt.Errorf("result seq %d is out of order or outside (%d, %d]", r.Seq, snap.AfterSeq, snap.NextSeq))
			return
		}
		last = r.Seq
		if err := fn(r); err != nil {
			d.Fail(err)
		}
	})
	return d.Err() // what follows the array, decodeHeader has checked
}

// loadChain reads dir's snapshot chain, oldest generation first. It
// walks back from the newest snapshot file through the base links, so
// the only files it skips are ones a newer generation subsumes — what
// a crash between a merged generation's rename and the deletion of the
// files it absorbed leaves behind; their numbers come back as stale.
// A link whose file is missing, or any chain file that does not decode
// or contradicts its neighbour, is an error: a gap is never loaded
// around.
func loadChain(disk fsys.FS, dir string, d *metricsdb.Decoder) (chain []*snapshot, stale []int, err error) {
	nums, err := listNumbered(disk, dir, snapshotPrefix, snapshotSuffix)
	if err != nil || len(nums) == 0 {
		return nil, nil, err
	}
	onChain := map[int]bool{}
	for n := nums[len(nums)-1]; n > 0; {
		at := sort.SearchInts(nums, n)
		if at == len(nums) || nums[at] != n {
			older := 0
			if at > 0 {
				older = nums[at-1]
			}
			return nil, nil, fmt.Errorf("snapshot chain is broken: %s builds on %s, which is missing; nothing covers segments %d..%d",
				snapshotName(chain[0].Covered), snapshotName(n), older+1, n)
		}
		data, err := disk.ReadInto(filepath.Join(dir, snapshotName(n)), nil)
		if err != nil {
			return nil, nil, fmt.Errorf("reading snapshot: %w", err)
		}
		snap, err := decodeHeader(d, data, n)
		if err != nil {
			return nil, nil, fmt.Errorf("snapshot %s: %w", snapshotName(n), err)
		}
		if len(chain) > 0 && chain[0].AfterSeq != snap.NextSeq {
			return nil, nil, fmt.Errorf("snapshot chain is broken: %s starts after seq %d, but %s ends at seq %d",
				snapshotName(chain[0].Covered), chain[0].AfterSeq, snapshotName(n), snap.NextSeq)
		}
		chain = append([]*snapshot{snap}, chain...) // a handful of links: oldest first
		onChain[n] = true
		n = snap.Base // below n: decodeHeader checked it
	}
	for _, n := range nums {
		if !onChain[n] {
			stale = append(stale, n)
		}
	}
	return chain, stale, nil
}

// genBefore returns the generation beneath s.gens[i]: the lower bound
// of what s.gens[i] holds, or of the un-snapshotted tail when i is
// len(s.gens). Caller holds s.mu.
func (s *Store) genBefore(i int) generation {
	if i == 0 {
		return generation{}
	}
	return s.gens[i-1]
}

// compactor folds sealed segments into snapshots off the append path.
func (s *Store) compactor() {
	defer s.wg.Done()
	for {
		select {
		case <-s.done:
			return
		case <-s.compactCh:
			// A failed background compaction is retried on the next
			// rotation; the WAL alone remains a complete record.
			_ = s.Compact()
		}
	}
}

// Compact folds every sealed segment into a new snapshot generation:
// one file holding what the store gained since the newest generation,
// plus the older generations the merge rule absorbs (see mergeFactor).
// It then removes the segments and generations that file supersedes.
// The active segment stays; replaying it over the chain is harmless
// because ingest keys dedup. With nothing newly sealed it is a no-op.
//
// s.mu is held only to plan the generation and, later, to publish it:
// reading the results, encoding and the durable write run under
// compactMu alone, so appends and Health do not wait for them, and
// the results go to disk a page at a time, so a merge of the whole
// store needs no more memory than the smallest one. Safe to call at
// any time, including with background compaction enabled. Health
// reports the last outcome. A closed store refuses it: after Close,
// the files are no longer the store's to change.
func (s *Store) Compact() error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	if s.closed.Load() {
		return errClosed
	}
	return s.compactLocked()
}

// compactLocked is Compact for a caller that holds compactMu: Compact
// itself, and Close's fold of the WAL tail.
func (s *Store) compactLocked() (err error) {
	defer func() {
		s.mu.Lock()
		s.compactErr = err
		s.mu.Unlock()
	}()
	head, from := s.planGeneration()
	if head == nil {
		return nil
	}
	// head.Keys still aliases the store's key log; the file gets its own
	// sorted copy so equal states write equal bytes.
	head.Keys = append([]string(nil), head.Keys...)
	sort.Strings(head.Keys)
	size, err := fsys.Commit(s.opts.FS, filepath.Join(s.dir, snapshotName(head.Covered)), generationFile{s.db, head, &s.genTable})
	if err == nil {
		err = s.opts.FS.SyncDir(s.dir)
	}
	if err != nil {
		return fmt.Errorf("resultstore: writing snapshot: %w", err)
	}

	// Only Compact changes s.gens after Open, and compactMu admits one
	// at a time, so the plan made above still describes the chain.
	s.mu.Lock()
	absorbed := append([]generation(nil), s.gens[from:]...)
	s.gens = append(s.gens[:from], generation{
		covered: head.Covered,
		topSeq:  head.NextSeq,
		keyEnd:  s.genBefore(from).keyEnd + len(head.Keys),
		bytes:   size,
	})
	s.compactions++
	s.compactionBytes += size
	s.mu.Unlock()

	// Garbage-collect what the generation supersedes — only now that it
	// is durable under its final name. A crash from here on leaves files
	// recovery skips (covered segments) or removes (absorbed
	// generations), so removal failures are harmless and only the first
	// is surfaced.
	segs, err := listNumbered(s.opts.FS, s.dir, segmentPrefix, segmentSuffix)
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	var firstErr error
	remove := func(name string) {
		if err := s.opts.FS.Remove(filepath.Join(s.dir, name)); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, seg := range segs {
		if seg <= head.Covered {
			remove(segmentName(seg))
		}
	}
	for _, g := range absorbed {
		remove(snapshotName(g.covered))
	}
	return firstErr
}

// planGeneration decides the next generation under s.mu: which
// generations it absorbs (s.gens[from:]) and the header of its file —
// the segment, Seq and key ranges from the generation beneath those up
// to everything applied so far. A nil header means there is nothing to
// write. It copies no results: those at or below NextSeq never change,
// so generationFile reads them from the DB after s.mu is released.
func (s *Store) planGeneration() (head *snapshotHeader, from int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	from = len(s.gens)
	covered := s.activeSeq - 1
	if covered <= s.genBefore(from).covered {
		return nil, 0 // nothing sealed since the newest generation
	}
	// Seqs are dense, so a Seq range is a result count.
	top := s.db.MaxSeq()
	writing := top - s.genBefore(from).topSeq
	for from > 0 {
		held := s.gens[from-1].topSeq - s.genBefore(from-1).topSeq
		if held > mergeFactor*writing {
			break
		}
		writing += held
		from--
	}
	before := s.genBefore(from)
	return &snapshotHeader{
		Format:   snapshotFormat,
		Base:     before.covered,
		Covered:  covered,
		AfterSeq: before.topSeq,
		NextSeq:  top,
		// Entries below len(keyLog) are never written again, so this
		// view stays readable after s.mu is released.
		Keys: s.keyLog[before.keyEnd:len(s.keyLog):len(s.keyLog)],
	}, from
}

// genBufSize is the buffer one generation write borrows from a pool —
// one the GC may empty, so an idle store holds none and a busy one does
// not allocate one per generation. A page is what half of it holds: the
// rows encoded under one hold of the DB's read lock, and then written
// with the lock released. A page stops once it passes half the buffer,
// so a result up to the other half's size never grows it.
const genBufSize = 64 << 10

var genBufs = sync.Pool{New: func() any {
	buf := make([]byte, 0, genBufSize)
	return &buf
}}

// generationFile is the generation file head describes: the header's
// JSON object with a "results" member spliced in, holding the DB's
// results in (head.AfterSeq, head.NextSeq], encoded straight from the
// DB's rows a page at a time as WriteTo writes it, then the tables their
// indexes name and the CRC-32 of every byte before it. The tables are
// gathered in table, which comes empty and is left empty.
type generationFile struct {
	db    *metricsdb.DB
	head  *snapshotHeader
	table *metricsdb.HeadTable
}

func (g generationFile) WriteTo(w io.Writer) (size int64, err error) {
	var sum uint32
	write := func(p []byte) error {
		n, err := w.Write(p)
		size += int64(n)
		sum = crc32.Update(sum, crc32.IEEETable, p[:n])
		return err
	}
	head := g.head
	open, err := json.Marshal(head)
	if err != nil {
		return size, err
	}
	if err := write(open[:len(open)-1]); err != nil {
		return size, err
	}
	pooled := genBufs.Get().(*[]byte)
	defer genBufs.Put(pooled)
	defer g.table.Reset()
	// Every result comes preceded by a comma; the first one's opens the
	// array instead.
	buf := append((*pooled)[:0], `,"results":`...)
	opening := len(buf)
	for after := head.AfterSeq; after < head.NextSeq; {
		var last int
		// Appends keep landing; what they add is the next generation's.
		if buf, last, err = g.db.AppendJSONAfter(buf, after, head.NextSeq, genBufSize/2, g.table); err != nil {
			return size, err
		}
		if last == after {
			break
		}
		if opening > 0 {
			buf[opening], opening = '[', 0
		}
		if err := write(buf); err != nil {
			return size, err
		}
		buf, after = buf[:0], last
	}
	if opening > 0 {
		buf = append(buf, '[')
	}
	buf = g.table.AppendTables(append(buf, ']'))
	sum = crc32.Update(sum, crc32.IEEETable, buf) // every byte before the checksum's member
	buf = fmt.Appendf(buf, `,"crc32":%d}`, sum)
	if cap(buf) <= genBufSize { // a table of many heads leaves its growth behind
		*pooled = buf[:0]
	}
	return size, write(buf)
}
