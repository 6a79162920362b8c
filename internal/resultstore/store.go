// Package resultstore is the durable half of the results federation
// service: a crash-safe storage engine for metricsdb results. The
// paper's Figure 6 workflow ends in a shared metrics database that
// federated CI runners push into; a database that forgets its
// contents on restart (or corrupts them on a power cut) cannot be
// the accrual point exaCB-style collaborative benchmarking needs, so
// this package provides the on-disk contract:
//
//   - Append-only WAL. Every ingested batch is one length+CRC framed
//     record (see wal.go), fsynced before the append is acknowledged,
//     so an acknowledged batch survives a crash.
//   - Idempotent ingest. Batches carry a client-supplied key; a key
//     already applied is a no-op, which makes CI retries safe.
//   - Group commit. One bounded queue and one committer goroutine per
//     store (commit.go): Appends queued behind a durable write share
//     the next one's single fsync. Append waits for a queue slot;
//     Enqueue refuses when there is none, which the sharded router
//     (internal/resultshard) turns into HTTP 429.
//   - Segment rotation + compaction. The WAL rotates at a size
//     threshold; sealed segments fold into a short chain of snapshot
//     generations in the background (snapshot.go), bounding recovery
//     time at a write cost that follows what arrived, not what the
//     store already holds.
//   - Deterministic recovery. Replay applies committed batches in
//     write order and truncates a torn tail — it never errors on one.
//     Reopening a store yields byte-identical query results (the
//     resultsd determinism test pins this over HTTP).
package resultstore

import (
	"cmp"
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/fsys"
	"repro/internal/metricsdb"
	"repro/internal/telemetry"
)

// Options configures a store.
type Options struct {
	// SegmentBytes is the rotation threshold for the active WAL
	// segment; <=0 means 256 KiB.
	SegmentBytes int64
	// NoBackgroundCompact disables the compaction goroutine; sealed
	// segments then only fold into a snapshot generation on explicit
	// Compact calls (tests use this for deterministic file layouts).
	NoBackgroundCompact bool
	// QueueDepth bounds the commit queue; <=0 means 64. Append waits
	// for a slot; Enqueue fails fast with ErrQueueFull instead.
	QueueDepth int
	// FS is the disk every file of the store goes through; nil means
	// the real one. Tests hand in one that slows or fails a write.
	FS fsys.FS
}

const (
	defaultSegmentBytes = 256 << 10
	defaultQueueDepth   = 64
	// maxIdleWALBuf is the most the store keeps of its WAL buffer from
	// one group to the next: room for a bulk push of small results. A
	// group that outgrew it — results with manifests — takes its buffer
	// along, so an idle store never holds more than this.
	maxIdleWALBuf = 32 << 10
	// maxIdleStaged is the same policy for the staging slice, in results:
	// 256 of them are the same 32 KiB, two bulk pushes' worth. What a
	// wider group staged goes with it.
	maxIdleStaged = 256
)

// Batch is one idempotent ingest unit: a client-chosen key and the
// results it covers. A key is applied at most once for the lifetime
// of the store, including across restarts.
type Batch struct {
	Key string
	// TraceID is the originating run's trace ID (32 lowercase hex
	// chars when set). It is stamped onto every result in the batch
	// that does not already carry one, so a later GET /v1/series can
	// answer "which run produced this point".
	TraceID string
	Results []metricsdb.Result
}

// walBatch is the WAL record payload. Results carry their assigned
// Seq so replay reconstructs the exact in-memory state. A record lists
// its results' distinct manifests and heads once, before the results,
// each of which names its head by index and writes its trace ID only
// where it differs from the previous result's, the first one's from the
// record's (see metricsdb.HeadTable):
//
//	{"key":…,"trace_id":…,"manifests":[…],"heads":[…],"results":[…]}
//
// This is the one form replay reads, but for a "received_unix_ns" member
// after "trace_id", which the first head-table records carried and
// replay skips. A record whose results come without a head table, as
// records written before it did, fails Open, naming its segment.
type walBatch struct {
	Key     string
	TraceID string
	Results []metricsdb.Result
	table   metricsdb.HeadTable // what decode read of the record's tables
}

// appendJSON appends the record payload, its tables built in t — which
// comes empty and is left empty.
func (b *walBatch) appendJSON(dst []byte, t *metricsdb.HeadTable) ([]byte, error) {
	dst = metricsdb.AppendString(append(dst, `{"key":`...), b.Key)
	if b.TraceID != "" {
		dst = metricsdb.AppendString(append(dst, `,"trace_id":`...), b.TraceID)
	}
	dst, err := t.AppendRecord(dst, b.TraceID, b.Results)
	return append(dst, '}'), err
}

// decode reads what replay needs of a record payload into b — its key,
// its trace ID, its tables and its results, reusing b's slices. Any other
// member is checked for syntax and skipped. A result naming a head the
// record's tables (so far) do not hold is an error, and so is any result
// of a record that lists no heads before it.
func (b *walBatch) decode(d *metricsdb.Decoder, payload []byte) error {
	b.Key, b.TraceID, b.Results = "", "", b.Results[:0]
	b.table.Reset()
	return d.Document(payload, func(name []byte) {
		switch {
		case d.Table(&b.table, name):
		case string(name) == "key":
			d.String(&b.Key)
		case string(name) == "trace_id":
			d.String(&b.TraceID)
		case string(name) == "results":
			d.UseTable(&b.table, b.TraceID)
			b.Results = d.Results(b.Results[:0])
		default:
			d.Skip()
		}
	})
}

// Store is a durable, thread-safe result store. Queries go through the
// embedded Reader — the read path the router and its followers share —
// over an in-memory metricsdb.DB rebuilt on Open from the snapshot
// chain plus a WAL replay. A Reader cannot Insert: nothing reaches
// the queryable state except through the WAL.
type Store struct {
	metricsdb.Reader
	dir  string
	opts Options

	// compactMu admits one Compact at a time. It is taken before mu and
	// never while holding it; the snapshot write happens under it alone.
	compactMu sync.Mutex
	// genTable gathers the tables of the generation being written, under
	// compactMu; empty between generations. One table serves them all, so
	// a generation does not grow one anew (see metricsdb.HeadTable.Reset).
	genTable metricsdb.HeadTable

	mu         sync.Mutex
	db         *metricsdb.DB
	keys       map[string]bool
	keyLog     []string // the applied ingest keys, oldest first; generations index into it
	active     fsys.File
	activeSeq  int
	activeSize int64
	walBuf     []byte              // the group being framed; at most maxIdleWALBuf between groups
	walTable   metricsdb.HeadTable // the tables of the record being framed; empty between records
	staged     []metricsdb.Result  // the group's results, Seqs assigned; empty and at most maxIdleStaged between groups
	gens       []generation        // the snapshot chain, oldest first
	failed     error               // sticky: set when the WAL is in an unknown state
	compactErr error               // last Compact outcome; cleared by a later success

	compactions     int64 // generations written since Open
	compactionBytes int64 // bytes of snapshot files written since Open

	queue     chan *Pending // bounded commit queue, drained by committer
	compactCh chan struct{}
	closed    atomic.Bool // set when Close begins, before it waits for mu
	done      chan struct{}
	wg        sync.WaitGroup // committer + compactor, joined by Close
}

// Open recovers (or creates) a store in dir. Recovery loads the
// snapshot chain oldest generation first (see loadChain: a broken chain
// is an error), replays every newer WAL segment in order, skips batches
// whose ingest key is already applied, and truncates a torn tail on the
// active segment; then it removes the temp files a crashed snapshot
// write left and the generations the chain subsumes. It never fails on
// a torn tail — that is the expected shape of a crash. A directory it
// cannot read, such as one of a format this binary does not write, fails
// Open before any of its files is changed.
func Open(dir string, opts Options) (*Store, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegmentBytes
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = defaultQueueDepth
	}
	if opts.FS == nil {
		opts.FS = fsys.OS
	}
	if err := opts.FS.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	db := metricsdb.New()
	s := &Store{
		Reader:    metricsdb.NewReader(nil, db),
		dir:       dir,
		opts:      opts,
		db:        db,
		keys:      map[string]bool{},
		queue:     make(chan *Pending, opts.QueueDepth),
		compactCh: make(chan struct{}, 1),
		done:      make(chan struct{}),
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	s.wg.Add(1)
	go s.committer()
	if !opts.NoBackgroundCompact {
		s.wg.Add(1)
		go s.compactor()
	}
	return s, nil
}

// recover rebuilds in-memory state from disk and opens the active
// segment for appending.
func (s *Store) recover() error {
	// One decoder for everything recovery reads, so a name the store
	// holds a hundred thousand times is allocated once.
	var dec metricsdb.Decoder
	chain, stale, err := loadChain(s.opts.FS, s.dir, &dec)
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	for _, snap := range chain {
		// The DB stores copies, so each result's maps go back to the
		// decoder for the next one.
		if err := snap.eachResult(&dec, func(r metricsdb.Result) error { err := s.db.Insert(r); dec.Recycle(&r); return err }); err != nil {
			return fmt.Errorf("resultstore: snapshot %s: %w", snapshotName(snap.Covered), err)
		}
		for _, k := range snap.Keys {
			s.applyKey(k)
		}
		s.gens = append(s.gens, generation{covered: snap.Covered, topSeq: snap.NextSeq, keyEnd: len(s.keyLog), bytes: snap.size})
	}
	covered := s.genBefore(len(s.gens)).covered
	segs, err := listNumbered(s.opts.FS, s.dir, segmentPrefix, segmentSuffix)
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	for i, seg := range segs {
		if seg <= covered {
			continue // already folded into the chain
		}
		// The newest segment replayed is the active one, so its size
		// is what this leaves behind.
		if s.activeSize, err = s.replaySegment(&dec, seg, i == len(segs)-1); err != nil {
			return err
		}
	}
	// Every file has been read and accepted: only now is the directory
	// the store's to clean.
	for _, n := range stale {
		if err := s.opts.FS.Remove(filepath.Join(s.dir, snapshotName(n))); err != nil {
			return fmt.Errorf("resultstore: removing a subsumed snapshot: %w", err)
		}
	}
	if err := fsys.RemoveTemps(s.opts.FS, s.dir); err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	s.activeSeq = covered + 1
	if len(segs) > 0 && segs[len(segs)-1] > covered {
		s.activeSeq = segs[len(segs)-1]
	}
	path := filepath.Join(s.dir, segmentName(s.activeSeq))
	f, err := s.opts.FS.OpenAppend(path)
	if err != nil {
		return fmt.Errorf("resultstore: opening active segment: %w", err)
	}
	s.active = f
	return nil
}

// applyKey records an ingest key as applied. Caller holds s.mu (or is
// recovery, before any other goroutine exists).
func (s *Store) applyKey(k string) {
	s.keys[k] = true
	s.keyLog = append(s.keyLog, k)
}

// replaySegment applies a WAL segment's committed batches and returns
// the segment's size once replayed. A torn tail is truncated away when
// the segment is the newest one (the only place a crash can
// legitimately tear); older segments just stop at the tear.
func (s *Store) replaySegment(dec *metricsdb.Decoder, seg int, newest bool) (int64, error) {
	path := filepath.Join(s.dir, segmentName(seg))
	data, err := s.opts.FS.ReadInto(path, nil)
	if err != nil {
		return 0, fmt.Errorf("resultstore: reading segment: %w", err)
	}
	payloads, good := scanRecords(data)
	var b walBatch
	for _, p := range payloads {
		if err := b.decode(dec, p); err != nil {
			return 0, fmt.Errorf("resultstore: segment %s holds a CRC-valid but undecodable record: %w",
				segmentName(seg), err)
		}
		if !s.keys[b.Key] { // else a snapshot already covers this batch
			if err := s.db.InsertAll(b.Results); err != nil {
				return 0, fmt.Errorf("resultstore: segment %s holds a record the store cannot apply: %w", segmentName(seg), err)
			}
			s.applyKey(b.Key)
		}
		// The DB stores copies, so the record's maps go back to the
		// decoder for the next record's results.
		for i := range b.Results {
			dec.Recycle(&b.Results[i])
		}
	}
	if good < len(data) && newest {
		if err := s.opts.FS.Truncate(path, int64(good)); err != nil {
			return 0, fmt.Errorf("resultstore: truncating torn tail: %w", err)
		}
		return int64(good), nil
	}
	return int64(len(data)), nil
}

// Append durably ingests one batch: it queues the batch, waiting for a
// queue slot if need be, and blocks until the group the batch rode in
// is fsynced and applied — so an acknowledged batch is always
// recoverable. A batch whose key was already applied returns (false,
// nil) without touching the WAL. Both waits honour ctx (see Wait).
func (s *Store) Append(ctx context.Context, b Batch) (applied bool, err error) {
	if err := b.Validate(); err != nil {
		return false, err
	}
	if err := ctx.Err(); err != nil {
		return false, err
	}
	_, span := telemetry.StartSpan(ctx, "wal:commit")
	defer span.End()
	span.SetAttr("key", b.Key)
	span.SetInt("results", len(b.Results))
	defer func() {
		if err != nil {
			span.SetError(err)
		} else {
			span.SetAttr("applied", strconv.FormatBool(applied))
		}
	}()
	p := &Pending{store: s, batch: b, done: make(chan error, 1)}
	select {
	case s.queue <- p:
	case <-s.done:
		return false, errClosed
	case <-ctx.Done():
		return false, ctx.Err()
	}
	return p.Wait(ctx)
}

// AppendMany durably ingests a group of batches under one fsync: every
// batch becomes its own WAL record (so replay and idempotency are
// unchanged), but the group shares a single Sync before any batch is
// acknowledged. It is the one durable write path — the committer's,
// and directly callable by bulk loaders that already hold a group.
// applied[i] reports whether batches[i] was new (false = its key was
// already applied, including by an earlier batch in the same group).
// On error nothing from the group is acknowledged; retrying the whole
// group is safe because ingest keys dedup.
func (s *Store) AppendMany(ctx context.Context, batches []Batch) (applied []bool, err error) {
	if len(batches) == 0 {
		return nil, nil
	}
	for _, b := range batches {
		if err := b.Validate(); err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	_, span := telemetry.StartSpan(ctx, "wal:commit")
	defer span.End()
	span.SetInt("group", len(batches))
	defer func() {
		if err != nil {
			span.SetError(err)
		}
	}()
	s.mu.Lock()
	defer s.mu.Unlock()
	// Rotation comes BEFORE appendGroupLocked so a rotation failure
	// leaves the group unwritten (clean retry semantics) rather than
	// half-applied — and so rotation's own seal-fsync stays out of
	// appendGroupLocked, whose single Sync call is the group's entire
	// durability story (walack's fact for it must go dirty the moment
	// that call is stripped).
	if s.activeSize >= s.opts.SegmentBytes {
		if err := s.rotateLocked(); err != nil {
			return nil, err
		}
	}
	// A literal-nil ack, so walack holds this one return — the only
	// acknowledgement in the package — to fsync-before-ack.
	if applied, err = s.appendGroupLocked(batches); err != nil {
		return nil, err
	}
	return applied, nil
}

// Validate rejects the shapes no append path accepts.
func (b Batch) Validate() error {
	if b.Key == "" {
		return fmt.Errorf("resultstore: batch needs an ingest key")
	}
	if len(b.Results) == 0 {
		return fmt.Errorf("resultstore: batch %q holds no results", b.Key)
	}
	return nil
}

// appendGroupLocked copies each new batch's results into the store's
// staging slice — the caller's are never written to — numbers them
// there on from the DB's newest Seq, frames one record per batch into
// the store's buffer, writes them in one Write, fsyncs once, and only
// then applies the group to the queryable state, in one InsertAll; a
// group the DB refuses fails the store. Caller holds s.mu, has
// validated every batch, and has rotated the segment.
func (s *Store) appendGroupLocked(batches []Batch) ([]bool, error) {
	if s.closed.Load() {
		return nil, errClosed
	}
	if s.failed != nil {
		return nil, fmt.Errorf("resultstore: store failed: %w", s.failed)
	}
	total := 0
	for _, b := range batches {
		total += len(b.Results)
	}
	applied := make([]bool, len(batches))
	var (
		seq    = s.db.MaxSeq()                    // the watermark: s.mu makes this the DB's only writer
		seen   = map[string]bool{}                // keys earlier in this group
		buf    = s.walBuf[:0]                     // the group's records, framed
		staged = slices.Grow(s.staged[:0], total) // the group's results, sized once
	)
	defer func() {
		clear(staged) // whatever happened to them, the store pins no strings or maps
		if cap(staged) <= maxIdleStaged {
			s.staged = staged[:0]
		}
	}()
	for i, b := range batches {
		if s.keys[b.Key] || seen[b.Key] {
			continue // duplicate: acknowledged without a write
		}
		seen[b.Key] = true
		staged = append(staged, b.Results...)
		rs := staged[len(staged)-len(b.Results):]
		for j := range rs {
			seq++
			rs[j].Seq = seq
			if rs[j].TraceID == "" {
				rs[j].TraceID = b.TraceID
			}
		}
		wb := walBatch{Key: b.Key, TraceID: b.TraceID, Results: rs}
		at := len(buf)
		var err error
		if buf, err = wb.appendJSON(append(buf, make([]byte, recordHeaderSize)...), &s.walTable); err != nil {
			return nil, fmt.Errorf("resultstore: %w", err)
		}
		sealRecord(buf, at)
		applied[i] = true
	}
	if cap(buf) <= maxIdleWALBuf {
		s.walBuf = buf
	}
	// The whole group is one write, then the one fsync.
	var werr error
	if len(buf) > 0 {
		if _, werr = s.active.Write(buf); werr == nil {
			werr = s.active.Sync()
		}
	}
	if werr != nil {
		// The segment may hold torn records now; cut it back to the
		// last known-good offset so later appends don't land behind a
		// tear replay would drop.
		if terr := s.active.Truncate(s.activeSize); terr != nil {
			s.failed = fmt.Errorf("append failed (%v) and truncate failed (%v)", werr, terr)
		}
		return nil, fmt.Errorf("resultstore: appending batch: %w", werr)
	}
	s.activeSize += int64(len(buf))
	if err := s.db.InsertAll(staged); err != nil {
		// The group is durable but not queryable: what the store serves
		// no longer matches its WAL.
		s.failed = fmt.Errorf("the WAL holds a group the DB refused: %w", err)
		return nil, fmt.Errorf("resultstore: %w", s.failed)
	}
	for i, b := range batches {
		if applied[i] {
			s.applyKey(b.Key)
		}
	}
	return applied, nil
}

// rotateLocked seals the active segment and opens the next one,
// nudging the background compactor. Caller holds s.mu.
func (s *Store) rotateLocked() error {
	if err := s.active.Close(); err != nil {
		return fmt.Errorf("resultstore: sealing segment: %w", err)
	}
	next := s.activeSeq + 1
	f, err := s.opts.FS.OpenAppend(filepath.Join(s.dir, segmentName(next)))
	if err != nil {
		// Reopen the sealed segment so the store keeps accepting
		// appends; rotation retries on the next append.
		re, rerr := s.opts.FS.OpenAppend(filepath.Join(s.dir, segmentName(s.activeSeq)))
		if rerr != nil {
			s.failed = fmt.Errorf("rotation failed (%v) and reopen failed (%v)", err, rerr)
			return fmt.Errorf("resultstore: %w", s.failed)
		}
		s.active = re
		return fmt.Errorf("resultstore: rotating segment: %w", err)
	}
	if err := s.opts.FS.SyncDir(s.dir); err != nil {
		f.Close()
		return fmt.Errorf("resultstore: %w", err)
	}
	s.active = f
	s.activeSeq = next
	s.activeSize = 0
	select {
	case s.compactCh <- struct{}{}:
	default:
	}
	return nil
}

// Close stops the committer and the compactor and seals the active
// segment. Batches still queued are not written: the committer finishes
// the group it is writing, if any, and every other waiter fails with the
// closed error (see Pending.Wait). The store rejects appends from the
// moment Close begins — it says so before it waits for the lock a group
// in flight holds — and a new Open recovers the same state.
//
// With background compaction on, Close then folds the WAL tail: it
// seals a non-empty active segment and writes the generation Compact
// would, so a store at rest holds generations and an empty segment, and
// what it leaves on disk does not depend on whether its WAL happened to
// reach the rotation threshold. A failed fold is returned once the
// files are closed; the WAL still holds every acknowledged batch.
// NoBackgroundCompact stores fold only on an explicit Compact.
func (s *Store) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	close(s.done)
	s.wg.Wait()
	// A Compact some other goroutine called finishes its write first.
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	var fold error
	if !s.opts.NoBackgroundCompact {
		if s.mu.Lock(); s.activeSize > 0 {
			fold = s.rotateLocked() // sealed, so the Compact below folds it
		}
		if s.mu.Unlock(); fold == nil {
			fold = s.compactLocked()
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return cmp.Or(fold, s.active.Sync(), s.active.Close())
}

// HasKey reports whether an ingest key has been applied.
func (s *Store) HasKey(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.keys[key]
}
