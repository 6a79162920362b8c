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
//
// Timestamps on WAL records come from an injectable telemetry.Clock,
// so tests using FixedClock produce byte-identical WAL files.
package resultstore

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/metricsdb"
	"repro/internal/telemetry"
)

// Options configures a store.
type Options struct {
	// SegmentBytes is the rotation threshold for the active WAL
	// segment; <=0 means 256 KiB.
	SegmentBytes int64
	// Clock stamps WAL batches (ingest audit trail); nil means the
	// wall clock. Query responses never contain these stamps, so the
	// clock choice cannot leak into served results.
	Clock telemetry.Clock
	// NoBackgroundCompact disables the compaction goroutine; sealed
	// segments then only fold into a snapshot generation on explicit
	// Compact calls (tests use this for deterministic file layouts).
	NoBackgroundCompact bool
	// QueueDepth bounds the commit queue; <=0 means 64. Append waits
	// for a slot; Enqueue fails fast with ErrQueueFull instead.
	QueueDepth int
	// CommitDelay injects a sleep before every group commit. It exists
	// for fault injection only — scripts/fedsmoke uses it to simulate a
	// slow disk and deterministically drive a shard into overload.
	CommitDelay time.Duration
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
// ID/Seq so replay reconstructs the exact in-memory state.
type walBatch struct {
	Key      string             `json:"key"`
	TraceID  string             `json:"trace_id,omitempty"`
	Received int64              `json:"received_unix_ns"`
	Results  []metricsdb.Result `json:"results"`
}

// appendJSON appends the record payload: the bytes json.Marshal(b)
// returns.
func (b *walBatch) appendJSON(dst []byte) ([]byte, error) {
	dst = metricsdb.AppendString(append(dst, `{"key":`...), b.Key)
	if b.TraceID != "" {
		dst = metricsdb.AppendString(append(dst, `,"trace_id":`...), b.TraceID)
	}
	dst = strconv.AppendInt(append(dst, `,"received_unix_ns":`...), b.Received, 10)
	dst, err := metricsdb.AppendResults(append(dst, `,"results":`...), b.Results)
	return append(dst, '}'), err
}

// decode reads what replay needs of a record payload into b — its key
// and its results, reusing b.Results. The rest is an audit trail nothing
// reads back, checked for syntax like any member a record has no use for.
func (b *walBatch) decode(d *metricsdb.Decoder, payload []byte) error {
	b.Key, b.Results = "", b.Results[:0]
	return d.Document(payload, func(name []byte) {
		switch string(name) {
		case "key":
			d.String(&b.Key)
		case "results":
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

	mu         sync.Mutex
	db         *metricsdb.DB
	keys       map[string]bool
	keyLog     []string // the applied ingest keys, oldest first; generations index into it
	nextID     int
	nextSeq    int
	active     *os.File
	activeSeq  int
	activeSize int64
	walBuf     []byte             // the group being framed; at most maxIdleWALBuf between groups
	staged     []metricsdb.Result // the group's results, identity assigned; empty and at most maxIdleStaged between groups
	gens       []generation       // the snapshot chain, oldest first
	closed     bool
	failed     error // sticky: set when the WAL is in an unknown state
	compactErr error // last Compact outcome; cleared by a later success

	compactions     int64 // generations written since Open
	compactionBytes int64 // bytes of snapshot files written since Open

	queue     chan *Pending // bounded commit queue, drained by committer
	compactCh chan struct{}
	done      chan struct{}
	wg        sync.WaitGroup // committer + compactor, joined by Close
}

// Open recovers (or creates) a store in dir. Recovery removes the
// temp files a crashed snapshot write left, loads the snapshot chain
// oldest generation first (see loadChain: a broken chain is an error),
// replays every newer WAL segment in order, skips batches whose ingest
// key is already applied, and truncates a torn tail on the active
// segment. It never fails on a torn tail — that is the expected shape
// of a crash.
func Open(dir string, opts Options) (*Store, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegmentBytes
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = defaultQueueDepth
	}
	if opts.Clock == nil {
		opts.Clock = telemetry.WallClock()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
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
	if err := RemoveStaleTemps(s.dir); err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	// One decoder for everything recovery reads, so a name the store
	// holds a hundred thousand times is allocated once.
	var dec metricsdb.Decoder
	chain, stale, err := loadChain(s.dir, &dec)
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	for _, snap := range chain {
		if err := snap.eachResult(&dec, s.db.Insert); err != nil {
			return fmt.Errorf("resultstore: snapshot %s: %w", snapshotName(snap.Covered), err)
		}
		for _, k := range snap.Keys {
			s.applyKey(k)
		}
		s.noteCounters(snap.NextID, snap.NextSeq)
		s.gens = append(s.gens, generation{covered: snap.Covered, topSeq: snap.NextSeq, keyEnd: len(s.keyLog), bytes: snap.size})
	}
	for _, n := range stale {
		if err := os.Remove(filepath.Join(s.dir, snapshotName(n))); err != nil {
			return fmt.Errorf("resultstore: removing a subsumed snapshot: %w", err)
		}
	}
	covered := s.genBefore(len(s.gens)).covered
	segs, err := listNumbered(s.dir, segmentPrefix, segmentSuffix)
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	for i, seg := range segs {
		if seg <= covered {
			continue // already folded into the chain
		}
		if err := s.replaySegment(&dec, seg, i == len(segs)-1); err != nil {
			return err
		}
	}
	s.activeSeq = covered + 1
	if len(segs) > 0 && segs[len(segs)-1] > covered {
		s.activeSeq = segs[len(segs)-1]
	}
	path := filepath.Join(s.dir, segmentName(s.activeSeq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("resultstore: opening active segment: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("resultstore: %w", err)
	}
	s.active = f
	s.activeSize = fi.Size()
	return nil
}

// applyKey records an ingest key as applied. Caller holds s.mu (or is
// recovery, before any other goroutine exists).
func (s *Store) applyKey(k string) {
	s.keys[k] = true
	s.keyLog = append(s.keyLog, k)
}

// replaySegment applies a WAL segment's committed batches. A torn
// tail is truncated away when the segment is the newest one (the only
// place a crash can legitimately tear); older segments just stop at
// the tear.
func (s *Store) replaySegment(dec *metricsdb.Decoder, seg int, newest bool) error {
	path := filepath.Join(s.dir, segmentName(seg))
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("resultstore: reading segment: %w", err)
	}
	payloads, good := scanRecords(data)
	var b walBatch
	for _, p := range payloads {
		if err := b.decode(dec, p); err != nil {
			return fmt.Errorf("resultstore: segment %s holds a CRC-valid but undecodable record: %w",
				segmentName(seg), err)
		}
		if s.keys[b.Key] {
			continue // a snapshot already covers this batch
		}
		s.applyKey(b.Key)
		s.db.InsertAll(b.Results)
		for i := range b.Results {
			s.noteCounters(b.Results[i].ID, b.Results[i].Seq)
		}
	}
	if good < len(data) && newest {
		if err := os.Truncate(path, int64(good)); err != nil {
			return fmt.Errorf("resultstore: truncating torn tail: %w", err)
		}
	}
	return nil
}

// noteCounters raises the ID/Seq watermarks.
func (s *Store) noteCounters(id, seq int) {
	if id > s.nextID {
		s.nextID = id
	}
	if seq > s.nextSeq {
		s.nextSeq = seq
	}
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
			span.SetAttr("applied", fmt.Sprintf("%v", applied))
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
// staging slice — the caller's are never written to — assigns their
// identity there, frames one record per batch into the store's buffer,
// writes them in one Write, fsyncs once, and only then applies the
// group to the queryable state, in one InsertAll. Caller holds s.mu,
// has validated every batch, and has rotated the segment.
func (s *Store) appendGroupLocked(batches []Batch) ([]bool, error) {
	if s.closed {
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
		id, seq = s.nextID, s.nextSeq              // advanced for real only once the group is durable
		seen    = map[string]bool{}                // keys earlier in this group
		buf     = s.walBuf[:0]                     // the group's records, framed
		staged  = slices.Grow(s.staged[:0], total) // the group's results, sized once
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
			id++
			seq++
			rs[j].ID = id
			rs[j].Seq = seq
			if rs[j].TraceID == "" {
				rs[j].TraceID = b.TraceID
			}
		}
		wb := walBatch{Key: b.Key, TraceID: b.TraceID, Received: s.opts.Clock.Now().UnixNano(), Results: rs}
		at := len(buf)
		var err error
		if buf, err = wb.appendJSON(append(buf, make([]byte, recordHeaderSize)...)); err != nil {
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
	s.nextID, s.nextSeq = id, seq
	for i, b := range batches {
		if applied[i] {
			s.applyKey(b.Key)
		}
	}
	s.db.InsertAll(staged)
	return applied, nil
}

// rotateLocked seals the active segment and opens the next one,
// nudging the background compactor. Caller holds s.mu.
func (s *Store) rotateLocked() error {
	if err := s.active.Close(); err != nil {
		return fmt.Errorf("resultstore: sealing segment: %w", err)
	}
	next := s.activeSeq + 1
	f, err := os.OpenFile(filepath.Join(s.dir, segmentName(next)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		// Reopen the sealed segment so the store keeps accepting
		// appends; rotation retries on the next append.
		re, rerr := os.OpenFile(filepath.Join(s.dir, segmentName(s.activeSeq)), os.O_WRONLY|os.O_APPEND, 0o644)
		if rerr != nil {
			s.failed = fmt.Errorf("rotation failed (%v) and reopen failed (%v)", err, rerr)
			return fmt.Errorf("resultstore: %w", s.failed)
		}
		s.active = re
		return fmt.Errorf("resultstore: rotating segment: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
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
// segment. Batches still queued are not written: their waiters fail
// with the closed error (see Pending.Wait). The store rejects appends
// afterwards; a new Open recovers the same state.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.done)
	s.wg.Wait()
	// A Compact some other goroutine called finishes its write first.
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.active.Sync()
	if cerr := s.active.Close(); err == nil {
		err = cerr
	}
	return err
}

// HasKey reports whether an ingest key has been applied.
func (s *Store) HasKey(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.keys[key]
}
