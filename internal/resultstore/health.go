package resultstore

import (
	"fmt"
	"path/filepath"
)

// Health is a point-in-time operational snapshot of the store. It
// backs resultsd's /readyz (the Ready/Reason pair) and /debug/ops
// (the gauges) endpoints. Readiness means the store can still accept
// durable appends: it is open, not in the sticky failed state, its
// WAL directory accepts writes, and compaction is not wedged. A store
// that is not Ready can usually still serve queries — the in-memory
// state stays intact — which is why resultsd keeps /healthz and the
// read API up while flipping /readyz to 503.
type Health struct {
	Ready           bool   `json:"ready"`
	Reason          string `json:"reason,omitempty"`
	Results         int    `json:"results"`
	IngestKeys      int    `json:"ingest_keys"`
	ActiveSegment   int    `json:"active_segment"`
	ActiveSizeBytes int64  `json:"active_size_bytes"`
	SnapshotCovered int    `json:"snapshot_covered"`
	// The snapshot chain on disk, and what compaction has written since
	// Open: CompactionBytesWritten over the bytes ingested is the
	// store's snapshot write amplification.
	SnapshotGenerations    int    `json:"snapshot_generations"`
	SnapshotBytes          int64  `json:"snapshot_bytes"`
	Compactions            int64  `json:"compactions"`
	CompactionBytesWritten int64  `json:"compaction_bytes_written"`
	CompactError           string `json:"compact_error,omitempty"`
}

// Health probes the store's ability to take durable writes and
// reports its WAL geometry. The writability probe round-trips a
// scratch file through the WAL directory, so a directory that was
// removed, remounted read-only, or filled up is detected even though
// the already-open active segment might still accept buffered writes.
func (s *Store) Health() Health {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := Health{
		Ready:           true,
		Results:         s.db.Len(),
		IngestKeys:      len(s.keys),
		ActiveSegment:   s.activeSeq,
		ActiveSizeBytes: s.activeSize,
		SnapshotCovered: s.genBefore(len(s.gens)).covered,

		SnapshotGenerations:    len(s.gens),
		Compactions:            s.compactions,
		CompactionBytesWritten: s.compactionBytes,
	}
	for _, g := range s.gens {
		h.SnapshotBytes += g.bytes
	}
	if s.compactErr != nil {
		h.CompactError = s.compactErr.Error()
	}
	switch {
	case s.closed.Load():
		h.Ready, h.Reason = false, "store is closed"
	case s.failed != nil:
		h.Ready, h.Reason = false, fmt.Sprintf("store failed: %v", s.failed)
	default:
		if err := s.probeWritableLocked(); err != nil {
			h.Ready, h.Reason = false, fmt.Sprintf("wal directory not writable: %v", err)
		} else if s.compactErr != nil {
			h.Ready, h.Reason = false, fmt.Sprintf("compaction wedged: %v", s.compactErr)
		}
	}
	return h
}

// probeWritableLocked round-trips a scratch file through the WAL
// directory. Caller holds s.mu, so the probe cannot interleave with a
// rotation renaming files around it.
func (s *Store) probeWritableLocked() error {
	path := filepath.Join(s.dir, ".readyz.probe")
	f, err := s.opts.FS.OpenAppend(path)
	if err != nil {
		return err
	}
	_, werr := f.Write([]byte("ok"))
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if rerr := s.opts.FS.Remove(path); werr == nil {
		werr = rerr
	}
	return werr
}
