// Package resultshard is the fleet-scale layer of the results
// federation service: it fans the proven single-node resultstore out
// into N independent shards behind one deterministic router, turns a
// full shard queue into explicit backpressure, and ships snapshots to
// read-only follower replicas so reads scale independently of ingest.
//
// The layering is deliberate:
//
//   - Each shard IS a resultstore.Store — its own WAL, commit queue,
//     committer, rotation, compaction, torn-tail recovery and Health.
//     Every durability property the single-node torture tests prove,
//     group commit under one fsync included, holds per shard.
//   - The router owns only placement and flow-control policy; it
//     starts no goroutine and keeps no queue. A result lives on the
//     shard ShardFor(system, benchmark) names; a mixed batch is split
//     into per-shard sub-batches that reuse the batch's ingest key
//     (key spaces are per-shard, so retrying a partially-applied batch
//     converges — the shards that applied it dedup, the rest apply).
//   - Backpressure is explicit. Where a single store's Append waits
//     for a queue slot, the router uses the non-blocking Enqueue: a
//     full shard queue refuses the batch with an OverloadError
//     carrying a Retry-After hint instead of wedging the caller.
//   - Read replicas are no property of the router: results carry
//     per-shard monotone Seqs, so anything that reads through a
//     metricsdb.Reader can ship "the next page after Seq W"
//     (replica.go), and followers (follower.go) mirror the pages to
//     serve the read API with byte-identical responses.
package resultshard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/fsys"
	"repro/internal/metricsdb"
	"repro/internal/resultstore"
)

// Options configures a sharded router.
type Options struct {
	// Shards is the number of independent stores; <=0 means 1. The
	// count is pinned into the router manifest on first Open; reopening
	// with a different count is refused (resharding moves dedup keys
	// between shards and must be an explicit migration).
	Shards int
	// Store configures each per-shard resultstore, including the
	// QueueDepth past which Append refuses with an OverloadError.
	Store resultstore.Options
}

// RetryAfter is the backoff hint attached to OverloadErrors.
const RetryAfter = time.Second

// manifest is the router's on-disk identity, written on first Open.
// It pins the shard count and key schema so a later Open cannot
// silently re-partition the data.
type manifest struct {
	Format    string `json:"format"`
	KeySchema string `json:"key_schema"`
	Shards    int    `json:"shards"`
}

const manifestFormat = "benchpark-router-1"

// Router is a sharded result store: N resultstore instances behind a
// deterministic (system, benchmark) router. Reads are the embedded
// Reader: the merge of the shards' readers with ShardFor as placement,
// the same type followers serve over their mirrors. It satisfies the
// backend surface of a single resultstore.Store, so resultsd serves
// either unchanged.
type Router struct {
	metricsdb.Reader
	shards    []*resultstore.Store
	overloads atomic.Int64
}

// Open recovers (or creates) a sharded store under dir: shard i lives
// in dir/shard-NN with its own WAL and compaction. The first Open
// writes a manifest pinning the shard count and key schema; later
// Opens verify it.
func Open(dir string, opts Options) (*Router, error) {
	if opts.Shards <= 0 {
		opts.Shards = 1
	}
	disk := opts.Store.FS
	if disk == nil {
		disk = fsys.OS
	}
	if err := disk.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("resultshard: %w", err)
	}
	// What a crash while writing the manifest left; each shard's Open
	// clears its own directory.
	if err := fsys.RemoveTemps(disk, dir); err != nil {
		return nil, fmt.Errorf("resultshard: %w", err)
	}
	if err := checkManifest(disk, dir, opts.Shards); err != nil {
		return nil, err
	}
	r := &Router{}
	readers := make([]metricsdb.Reader, opts.Shards)
	for i := range readers {
		st, err := resultstore.Open(filepath.Join(dir, shardDirName(i)), opts.Store)
		if err != nil {
			r.Close()
			return nil, fmt.Errorf("resultshard: shard %d: %w", i, err)
		}
		r.shards = append(r.shards, st)
		readers[i] = st.Reader
	}
	r.Reader = metricsdb.MergeReaders(ShardFor, readers...)
	return r, nil
}

func shardDirName(i int) string { return fmt.Sprintf("shard-%02d", i) }

// checkManifest pins the topology on first open and verifies it after.
func checkManifest(disk fsys.FS, dir string, shards int) error {
	path := filepath.Join(dir, "router.json")
	data, err := disk.ReadInto(path, nil)
	if errors.Is(err, fs.ErrNotExist) {
		m := manifest{Format: manifestFormat, KeySchema: KeySchema, Shards: shards}
		out, merr := json.Marshal(m)
		if merr != nil {
			return fmt.Errorf("resultshard: %w", merr)
		}
		// Temp + rename + dir fsync: a crash mid-write must not leave a
		// torn manifest every later Open would refuse.
		if _, err := fsys.Commit(disk, path, bytes.NewReader(out)); err != nil {
			return err
		}
		return disk.SyncDir(dir)
	}
	if err != nil {
		return fmt.Errorf("resultshard: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("resultshard: manifest %s: %w", path, err)
	}
	if m.Format != manifestFormat {
		return fmt.Errorf("resultshard: manifest has unknown format %q", m.Format)
	}
	if m.KeySchema != KeySchema {
		return fmt.Errorf("resultshard: store was written under key schema %q, this binary uses %q — resharding is an explicit migration", m.KeySchema, KeySchema)
	}
	if m.Shards != shards {
		return fmt.Errorf("resultshard: store has %d shards, asked to open with %d — resharding is an explicit migration", m.Shards, shards)
	}
	return nil
}

// Shards reports the shard count.
func (r *Router) Shards() int { return len(r.shards) }

// Append routes one batch: results split by (system, benchmark) onto
// their shards, each sub-batch enqueued on its shard's bounded commit
// queue, and the call blocks until every enqueued sub-batch is durably
// committed (or refused). The returned applied is true when any shard
// newly applied results; (false, nil) means every shard had already
// seen the key.
//
// Backpressure: a full shard queue makes Append return an
// OverloadError immediately. Sub-batches already enqueued on other
// shards still commit — the batch is then PARTIALLY applied, which is
// safe because a retry under the same ingest key dedups on the shards
// that applied and lands on the ones that refused.
func (r *Router) Append(ctx context.Context, b resultstore.Batch) (bool, error) {
	if err := b.Validate(); err != nil {
		return false, err
	}

	// Split by shard, preserving within-shard result order: count, then
	// carve one allocation the size of the batch into the shards'
	// sub-slices and fill them.
	n := len(r.shards)
	counts := make([]int, n)
	for i := range b.Results {
		counts[ShardFor(b.Results[i].System, b.Results[i].Benchmark, n)]++
	}
	rest := make([]metricsdb.Result, len(b.Results))
	split := make([][]metricsdb.Result, n)
	for i, c := range counts {
		split[i], rest = rest[:0:c], rest[c:]
	}
	for _, res := range b.Results {
		i := ShardFor(res.System, res.Benchmark, n)
		split[i] = append(split[i], res)
	}

	var (
		waiting  []*resultstore.Pending
		overload error // the first refusal
		firstErr error
		applied  bool
	)
	for i, rs := range split {
		if len(rs) == 0 {
			continue
		}
		p, err := r.shards[i].Enqueue(resultstore.Batch{Key: b.Key, TraceID: b.TraceID, Results: rs})
		switch {
		case err == nil:
			waiting = append(waiting, p)
		case errors.Is(err, resultstore.ErrQueueFull):
			r.overloads.Add(1)
			if overload == nil {
				overload = &OverloadError{Shard: i, RetryAfter: RetryAfter}
			}
		default:
			return false, fmt.Errorf("resultshard: shard %d: %w", i, err)
		}
	}

	for _, p := range waiting {
		// Once ctx is done every remaining Wait returns at once; the
		// commits may still complete behind the caller's back.
		ok, err := p.Wait(ctx)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		applied = applied || ok
	}
	if firstErr == nil {
		firstErr = overload
	}
	return applied, firstErr
}

// Close closes every shard store; batches still queued fail their
// waiters with the store's closed error.
func (r *Router) Close() error {
	var firstErr error
	for _, sh := range r.shards {
		if err := sh.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Overloads reports how many enqueue attempts the router has refused
// for backpressure since Open — the flow-control gauge the ops plane
// and the load-generator report surface.
func (r *Router) Overloads() int64 { return r.overloads.Load() }

// Health aggregates shard health: ready iff every shard is ready, with
// the first unready shard's reason surfaced. Result, key, snapshot and
// compaction counts sum; WAL geometry is per-shard (see ShardHealth).
func (r *Router) Health() resultstore.Health {
	h := resultstore.Health{Ready: true}
	for i, sub := range r.ShardHealth() {
		h.Results += sub.Results
		h.IngestKeys += sub.IngestKeys
		h.SnapshotGenerations += sub.SnapshotGenerations
		h.SnapshotBytes += sub.SnapshotBytes
		h.Compactions += sub.Compactions
		h.CompactionBytesWritten += sub.CompactionBytesWritten
		if !sub.Ready && h.Ready {
			h.Ready = false
			h.Reason = fmt.Sprintf("shard %d: %s", i, sub.Reason)
		}
		if sub.CompactError != "" && h.CompactError == "" {
			h.CompactError = fmt.Sprintf("shard %d: %s", i, sub.CompactError)
		}
	}
	return h
}

// ShardHealth reports every shard's own health, in shard order.
func (r *Router) ShardHealth() []resultstore.Health {
	out := make([]resultstore.Health, len(r.shards))
	for i, sh := range r.shards {
		out[i] = sh.Health()
	}
	return out
}
