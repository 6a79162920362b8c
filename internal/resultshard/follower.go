package resultshard

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/metricsdb"
	"repro/internal/resultstore"
)

// Follower is a read-only replica of a primary, fed by snapshot
// shipping: each Sync pass pulls every shard's pages after its mirror's
// Seq watermark into an in-memory mirror. Results arrive in Seq order
// with their primary-assigned Seqs and trace provenance, so a
// mirror is always a Seq-prefix of its shard and a caught-up follower's
// responses are byte-identical to the primary's. A page whose Seqs do
// not rise above the watermark fails the pass and is not applied.
//
// A follower reports only what it knows: its mirrors and how many
// passes have completed. A pass leaves each mirror holding everything
// its shard had acked when the pass first asked it, so a reader that
// needs what the primary acked before instant T waits for a pass that
// STARTED after T — Syncs two past its value at T, because the pass
// completing next may have begun before.
//
// The mirror is memoryless: a restarted follower re-pulls from
// watermark 0 (bootstrap and catch-up are one protocol), so replicas
// need no WAL or recovery of their own — disposable read capacity with
// the resultsd backend surface, except that Append fails ErrReadOnly.
type Follower struct {
	mu sync.RWMutex
	// dbs[i] mirrors shard i. nil until the first successful meta pull.
	dbs     []*metricsdb.DB
	syncs   int    // completed passes
	lag     int    // results the last completed pass applied
	lastErr string // why the last pass failed; "" once one completes
}

// NewFollower returns an empty follower; the first Sync sizes it.
func NewFollower() *Follower { return &Follower{} }

// FollowerShardStatus is where one shard's mirror stands now.
type FollowerShardStatus struct {
	Shard   int `json:"shard"`
	Results int `json:"results"`
	MaxSeq  int `json:"max_seq"`
}

// FollowerStatus is the /v1/replica/status body.
type FollowerStatus struct {
	Synced bool                  `json:"synced"` // Syncs > 0
	Syncs  int                   `json:"syncs"`  // completed passes
	Shards []FollowerShardStatus `json:"shards"`
	// LagResults is what pass number Syncs had to apply: how far behind
	// the follower was when it began. Zero one quiet pass after ingest.
	LagResults int `json:"lag_results"`
	// LastError is set while the latest pass is a failed one; with Syncs
	// standing still it is what a stale follower looks like.
	LastError string `json:"last_error,omitempty"`
}

// Sync runs one pass — every shard, page by page, until its mirror
// holds the MaxSeq the shard first reported — and returns how many
// results it applied. A failed pass keeps those: still a prefix. A
// pass that returns with ctx done was stopped, not failed: it returns
// ctx.Err() itself, is counted neither way and leaves the status as
// it was.
func (f *Follower) Sync(ctx context.Context, src Source) (applied int, err error) {
	defer func() {
		if ctx.Err() != nil {
			err = ctx.Err()
			return
		}
		f.mu.Lock()
		defer f.mu.Unlock()
		if err != nil {
			f.lastErr = err.Error()
			return
		}
		f.syncs, f.lag, f.lastErr = f.syncs+1, applied, ""
	}()
	meta, err := src.ReplicaMeta(ctx)
	if err != nil {
		return 0, fmt.Errorf("resultshard: follower meta pull: %w", err)
	}
	if meta.Schema != ReplicaSchema {
		return 0, fmt.Errorf("resultshard: primary speaks replica schema %q, follower %q", meta.Schema, ReplicaSchema)
	}
	if meta.KeySchema != KeySchema {
		return 0, fmt.Errorf("resultshard: primary uses key schema %q, follower %q", meta.KeySchema, KeySchema)
	}
	if meta.Shards <= 0 {
		return 0, fmt.Errorf("resultshard: primary reports %d shards", meta.Shards)
	}
	f.mu.Lock()
	if f.dbs == nil {
		f.dbs = make([]*metricsdb.DB, meta.Shards)
		for i := range f.dbs {
			f.dbs[i] = metricsdb.New()
		}
	}
	dbs := f.dbs
	f.mu.Unlock()
	if len(dbs) != meta.Shards {
		return 0, fmt.Errorf("resultshard: primary resharded from %d to %d shards; restart the follower to re-bootstrap",
			len(dbs), meta.Shards)
	}

	for i, db := range dbs {
		target := -1 // the MaxSeq shard i's first page of this pass reports
		for target < 0 || db.MaxSeq() < target {
			at := db.MaxSeq()
			page, err := src.ReplicaDelta(ctx, i, at)
			if err != nil {
				return applied, fmt.Errorf("resultshard: follower delta pull shard %d: %w", i, err)
			}
			if target < 0 {
				target = page.MaxSeq
			}
			if page.MaxSeq < at || len(page.Results) == 0 && at < target {
				return applied, fmt.Errorf("resultshard: shard %d is at seq %d with %d results after this follower's %d: not the store this follower bootstrapped from; restart the follower to re-bootstrap",
					i, page.MaxSeq, len(page.Results), at)
			}
			if err := db.InsertAll(page.Results); err != nil {
				return applied, fmt.Errorf("resultshard: shard %d sent a page that does not follow this follower's seq %d: %w", i, at, err)
			}
			applied += len(page.Results)
		}
	}
	return applied, nil
}

// Status reports the replica's position; see FollowerStatus.
func (f *Follower) Status() FollowerStatus {
	f.mu.RLock()
	defer f.mu.RUnlock()
	st := FollowerStatus{Synced: f.syncs > 0, Syncs: f.syncs, LagResults: f.lag, LastError: f.lastErr}
	for i, db := range f.dbs {
		st.Shards = append(st.Shards, FollowerShardStatus{Shard: i, Results: db.Len(), MaxSeq: db.MaxSeq()})
	}
	return st
}

// Append on a replica always fails: writes belong to the primary.
func (f *Follower) Append(ctx context.Context, b resultstore.Batch) (bool, error) {
	return false, ErrReadOnly
}

// reader is the primary's read path — same Reader, same placement —
// over whatever mirrors exist right now (none before the first Sync).
func (f *Follower) reader() metricsdb.Reader {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return metricsdb.NewReader(ShardFor, f.dbs...)
}

func (f *Follower) Len() int                                    { return f.reader().Len() }
func (f *Follower) Query(q metricsdb.Filter) []metricsdb.Result { return f.reader().Query(q) }
func (f *Follower) Systems() []string                           { return f.reader().Systems() }
func (f *Follower) Series(q metricsdb.Filter, fom string) []metricsdb.Point {
	return f.reader().Series(q, fom)
}
func (f *Follower) DetectRegressions(q metricsdb.Filter, fom string, window int, threshold float64) []metricsdb.Regression {
	return f.reader().DetectRegressions(q, fom, window, threshold)
}

// Health reports replica readiness: ready once the first pass has
// completed (before that, reads would silently serve an empty mirror)
// and from then on — a follower that outlives its primary serves old
// but consistent reads, and Status says so. No WAL, so no WAL geometry.
func (f *Follower) Health() resultstore.Health {
	f.mu.RLock()
	defer f.mu.RUnlock()
	h := resultstore.Health{Ready: f.syncs > 0, Results: metricsdb.NewReader(nil, f.dbs...).Len()}
	if !h.Ready {
		h.Reason = "replica awaiting first sync from primary"
		if f.lastErr != "" {
			h.Reason = fmt.Sprintf("replica awaiting first sync from primary (last error: %s)", f.lastErr)
		}
	}
	return h
}
