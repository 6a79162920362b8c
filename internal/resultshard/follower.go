package resultshard

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/metricsdb"
	"repro/internal/resultstore"
)

// Source is where a follower pulls replication state from. The
// production implementation is resultsd.ReplicaClient (HTTP against a
// primary's /v1/replica endpoints); tests wire a Router in directly.
type Source interface {
	// ReplicaMeta describes the primary's topology. A follower verifies
	// the schema and shard count before pulling deltas.
	ReplicaMeta(ctx context.Context) (ReplicaMeta, error)
	// ReplicaDelta returns one shard's results after the follower's
	// watermark, plus the primary's current watermarks.
	ReplicaDelta(ctx context.Context, shard, afterSeq int) (ReplicaDelta, error)
}

// Follower is a read-only replica of a sharded primary, fed by
// snapshot shipping: each Sync pulls every shard's delta (results
// after the follower's per-shard Seq watermark) and applies it to an
// in-memory mirror. Results arrive with their primary-assigned IDs,
// Seqs and trace provenance intact, so the follower's query responses
// are byte-identical to the primary's once caught up.
//
// The mirror is deliberately memoryless across restarts: a follower
// that comes back empty re-pulls from watermark 0 — the bootstrap
// snapshot and the catch-up delta are the same protocol — so replicas
// need no WAL, no recovery and no durability of their own. Durability
// lives on the primary; replicas are disposable read capacity.
//
// Follower satisfies the same backend surface resultsd serves, except
// Append fails with ErrReadOnly: replicas serve /v1/series,
// /v1/regressions and /v1/systems while the primary keeps ingesting.
type Follower struct {
	mu sync.RWMutex
	// dbs[i] mirrors shard i. nil until the first successful meta pull.
	dbs []*metricsdb.DB
	// primary watermarks from the most recent delta, for lag reporting.
	primaryMaxSeq  []int
	primaryBatches []int
	synced         bool
	syncs          int
	lastErr        string
}

// NewFollower returns an empty follower; the first Sync sizes it to
// the primary's topology.
func NewFollower() *Follower { return &Follower{} }

// FollowerShardStatus is one shard's replication position.
type FollowerShardStatus struct {
	Shard          int `json:"shard"`
	Results        int `json:"results"`
	MaxSeq         int `json:"max_seq"`
	PrimaryMaxSeq  int `json:"primary_max_seq"`
	PrimaryBatches int `json:"primary_batches"`
	// LagResults is how many results the primary holds that this
	// replica has not applied yet (the follower-lag gauge).
	LagResults int `json:"lag_results"`
}

// FollowerStatus is the /v1/replica/status body: the replica's
// position against the primary as of the last completed Sync.
type FollowerStatus struct {
	Synced bool                  `json:"synced"`
	Syncs  int                   `json:"syncs"`
	Shards []FollowerShardStatus `json:"shards"`
	// LagResults sums the per-shard lags.
	LagResults int    `json:"lag_results"`
	LastError  string `json:"last_error,omitempty"`
}

// Sync pulls one round of deltas from the source and applies them.
// It returns the total post-apply lag in results (0 when the follower
// caught the watermarks the primary reported — a primary ingesting
// concurrently may already be ahead again).
func (f *Follower) Sync(ctx context.Context, src Source) (lag int, err error) {
	defer func() {
		if err != nil {
			f.mu.Lock()
			f.lastErr = err.Error()
			f.mu.Unlock()
		}
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
		f.primaryMaxSeq = make([]int, meta.Shards)
		f.primaryBatches = make([]int, meta.Shards)
	} else if len(f.dbs) != meta.Shards {
		f.mu.Unlock()
		return 0, fmt.Errorf("resultshard: primary resharded from %d to %d shards; restart the follower to re-bootstrap",
			len(f.dbs), meta.Shards)
	}
	dbs := f.dbs
	f.mu.Unlock()

	for i, db := range dbs {
		delta, derr := src.ReplicaDelta(ctx, i, db.MaxSeq())
		if derr != nil {
			return 0, fmt.Errorf("resultshard: follower delta pull shard %d: %w", i, derr)
		}
		for _, r := range delta.Results {
			db.Insert(r)
		}
		f.mu.Lock()
		f.primaryMaxSeq[i] = delta.MaxSeq
		f.primaryBatches[i] = delta.AppliedBatches
		f.mu.Unlock()
	}
	f.mu.Lock()
	f.synced = true
	f.syncs++
	f.lastErr = ""
	f.mu.Unlock()
	return f.Status().LagResults, nil
}

// Status reports the replica's position as of the last Sync.
func (f *Follower) Status() FollowerStatus {
	f.mu.RLock()
	defer f.mu.RUnlock()
	st := FollowerStatus{Synced: f.synced, Syncs: f.syncs, LastError: f.lastErr}
	for i, db := range f.dbs {
		s := FollowerShardStatus{
			Shard:          i,
			Results:        db.Len(),
			MaxSeq:         db.MaxSeq(),
			PrimaryMaxSeq:  f.primaryMaxSeq[i],
			PrimaryBatches: f.primaryBatches[i],
		}
		if d := s.PrimaryMaxSeq - s.MaxSeq; d > 0 {
			s.LagResults = d
		}
		st.Shards = append(st.Shards, s)
		st.LagResults += s.LagResults
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

// Health reports replica readiness: ready once the first Sync has
// completed (before that, reads would silently serve an empty mirror).
// The WAL geometry fields stay zero — replicas have no WAL.
func (f *Follower) Health() resultstore.Health {
	f.mu.RLock()
	defer f.mu.RUnlock()
	h := resultstore.Health{Ready: f.synced, Results: metricsdb.NewReader(nil, f.dbs...).Len()}
	if !f.synced {
		h.Reason = "replica awaiting first sync from primary"
		if f.lastErr != "" {
			h.Reason = fmt.Sprintf("replica awaiting first sync from primary (last error: %s)", f.lastErr)
		}
	}
	return h
}
