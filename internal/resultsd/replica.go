package resultsd

// The replication plane. A sharded primary exposes two pull
// endpoints; followers poll them and serve the read API from the
// mirrored state:
//
//	GET /v1/replica/meta                     topology (schema, shards)
//	GET /v1/replica/delta?shard=S&after=W    shard S's results with Seq > W
//	GET /v1/replica/status                   (follower only) lag report
//
// The protocol is snapshot shipping by watermark: after=0 ships the
// full shard snapshot, any other watermark ships the incremental
// delta, and catch-up after a follower restart is simply "pull from
// 0 again". Results travel with their primary-assigned IDs, Seqs and
// trace IDs, so a caught-up follower serves byte-identical /v1/series
// and /v1/regressions responses while the primary keeps ingesting.

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/resultshard"
	"repro/internal/telemetry"
)

// retryAfterSeconds renders a backoff hint as a Retry-After header
// value: whole seconds, rounded up, at least 1.
func retryAfterSeconds(d time.Duration) int {
	s := int((d + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}

// handleReplicaMeta serves the topology descriptor.
func (s *Server) handleReplicaMeta(src replicaSource) handlerFunc {
	return func(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
		writeJSON(w, http.StatusOK, src.ReplicaMeta())
		return nil
	}
}

// handleReplicaDelta serves one shard's results after a watermark.
func (s *Server) handleReplicaDelta(src replicaSource) handlerFunc {
	return func(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
		q := r.URL.Query()
		shard, err := strconv.Atoi(q.Get("shard"))
		if err != nil || shard < 0 {
			return fail(w, http.StatusBadRequest, fmt.Errorf("bad shard %q (need an integer >= 0)", q.Get("shard")))
		}
		after := 0
		if v := q.Get("after"); v != "" {
			after, err = strconv.Atoi(v)
			if err != nil || after < 0 {
				return fail(w, http.StatusBadRequest, fmt.Errorf("bad after %q (need an integer >= 0)", v))
			}
		}
		delta, err := src.ReplicaDelta(shard, after)
		if err != nil {
			return fail(w, http.StatusBadRequest, err)
		}
		span := telemetry.Current(ctx)
		span.SetInt("shard", shard)
		span.SetInt("results", len(delta.Results))
		writeJSON(w, http.StatusOK, delta)
		return nil
	}
}

// handleReplicaStatus serves a follower's replication position.
func (s *Server) handleReplicaStatus(fs replicaStatus) handlerFunc {
	return func(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
		writeJSON(w, http.StatusOK, fs.Status())
		return nil
	}
}

// ReplicaClient implements resultshard.Source over the primary's
// /v1/replica endpoints, reusing the typed client's retry policy —
// a follower rides out primary restarts and transient 5xx the same
// way a pushing runner does.
type ReplicaClient struct{ c *Client }

// NewReplicaClient returns a replication source pulling from the
// primary at baseURL.
func NewReplicaClient(baseURL string) *ReplicaClient {
	return &ReplicaClient{c: NewClient(baseURL)}
}

// Client exposes the underlying typed client (retry knobs, jitter
// injection for tests).
func (rc *ReplicaClient) Client() *Client { return rc.c }

// ReplicaMeta pulls the primary's topology descriptor.
func (rc *ReplicaClient) ReplicaMeta(ctx context.Context) (resultshard.ReplicaMeta, error) {
	var meta resultshard.ReplicaMeta
	if err := rc.c.do(ctx, http.MethodGet, "/v1/replica/meta", nil, nil, &meta); err != nil {
		return resultshard.ReplicaMeta{}, err
	}
	return meta, nil
}

// ReplicaDelta pulls one shard's results after the watermark.
func (rc *ReplicaClient) ReplicaDelta(ctx context.Context, shard, afterSeq int) (resultshard.ReplicaDelta, error) {
	q := url.Values{}
	q.Set("shard", strconv.Itoa(shard))
	q.Set("after", strconv.Itoa(afterSeq))
	var delta resultshard.ReplicaDelta
	if err := rc.c.do(ctx, http.MethodGet, "/v1/replica/delta", q, nil, &delta); err != nil {
		return resultshard.ReplicaDelta{}, err
	}
	return delta, nil
}

// RunFollower drives a follower's sync loop: one Sync per interval
// until ctx is done, recording the post-sync lag into the tracer's
// "resultsd_replica_lag_results" gauge (and sync/error counters) so
// the follower's own /metrics endpoint exposes how far behind it is.
// Sync errors are counted and retried on the next tick — a follower
// outlives primary restarts.
func RunFollower(ctx context.Context, f *resultshard.Follower, src resultshard.Source, interval time.Duration, tracer *telemetry.Tracer) {
	met := tracer.Metrics()
	lagGauge := met.Gauge("resultsd_replica_lag_results")
	syncs := met.Counter("resultsd_replica_syncs_total")
	errs := met.Counter("resultsd_replica_sync_errors_total")
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		lag, err := f.Sync(ctx, src)
		if err != nil {
			errs.Inc()
		} else {
			syncs.Inc()
			lagGauge.Set(int64(lag))
		}
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
	}
}
