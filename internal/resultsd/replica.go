package resultsd

// The replication plane: the two transports of resultshard.Source
// (which see for the protocol). Every primary — a plain store is a
// one-shard one — serves a resultshard.Primary over its own data on two
// pull endpoints, ReplicaClient is the Source that calls them, and a
// follower adds its position to the read API it serves from its mirrors:
//
//	GET /v1/replica/meta                     topology (schema, shards)
//	GET /v1/replica/delta?shard=S&after=W    shard S's next page with Seq > W
//	GET /v1/replica/status                   (follower only) position

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
	return max(1, int((d+time.Second-1)/time.Second))
}

// handleReplicaMeta serves the topology descriptor.
func (s *Server) handleReplicaMeta(src resultshard.Source) handlerFunc {
	return func(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
		meta, err := src.ReplicaMeta(ctx)
		if err != nil {
			return fail(w, http.StatusInternalServerError, err)
		}
		writeJSON(w, http.StatusOK, meta)
		return nil
	}
}

// handleReplicaDelta serves one shard's next page after a watermark.
func (s *Server) handleReplicaDelta(src resultshard.Source) handlerFunc {
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
		delta, err := src.ReplicaDelta(ctx, shard, after)
		if err != nil {
			return fail(w, http.StatusBadRequest, err)
		}
		// The client refuses a reply over its bound, so a page of fat
		// results is cut where it would reach it; the follower asks again
		// from where this one ends. One result fits: ingest has the same
		// bound. The newline writeBody adds is why it is ">=".
		sc := scratches.Get().(*scratch)
		defer scratches.Put(sc)
		out, sent, err := delta.AppendJSON(sc.out[:0], maxIngestBytes)
		if err != nil {
			return fail(w, http.StatusInternalServerError, err)
		}
		sc.out = out
		span := telemetry.Current(ctx)
		span.SetInt("shard", shard)
		span.SetInt("results", sent)
		writeBody(w, http.StatusOK, out)
		return nil
	}
}

// handleReplicaStatus serves a follower's replication position.
func (s *Server) handleReplicaStatus(f *resultshard.Follower) handlerFunc {
	return func(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
		writeJSON(w, http.StatusOK, f.Status())
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

// ReplicaMeta pulls the primary's topology descriptor.
func (rc *ReplicaClient) ReplicaMeta(ctx context.Context) (meta resultshard.ReplicaMeta, err error) {
	err = rc.c.do(ctx, http.MethodGet, "/v1/replica/meta", nil, nil, "", jsonInto(&meta))
	return meta, err
}

// ReplicaDelta pulls one shard's next page after the watermark.
func (rc *ReplicaClient) ReplicaDelta(ctx context.Context, shard, afterSeq int) (delta resultshard.ReplicaDelta, err error) {
	q := url.Values{"shard": {strconv.Itoa(shard)}, "after": {strconv.Itoa(afterSeq)}}
	err = rc.c.do(ctx, http.MethodGet, "/v1/replica/delta", q, nil, "", func(data []byte) (err error) {
		sc := scratches.Get().(*scratch)
		defer scratches.Put(sc)
		delta, err = resultshard.DecodeReplicaDelta(&sc.dec, data)
		return err
	})
	return delta, err
}

// RunFollower drives a follower's sync loop: one pass per interval
// until ctx is done, recording what each completed pass had to apply
// in the tracer's "resultsd_replica_lag_results" gauge (plus sync/error
// counters) for the follower's own /metrics. A failed pass is counted
// and retried next tick — a follower outlives primary restarts.
func RunFollower(ctx context.Context, f *resultshard.Follower, src resultshard.Source, interval time.Duration, tracer *telemetry.Tracer) {
	met := tracer.Metrics()
	lagGauge := met.Gauge("resultsd_replica_lag_results")
	syncs := met.Counter("resultsd_replica_syncs_total")
	errs := met.Counter("resultsd_replica_sync_errors_total")
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		applied, err := f.Sync(ctx, src)
		if err != nil {
			errs.Inc()
		} else {
			syncs.Inc()
			lagGauge.Set(int64(applied))
		}
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
	}
}
