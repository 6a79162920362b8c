package resultsd

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/metricsdb"
	"repro/internal/telemetry"
)

// SelfMonitor samples resultsd's own operational metrics into the
// metrics database through the normal ingest path — the service
// benchmarks itself with the same machinery it offers everyone else.
// Each sample becomes one batch of results under Benchmark, System
// "resultsd" and Workload "ops": one result per API route (FOMs:
// latency_mean_s over the interval, cumulative requests and errors)
// plus one "store" result with WAL/ingest gauges. Because the samples
// land in the ordinary store, `GET /v1/regressions` gates the service
// on its own latency exactly as it gates any benchmark — a latency
// regression in resultsd is detected by resultsd.
type SelfMonitor struct {
	client *Client
	server *Server

	mu        sync.Mutex
	seq       int
	lastSum   map[string]float64
	lastCount map[string]int64
}

// NewSelfMonitor returns a monitor pushing through client into the
// given server's store.
func NewSelfMonitor(client *Client, server *Server) *SelfMonitor {
	return &SelfMonitor{
		client:    client,
		server:    server,
		lastSum:   map[string]float64{},
		lastCount: map[string]int64{},
	}
}

// Sample takes one operational snapshot and pushes it. The ingest key
// embeds the server tracer's trace ID (a per-process identity) and the
// sample sequence, so retries of one sample dedup while samples from a
// restarted process do not collide with a prior incarnation's keys.
func (m *SelfMonitor) Sample(ctx context.Context) error {
	ctx = telemetry.WithTracer(ctx, m.server.Tracer())
	ctx, span := telemetry.StartSpan(ctx, "selfmonitor:sample")
	defer span.End()

	ops := m.server.OpsSnapshot()
	routes := make([]string, 0, len(ops.Routes))
	for r := range ops.Routes {
		routes = append(routes, r)
	}
	sort.Strings(routes)

	m.mu.Lock()
	m.seq++
	seq := m.seq
	results := make([]metricsdb.Result, 0, len(routes)+1)
	for _, route := range routes {
		rs := ops.Routes[route]
		// Mean latency over the sampling interval, from the cumulative
		// histogram's sum/count deltas.
		dSum := rs.Latency.Sum - m.lastSum[route]
		dCount := rs.Latency.Count - m.lastCount[route]
		m.lastSum[route] = rs.Latency.Sum
		m.lastCount[route] = rs.Latency.Count
		mean := 0.0
		if dCount > 0 {
			mean = dSum / float64(dCount)
		}
		results = append(results, metricsdb.Result{
			Benchmark:  "resultsd",
			Workload:   "ops",
			System:     "resultsd",
			Experiment: route,
			FOMs: map[string]float64{
				"latency_mean_s": mean,
				"requests":       float64(rs.Requests),
				"errors":         float64(rs.Errors),
			},
		})
	}
	m.mu.Unlock()

	results = append(results, metricsdb.Result{
		Benchmark:  "resultsd",
		Workload:   "ops",
		System:     "resultsd",
		Experiment: "store",
		FOMs: map[string]float64{
			"results":           float64(ops.Store.Results),
			"wal_active_bytes":  float64(ops.Store.ActiveSizeBytes),
			"ingest_batches":    float64(ops.IngestBatches),
			"ingest_duplicates": float64(ops.IngestDuplicates),
		},
	})

	key := fmt.Sprintf("selfmonitor-resultsd-%s-%d", m.server.Tracer().TraceID(), seq)
	span.SetAttr("ingest_key", key)
	span.SetInt("results", len(results))
	if _, err := m.client.Push(ctx, key, results); err != nil {
		m.server.metrics.Counter("resultsd_selfmonitor_errors_total").Inc()
		return err
	}
	m.server.metrics.Counter("resultsd_selfmonitor_samples_total").Inc()
	return nil
}

// Run samples every interval until ctx is cancelled (interval <= 0
// means 30s). Push failures are recorded in the
// resultsd_selfmonitor_errors_total counter and do not stop the loop:
// a temporarily unready store should not kill the monitor that would
// report its recovery.
func (m *SelfMonitor) Run(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = 30 * time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			_ = m.Sample(ctx)
		}
	}
}
