package resultsd

// The live operations plane. Liveness (/healthz) and readiness
// (/readyz) are split deliberately: a resultsd whose WAL directory
// vanished or filled up can no longer take durable writes — /readyz
// flips to 503 with the reason so a load balancer drains ingest — but
// its in-memory state still serves queries, so /healthz stays 200 and
// readers keep working. /metrics renders the server's one registry
// (the per-route families, the in-flight gauge, the ingest totals)
// with the store's Health gauges merged in at scrape time; /debug/ops
// is the same picture as structured JSON for humans and the
// selfmonitor loop.

import (
	"net/http"

	"repro/internal/resultstore"
	"repro/internal/telemetry"
)

// RouteStats is one route's operational account.
type RouteStats struct {
	Requests int64                       `json:"requests"`
	Errors   int64                       `json:"errors"`
	Latency  telemetry.HistogramSnapshot `json:"latency"`
}

// OpsSnapshot is the /debug/ops body: a point-in-time picture of the
// server's live work and the store underneath it.
type OpsSnapshot struct {
	InFlight         int64                 `json:"in_flight"`
	IngestBatches    int64                 `json:"ingest_batches"`
	IngestDuplicates int64                 `json:"ingest_duplicate_batches"`
	IngestResults    int64                 `json:"ingest_results"`
	Store            resultstore.Health    `json:"store"`
	Routes           map[string]RouteStats `json:"routes"`
}

// OpsSnapshot assembles the live operational picture from one
// registry snapshot — the same instruments /metrics renders, so the
// JSON view and the text view can never disagree about what was
// observed.
func (s *Server) OpsSnapshot() OpsSnapshot {
	snap := s.metrics.Snapshot()
	ops := OpsSnapshot{
		InFlight:         snap.Gauges["resultsd_inflight_requests"],
		IngestBatches:    snap.Counters["resultsd_ingest_batches_total"],
		IngestDuplicates: snap.Counters["resultsd_ingest_duplicate_batches_total"],
		IngestResults:    snap.Counters["resultsd_ingest_results_total"],
		Store:            s.store.Health(),
		Routes:           make(map[string]RouteStats, len(s.routes)),
	}
	for _, route := range s.routes {
		ops.Routes[route] = RouteStats{
			Requests: snap.Counters[routeMetric("resultsd_requests_total", route)],
			Errors:   snap.Counters[routeMetric("resultsd_errors_total", route)],
			Latency:  snap.Histograms[routeMetric("resultsd_request_seconds", route)],
		}
	}
	return ops
}

// handleHealthz is liveness: the process is up and serving HTTP.
// It stays 200 even when the store cannot take writes — queries still
// work off the in-memory state — which is exactly the split that lets
// an operator distinguish "dead" from "degraded".
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write([]byte("ok\n")) //nolint:errcheck
}

// handleReadyz is readiness for durable ingest: 200 "ready" when the
// store can take writes, 503 with the store's Health (including the
// human-readable Reason) when it cannot.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	h := s.store.Health()
	if h.Ready {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ready\n")) //nolint:errcheck
		return
	}
	writeJSON(w, http.StatusServiceUnavailable, h)
}

// handleMetrics renders the Prometheus text exposition: one registry
// snapshot, with the store gauges read from Health merged in, through
// the one text renderer.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.metrics.Snapshot()
	h := s.store.Health()
	ready := int64(0)
	if h.Ready {
		ready = 1
	}
	snap.Gauges["resultsd_store_ready"] = ready
	snap.Gauges["resultsd_store_results"] = int64(h.Results)
	snap.Gauges["resultsd_store_ingest_keys"] = int64(h.IngestKeys)
	snap.Gauges["resultsd_wal_active_segment"] = int64(h.ActiveSegment)
	snap.Gauges["resultsd_wal_active_bytes"] = h.ActiveSizeBytes
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write([]byte(snap.PrometheusText())) //nolint:errcheck
}

// handleOps serves the OpsSnapshot as JSON.
func (s *Server) handleOps(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.OpsSnapshot())
}
