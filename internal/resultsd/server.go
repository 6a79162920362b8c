// Package resultsd is the network half of the results federation
// service: a stdlib-only HTTP API over a durable resultstore, plus a
// typed client with context-aware retries. It is the "shared metrics
// database" at the end of the paper's Figure 6 automation workflow —
// federated CI runners POST their results into it, and developers
// query series, regressions and system inventories "across systems
// and time" (Section 5) without access to the machine that ran the
// benchmarks.
//
// API (all request/response bodies are JSON):
//
//	POST /v1/results      batch ingest; idempotent via ingest_key
//	GET  /v1/series       one FOM's time series under a filter
//	GET  /v1/regressions  rolling-median regression scan of a series
//	GET  /v1/systems      distinct system names with results
//
// Every handler is instrumented with internal/telemetry exactly like
// the execution engine: a span per request (http:<route>), plus
// request/error counters and a latency histogram per route, all read
// from the server's injected tracer so traces flow through the server
// the same way they flow through the engine. A request carrying a
// W3C `traceparent` header joins the caller's distributed trace: the
// request span adopts the remote trace ID and records the caller's
// span as its remote parent, and ingested results are stamped with
// that trace ID as provenance — so GET /v1/series can answer "which
// run produced this point". Responses are deterministic: series
// points sort by sequence, systems sort by name, and no wall-clock
// value is ever serialized — restarting the store and re-serving
// yields byte-identical bodies (pinned by
// TestServeByteIdenticalAcrossRestart).
//
// Beyond the data API, the server carries a live operations plane
// (see ops.go), always registered: /healthz, /readyz, /metrics
// (Prometheus text) and /debug/ops (a JSON snapshot of in-flight work,
// WAL geometry and per-route latency). All four are read-only; WithPprof
// opts in the net/http/pprof profile handlers, which expose internals.
package resultsd

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"

	"repro/internal/metricsdb"
	"repro/internal/ramble"
	"repro/internal/resultshard"
	"repro/internal/resultstore"
	"repro/internal/telemetry"
)

// maxIngestBytes bounds a POST /v1/results body (after decompression
// for gzip-encoded pushes) and any reply body the client will read.
const maxIngestBytes = 8 << 20

// Backend is the storage a Server serves. Three implementations share
// it: the single-node *resultstore.Store (today's mode), the sharded
// *resultshard.Router (serve --shards N), and the read-only
// *resultshard.Follower replica (serve --replica-of URL), so every
// route — including the trace-context join on ingest — works
// identically across all three.
type Backend interface {
	Append(ctx context.Context, b resultstore.Batch) (bool, error)
	Series(f metricsdb.Filter, fom string) []metricsdb.Point
	DetectRegressions(f metricsdb.Filter, fom string, window int, threshold float64) []metricsdb.Regression
	Systems() []string
	Health() resultstore.Health
	Len() int
}

// Server serves the federation API over a store.
type Server struct {
	store  Backend
	tracer *telemetry.Tracer
	mux    *http.ServeMux

	// metrics is the one registry every server instrument lives in:
	// the tracer's, or a private one for a server built without a
	// tracer, so /metrics and /debug/ops count either way.
	metrics          *telemetry.Registry
	inFlight         telemetry.Gauge
	ingestBatches    telemetry.Counter
	ingestDuplicates telemetry.Counter
	ingestResults    telemetry.Counter
	routes           []string // instrumented route names, fixed at New
}

// Option configures optional server surfaces.
type Option func(*serverConfig)

type serverConfig struct {
	pprof bool
}

// WithPprof registers the net/http/pprof handlers under
// /debug/pprof/. Off by default: profiles expose internals, so they
// are a deliberate opt-in (`benchpark serve --pprof`).
func WithPprof() Option { return func(c *serverConfig) { c.pprof = true } }

// New returns a server over the store — a single-node Store, a
// sharded Router, or a read-only Follower. tracer may be nil (requests
// then record no spans and observe zero latencies); with a tracer,
// every request records a span, and the per-route metrics live in the
// tracer's registry. A backend that reads through a metricsdb.Reader —
// a Store is a one-shard primary, a Router an N-shard one — additionally
// gets the /v1/replica/meta and /v1/replica/delta pull endpoints; a
// follower backend gets /v1/replica/status.
func New(store Backend, tracer *telemetry.Tracer, opts ...Option) *Server {
	var cfg serverConfig
	for _, o := range opts {
		o(&cfg)
	}
	met := tracer.Metrics()
	if met == nil {
		met = telemetry.NewRegistry()
	}
	s := &Server{
		store: store, tracer: tracer, mux: http.NewServeMux(), metrics: met,
		inFlight:         met.Gauge("resultsd_inflight_requests"),
		ingestBatches:    met.Counter("resultsd_ingest_batches_total"),
		ingestDuplicates: met.Counter("resultsd_ingest_duplicate_batches_total"),
		ingestResults:    met.Counter("resultsd_ingest_results_total"),
	}
	s.mux.HandleFunc("POST /v1/results", s.instrument("results", s.handleIngest))
	s.mux.HandleFunc("GET /v1/series", s.instrument("series", s.handleSeries))
	s.mux.HandleFunc("GET /v1/regressions", s.instrument("regressions", s.handleRegressions))
	s.mux.HandleFunc("GET /v1/systems", s.instrument("systems", s.handleSystems))
	if sharded, ok := store.(resultshard.Sharded); ok {
		src := resultshard.Primary{Sharded: sharded}
		s.mux.HandleFunc("GET /v1/replica/meta", s.instrument("replica_meta", s.handleReplicaMeta(src)))
		s.mux.HandleFunc("GET /v1/replica/delta", s.instrument("replica_delta", s.handleReplicaDelta(src)))
	}
	if f, ok := store.(*resultshard.Follower); ok {
		s.mux.HandleFunc("GET /v1/replica/status", s.instrument("replica_status", s.handleReplicaStatus(f)))
	}
	// The ops plane stays outside instrument() so scrapes and probes
	// don't pollute the request metrics they report.
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/ops", s.handleOps)
	if cfg.pprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Tracer returns the server's tracer (nil when uninstrumented).
func (s *Server) Tracer() *telemetry.Tracer { return s.tracer }

// handlerFunc is an instrumented route body: it serves the request
// and returns the error it responded with, nil on success.
type handlerFunc func(ctx context.Context, w http.ResponseWriter, r *http.Request) error

// instrument wraps a route with the span + metrics discipline: one
// "http:<route>" span per request, resultsd_requests_total and
// resultsd_errors_total counters, and a resultsd_request_seconds
// latency histogram, all labeled by route. Latency comes from the
// tracer's clock, so a FixedClock server observes zero latencies and
// stays byte-identical across runs.
func (s *Server) instrument(route string, fn handlerFunc) http.HandlerFunc {
	requests := s.metrics.Counter(routeMetric("resultsd_requests_total", route))
	errors := s.metrics.Counter(routeMetric("resultsd_errors_total", route))
	latency := s.metrics.Histogram(routeMetric("resultsd_request_seconds", route))
	s.routes = append(s.routes, route)
	return func(w http.ResponseWriter, r *http.Request) {
		ctx := r.Context()
		if s.tracer != nil {
			ctx = telemetry.WithTracer(ctx, s.tracer)
		}
		// Join the caller's distributed trace when the request carries
		// a valid traceparent; the span below then adopts the remote
		// trace ID instead of the server's own.
		if tc, ok := telemetry.Extract(r.Header); ok {
			ctx = telemetry.WithRemote(ctx, tc)
		}
		s.inFlight.Add(1)
		defer s.inFlight.Add(-1)
		start := s.tracer.Now()
		ctx, span := telemetry.StartSpan(ctx, "http:"+route)
		defer span.End()
		span.SetAttr("method", r.Method)
		requests.Inc()
		defer func() { latency.Observe(s.tracer.Now().Sub(start)) }()
		if err := fn(ctx, w, r); err != nil {
			span.SetError(err)
			errors.Inc()
		}
	}
}

// routeMetric names one route's sample of a per-route family.
func routeMetric(family, route string) string {
	return fmt.Sprintf("%s{route=%q}", family, route)
}

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

// fail writes the error envelope and returns the error for the
// instrumentation layer.
func fail(w http.ResponseWriter, code int, err error) error {
	writeJSON(w, code, apiError{Error: err.Error()})
	return err
}

// writeJSON renders one response body. Encoding a response we built
// ourselves cannot fail, so the error path is just a 500 guard. The
// length is stated — it is known — so a client can read the body into
// one buffer of that size, and the newline is its own Write: appending
// it would copy the whole body to add a byte.
func writeJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encoding response"}`, http.StatusInternalServerError)
		return
	}
	writeBody(w, code, data)
}

// writeBody sends an already encoded JSON value.
func writeBody(w http.ResponseWriter, code int, data []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)+1))
	w.WriteHeader(code)
	w.Write(data)    //nolint:errcheck
	w.Write(newline) //nolint:errcheck
}

var newline = []byte{'\n'}

// IngestRequest is the POST /v1/results body: a client-chosen
// idempotency key and the results it covers. Result IDs and sequence
// numbers are assigned server-side; client-supplied values are
// ignored.
type IngestRequest struct {
	IngestKey string             `json:"ingest_key"`
	Results   []metricsdb.Result `json:"results"`
}

// IngestResponse acknowledges one ingest batch.
type IngestResponse struct {
	// Accepted is the number of results durably stored (0 when the
	// key was a duplicate).
	Accepted int `json:"accepted"`
	// Duplicate is set when the ingest key was already applied; the
	// batch was dropped without comparing contents, so clients must
	// derive keys from content + attempt identity.
	Duplicate bool `json:"duplicate"`
}

// gzipReaders holds idle decompressors (~44 kB of inflate state each)
// for compressed pushes. A zero gzip.Reader is what gzip.NewReader
// Resets, too.
var gzipReaders = sync.Pool{New: func() any { return new(gzip.Reader) }}

// scratch is what a handler borrows to move results across the wire:
// the buffer a request body is read into, the decoder that reads it —
// with its table of the fleet's names (metricsdb.Decoder) — the slice a
// push's results are decoded into, and the buffer a reply is appended
// to. What is decoded is copied out of the body, the backend is handed
// its own copy of the results (it may keep a batch queued after the
// request is gone) and a reply is written before the handler returns,
// so all four go back to the pool.
type scratch struct {
	body    bytes.Buffer
	dec     metricsdb.Decoder
	results []metricsdb.Result // empty between requests, at most maxIdleResults
	out     []byte
}

var scratches = sync.Pool{New: func() any { return new(scratch) }}

// maxIdleResults is the most results an idle scratch keeps room for —
// 32 KiB, the store's maxIdleStaged: a bulk push decodes in place, and
// the slice an 8 MiB body of valid results grew is not pooled.
const maxIdleResults = 256

// invalidResult is a push refused while decoding: the index of its
// first result that names no benchmark or no system.
type invalidResult int

func (i invalidResult) Error() string {
	return fmt.Sprintf("result %d needs benchmark and system", int(i))
}

// appendJSON appends the request as json.Marshal(req) would write it.
func (req *IngestRequest) appendJSON(dst []byte) ([]byte, error) {
	dst = metricsdb.AppendString(append(dst, `{"ingest_key":`...), req.IngestKey)
	dst, err := metricsdb.AppendResults(append(dst, `,"results":`...), req.Results)
	return append(dst, '}'), err
}

// decode reads a request body — one JSON value and nothing after it —
// into req, the results into the room req.Results came with. Each is
// validated as it is decoded: the first without a benchmark or a system
// ends the walk with an invalidResult, so a body of a million empty
// objects costs one Result.
func (req *IngestRequest) decode(dec *metricsdb.Decoder, body []byte) error {
	return dec.Document(body, func(name []byte) {
		switch string(name) {
		case "ingest_key":
			dec.String(&req.IngestKey)
		case "results":
			clear(req.Results) // a repeated member starts over
			req.Results = req.Results[:0]
			dec.Array(func() {
				i := len(req.Results)
				req.Results = append(req.Results, metricsdb.Result{})
				r := &req.Results[i]
				if dec.Result(r); dec.Err() == nil && (r.Benchmark == "" || r.System == "") {
					dec.Fail(invalidResult(i))
				}
			})
		default:
			dec.Skip()
		}
	})
}

// decodeIngest reads the push in sc.body. The results are decoded into
// the scratch's slice and returned as an exact-size copy — nothing
// pooled is handed on — and the slice goes back empty, or not at all
// once a push has grown it past maxIdleResults.
func (sc *scratch) decodeIngest() (IngestRequest, error) {
	req := IngestRequest{Results: sc.results}
	err := req.decode(&sc.dec, sc.body.Bytes())
	borrowed := req.Results
	req.Results = nil
	if err == nil && len(borrowed) > 0 {
		req.Results = append(make([]metricsdb.Result, 0, len(borrowed)), borrowed...)
	}
	clear(borrowed)
	sc.results = nil
	if cap(borrowed) <= maxIdleResults {
		sc.results = borrowed[:0]
	}
	return req, err
}

func (s *Server) handleIngest(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	// Compressed pushes (Content-Encoding: gzip) are the norm for
	// federated runners — a results batch is highly redundant JSON.
	// The byte bound applies to the DECOMPRESSED stream, so a gzip
	// bomb cannot smuggle an oversized batch past MaxBytesReader.
	var body io.Reader = http.MaxBytesReader(w, r.Body, maxIngestBytes)
	if r.Header.Get("Content-Encoding") == "gzip" {
		zr := gzipReaders.Get().(*gzip.Reader)
		if err := zr.Reset(body); err != nil {
			// Not returned to the pool: only a Closed reader is.
			return fail(w, http.StatusBadRequest, fmt.Errorf("decoding gzip body: %w", err))
		}
		defer func() {
			zr.Close() //nolint:errcheck
			gzipReaders.Put(zr)
		}()
		body = io.LimitReader(zr, maxIngestBytes+1)
	}
	// The body is read to its end before any of it is decoded: only
	// there does gzip check its CRC and length, and only then is it
	// known that nothing follows the JSON value.
	sc := scratches.Get().(*scratch)
	defer scratches.Put(sc)
	sc.body.Reset()
	if _, err := sc.body.ReadFrom(body); err != nil {
		return fail(w, http.StatusBadRequest, fmt.Errorf("reading ingest body: %w", err))
	}
	if sc.body.Len() > maxIngestBytes {
		return fail(w, http.StatusBadRequest, fmt.Errorf("ingest body exceeds %d bytes decompressed", maxIngestBytes))
	}
	req, err := sc.decodeIngest()
	var bad invalidResult
	switch {
	case errors.As(err, &bad):
		return fail(w, http.StatusBadRequest, bad)
	case err != nil:
		return fail(w, http.StatusBadRequest, fmt.Errorf("decoding ingest body: %w", err))
	case req.IngestKey == "":
		return fail(w, http.StatusBadRequest, fmt.Errorf("ingest_key is required"))
	case len(req.Results) == 0:
		return fail(w, http.StatusBadRequest, fmt.Errorf("results must be non-empty"))
	}
	span := telemetry.Current(ctx)
	span.SetAttr("ingest_key", req.IngestKey)
	span.SetInt("results", len(req.Results))
	applied, err := s.store.Append(ctx, resultstore.Batch{
		Key: req.IngestKey,
		// Provenance: the trace the caller propagated (or the server's
		// own for untraced pushes) is stamped onto every stored result.
		TraceID: telemetry.TraceIDFrom(ctx),
		Results: req.Results,
	})
	if err != nil {
		// Backpressure contract: an overloaded shard answers 429 with a
		// Retry-After hint; the retrying client honours it. Retrying is
		// safe — whatever partially applied dedups under the ingest key.
		var ov *resultshard.OverloadError
		if errors.As(err, &ov) {
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(ov.RetryAfter)))
			return fail(w, http.StatusTooManyRequests, err)
		}
		// A replica refuses writes terminally: clients must not retry
		// against a follower, so this is a 403, not a 5xx.
		if errors.Is(err, resultshard.ErrReadOnly) {
			return fail(w, http.StatusForbidden, err)
		}
		return fail(w, http.StatusInternalServerError, err)
	}
	s.ingestBatches.Inc()
	resp := IngestResponse{Duplicate: !applied}
	if applied {
		resp.Accepted = len(req.Results)
		s.ingestResults.Add(int64(len(req.Results)))
	} else {
		s.ingestDuplicates.Inc()
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// SeriesPoint is one sample of a served FOM series. TraceID names the
// run that produced the sample (empty for results pushed without
// trace context), so a series response alone answers "which run
// produced this point".
type SeriesPoint struct {
	Seq     int     `json:"seq"`
	Value   float64 `json:"value"`
	TraceID string  `json:"trace_id,omitempty"`
}

// SeriesResponse is the GET /v1/series body.
type SeriesResponse struct {
	FOM    string        `json:"fom"`
	Points []SeriesPoint `json:"points"`
}

// filterFromQuery reads the shared filter parameters.
func filterFromQuery(r *http.Request) metricsdb.Filter {
	q := r.URL.Query()
	return metricsdb.Filter{
		Benchmark:  q.Get("benchmark"),
		Workload:   q.Get("workload"),
		System:     q.Get("system"),
		Experiment: q.Get("experiment"),
	}
}

func (s *Server) handleSeries(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	fom := r.URL.Query().Get("fom")
	if fom == "" {
		return fail(w, http.StatusBadRequest, fmt.Errorf("fom parameter is required"))
	}
	pts := s.store.Series(filterFromQuery(r), fom)
	telemetry.Current(ctx).SetInt("points", len(pts))
	// Straight from the points: what json.Marshal writes for a
	// SeriesResponse of them, without building one.
	sc := scratches.Get().(*scratch)
	defer scratches.Put(sc)
	out := metricsdb.AppendString(append(sc.out[:0], `{"fom":`...), fom)
	out = append(out, `,"points":[`...)
	for i, p := range pts {
		if i > 0 {
			out = append(out, ',')
		}
		out = strconv.AppendInt(append(out, `{"seq":`...), int64(p.Seq), 10)
		var err error
		if out, err = metricsdb.AppendFloat(append(out, `,"value":`...), p.Value); err != nil {
			return fail(w, http.StatusInternalServerError, fmt.Errorf("encoding response: %w", err))
		}
		if p.TraceID != "" {
			out = metricsdb.AppendString(append(out, `,"trace_id":`...), p.TraceID)
		}
		out = append(out, '}')
	}
	sc.out = append(out, "]}"...)
	writeBody(w, http.StatusOK, sc.out)
	return nil
}

// RegressionRecord is one flagged sample in a regression scan.
type RegressionRecord struct {
	Seq      int     `json:"seq"`
	Value    float64 `json:"value"`
	Baseline float64 `json:"baseline"`
	Ratio    float64 `json:"ratio"`
}

// RegressionsResponse is the GET /v1/regressions body.
type RegressionsResponse struct {
	FOM         string             `json:"fom"`
	Window      int                `json:"window"`
	Threshold   float64            `json:"threshold"`
	Regressions []RegressionRecord `json:"regressions"`
}

// Regression-scan defaults: a 4-sample rolling median and a 20%
// slowdown threshold. A query without a threshold gets
// ramble.RegressionThreshold, as the dashboard does: DefaultThreshold
// for every FOM but one its application declares higher-is-better.
const (
	DefaultWindow    = 4
	DefaultThreshold = 1.2
)

func (s *Server) handleRegressions(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	q := r.URL.Query()
	fom := q.Get("fom")
	if fom == "" {
		return fail(w, http.StatusBadRequest, fmt.Errorf("fom parameter is required"))
	}
	window := DefaultWindow
	if v := q.Get("window"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 2 {
			return fail(w, http.StatusBadRequest, fmt.Errorf("bad window %q (need an integer >= 2)", v))
		}
		window = n
	}
	filter := filterFromQuery(r)
	threshold := ramble.RegressionThreshold(filter.Benchmark, fom)
	if v := q.Get("threshold"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f <= 0 {
			return fail(w, http.StatusBadRequest, fmt.Errorf("bad threshold %q (need a positive number)", v))
		}
		threshold = f
	}
	regs := s.store.DetectRegressions(filter, fom, window, threshold)
	resp := RegressionsResponse{
		FOM: fom, Window: window, Threshold: threshold,
		Regressions: make([]RegressionRecord, 0, len(regs)),
	}
	for _, reg := range regs {
		resp.Regressions = append(resp.Regressions, RegressionRecord{
			Seq: reg.Seq, Value: reg.Value, Baseline: reg.Baseline, Ratio: reg.Ratio,
		})
	}
	telemetry.Current(ctx).SetInt("regressions", len(resp.Regressions))
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// SystemsResponse is the GET /v1/systems body.
type SystemsResponse struct {
	Systems []string `json:"systems"`
}

func (s *Server) handleSystems(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	systems := s.store.Systems()
	if systems == nil {
		systems = []string{}
	}
	telemetry.Current(ctx).SetInt("systems", len(systems))
	writeJSON(w, http.StatusOK, SystemsResponse{Systems: systems})
	return nil
}
