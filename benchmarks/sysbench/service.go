package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"time"

	"repro/internal/metricsdb"
	"repro/internal/resultsd"
	"repro/internal/resultshard"
	"repro/internal/resultstore"
	"repro/internal/telemetry"
)

// defaultShards is `benchpark serve --shards 4`, the sharded topology
// the repo's own federation numbers use.
const defaultShards = 4

// durableBackend is what both writers offer beyond resultsd.Backend.
type durableBackend interface {
	resultsd.Backend
	Close() error
}

// openBackend opens the storage exactly as `benchpark serve` does with
// default flags: default segment size, background compaction on, wall
// clock, real fsync.
func openBackend(dir string, sharded bool) (durableBackend, error) {
	if sharded {
		return resultshard.Open(dir, resultshard.Options{Shards: defaultShards})
	}
	return resultstore.Open(dir, resultstore.Options{})
}

// service is the in-process results service under test: a backend, the
// resultsd HTTP server over loopback, and a real client.
type service struct {
	dir     string
	sharded bool
	backend durableBackend
	rec     *recorder // nil in the untraced pass
	srv     *httptest.Server
	client  *resultsd.Client
	closed  bool
}

// startService serves an already opened backend. rec non-nil wraps the
// backend in the timing decorator, which splits store/router/scan time
// from HTTP + codec time.
func startService(dir string, sharded bool, backend durableBackend, rec *recorder) *service {
	s := &service{dir: dir, sharded: sharded, backend: backend, rec: rec}
	var served resultsd.Backend = backend
	if rec != nil {
		served = &timedBackend{Backend: backend, rec: rec}
	}
	// The server gets its own wall-clock tracer, as serveCmd gives it.
	s.srv = httptest.NewServer(resultsd.New(served, telemetry.New(nil)).Handler())
	s.client = resultsd.NewClient(s.srv.URL)
	s.client.HTTPClient = s.srv.Client()
	// A refused or failed push must count as failed, not be retried
	// into a success with a latency nobody asked for.
	s.client.MaxRetries = 0
	return s
}

// close stops the server and closes the backend; a second call is a
// no-op.
func (s *service) close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	s.srv.Client().CloseIdleConnections()
	s.srv.Close()
	return s.backend.Close()
}

// timedBackend records a span around each backend call the HTTP
// handlers make, filed under the client span of the same op (ingest
// keys are unique; one reader issues the queries), so a client span's
// self time is its HTTP + codec share.
type timedBackend struct {
	resultsd.Backend
	rec *recorder
}

func (t *timedBackend) note(name, key string, start time.Time) {
	t.rec.addUnderOp(name, key, start, time.Since(start))
}

func (t *timedBackend) Append(ctx context.Context, b resultstore.Batch) (bool, error) {
	defer t.note("backend.append", b.Key, time.Now())
	return t.Backend.Append(ctx, b)
}

func queryKey(kind string, f metricsdb.Filter) string {
	return kind + "|" + f.System + "|" + f.Benchmark
}

func (t *timedBackend) Series(f metricsdb.Filter, fom string) []metricsdb.Point {
	defer t.note("backend.series", queryKey("series", f), time.Now())
	return t.Backend.Series(f, fom)
}

func (t *timedBackend) DetectRegressions(f metricsdb.Filter, fom string, window int, threshold float64) []metricsdb.Regression {
	defer t.note("backend.detect", queryKey("regressions", f), time.Now())
	return t.Backend.DetectRegressions(f, fom, window, threshold)
}

// samples is one client goroutine's record of what it did in the
// measured phase. Each goroutine owns one; they are merged afterwards.
type samples struct {
	lat       map[string][]float64 // client-observed latency in ms by op kind
	points    []float64            // points per Series answer
	attempted int
	failed    int
	firstErr  error
	results   int // results durably acked
	replay    []pushOp
	requests  []pushOp // first pushes of each kind, for the codec probe
}

func newSamples() *samples {
	return &samples{lat: map[string][]float64{}}
}

func (s *samples) fail(err error) {
	s.failed++
	if s.firstErr == nil {
		s.firstErr = err
	}
}

func (s *samples) merge(o *samples) {
	for k, v := range o.lat {
		s.lat[k] = append(s.lat[k], v...)
	}
	s.points = append(s.points, o.points...)
	s.attempted += o.attempted
	s.failed += o.failed
	if s.firstErr == nil {
		s.firstErr = o.firstErr
	}
	s.results += o.results
	s.replay = append(s.replay, o.replay...)
	s.requests = append(s.requests, o.requests...)
}

// Op kinds.
const (
	opPush        = "push"      // ≤15 results
	opBulkPush    = "bulk_push" // 100 results
	opSeries      = "series"
	opRegressions = "regressions"
	opSystems     = "systems"
)

// codecSample is how many of a client's first requests of each kind
// are kept for the offline codec probe.
const codecSample = 32

// replayEvery keeps one push in 100 for the duplicate-replay check.
const replayEvery = 100

// push sends one batch and records its client-observed latency (send →
// durable ack). parent is the caller's span, noSpan for a root op.
func (s *service) push(ctx context.Context, sm *samples, parent int, op pushOp) {
	kind := opPush
	if len(op.Results) > 15 {
		kind = opBulkPush
	}
	sm.attempted++
	id := s.rec.start("resultsd."+kind, op.Key, parent)
	t0 := time.Now()
	resp, err := s.client.Push(ctx, op.Key, op.Results)
	d := time.Since(t0)
	s.rec.end(id)
	switch {
	case err != nil:
		sm.fail(fmt.Errorf("push %s: %w", op.Key, err))
		return
	case resp.Duplicate || resp.Accepted != len(op.Results):
		sm.fail(fmt.Errorf("push %s: accepted %d of %d (duplicate=%v)", op.Key, resp.Accepted, len(op.Results), resp.Duplicate))
		return
	}
	sm.lat[kind] = append(sm.lat[kind], ms(d))
	sm.results += len(op.Results)
	if n := len(sm.lat[kind]); n%replayEvery == 1 {
		sm.replay = append(sm.replay, op)
	}
	if s.rec != nil && len(sm.lat[kind]) <= codecSample {
		sm.requests = append(sm.requests, op)
	}
}

// regressions runs one server-side regression scan with the server's
// default window and threshold (4, 1.2).
func (s *service) regressions(ctx context.Context, sm *samples, parent int, f metricsdb.Filter, fom string) []resultsd.RegressionRecord {
	sm.attempted++
	key := queryKey(opRegressions, f)
	id := s.rec.start("resultsd.regressions", key, parent)
	t0 := time.Now()
	regs, err := s.client.Regressions(ctx, f, fom, resultsd.DefaultWindow, resultsd.DefaultThreshold)
	d := time.Since(t0)
	s.rec.end(id)
	if err != nil {
		sm.fail(fmt.Errorf("regressions %v: %w", f, err))
		return nil
	}
	sm.lat[opRegressions] = append(sm.lat[opRegressions], ms(d))
	return regs
}

// series fetches one FOM series and checks it is strictly increasing
// in Seq.
func (s *service) series(ctx context.Context, sm *samples, f metricsdb.Filter, fom string) []resultsd.SeriesPoint {
	sm.attempted++
	key := queryKey(opSeries, f)
	id := s.rec.start("resultsd.series", key, noSpan)
	t0 := time.Now()
	pts, err := s.client.Series(ctx, f, fom)
	d := time.Since(t0)
	s.rec.end(id)
	if err != nil {
		sm.fail(fmt.Errorf("series %v: %w", f, err))
		return nil
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Seq <= pts[i-1].Seq {
			sm.fail(fmt.Errorf("series %v: seq %d after %d", f, pts[i].Seq, pts[i-1].Seq))
			return nil
		}
	}
	sm.points = append(sm.points, float64(len(pts)))
	sm.lat[opSeries] = append(sm.lat[opSeries], ms(d))
	return pts
}

func (s *service) systems(ctx context.Context, sm *samples) {
	sm.attempted++
	id := s.rec.start("resultsd.systems", opSystems, noSpan)
	t0 := time.Now()
	got, err := s.client.Systems(ctx)
	d := time.Since(t0)
	s.rec.end(id)
	if err != nil || len(got) == 0 {
		sm.fail(fmt.Errorf("systems: %d names, err %v", len(got), err))
		return
	}
	sm.lat[opSystems] = append(sm.lat[opSystems], ms(d))
}
