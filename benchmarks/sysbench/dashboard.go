package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metricsdb"
	"repro/internal/resultsd"
	"repro/internal/resultstore"
)

// dashboardWorkload is dashboard_mixed: a preloaded single store that
// one writer keeps appending to while one reader walks the 128 series
// with Series and Regressions alternating and Systems every 20th GET.
type dashboardWorkload struct {
	cfg config
	rec *recorder
	g   gen

	svc      *service
	writer   *pushStream
	rotation []metricsdb.Filter
	gets     int
	expected int
	// static is a series only the preload wrote to: the writer never
	// reports from its system, so its answers cannot change.
	static metricsdb.Filter
}

func (w *dashboardWorkload) service() *service { return w.svc }

// preloadGroup is how many preload batches share one fsync.
const preloadGroup = 50

func (w *dashboardWorkload) setUp(ctx context.Context, dir string) error {
	storeDir := filepath.Join(dir, "results")
	// Preload through the store's own bulk path, then restart it, so
	// the measured phase runs over a recovered store (snapshot + WAL
	// tail), as a long-lived server's does. Only this throwaway handle
	// compacts once at the end instead of in the background: rewriting
	// the growing state after each of ~70 segments is a gigabyte of
	// disk traffic that says nothing about the program's start-up cost
	// and made setup_s swing by 40 % with the device's mood.
	store, err := resultstore.Open(storeDir, resultstore.Options{NoBackgroundCompact: true})
	if err != nil {
		return err
	}
	preload := w.g.pushStream("preload", fixedSize(preloadBatch), nil)
	batches := w.cfg.scaled(100000, preloadBatch) / preloadBatch
	w.expected = 0
	for done := 0; done < batches; {
		var group []resultstore.Batch
		for ; len(group) < preloadGroup && done < batches; done++ {
			op := preload.next()
			if done == 0 {
				w.static = metricsdb.Filter{System: op.Results[0].System, Benchmark: op.Results[0].Benchmark}
			}
			group = append(group, resultstore.Batch{Key: op.Key, Results: op.Results})
			w.expected += len(op.Results)
		}
		if _, err := store.AppendMany(ctx, group); err != nil {
			store.Close()
			return fmt.Errorf("preload: %w", err)
		}
	}
	if err := store.Compact(); err != nil {
		store.Close()
		return fmt.Errorf("compacting the preload: %w", err)
	}
	if err := store.Close(); err != nil {
		return fmt.Errorf("closing the preloaded store: %w", err)
	}
	backend, err := openBackend(storeDir, false)
	if err != nil {
		return err
	}
	w.svc = startService(storeDir, false, backend, w.rec)
	w.writer = w.g.pushStream("writer", fixedSize(dashboardBatch),
		func(system string) bool { return system != w.static.System })
	w.rotation = w.g.filterRotation()
	w.gets = 0
	warm := w.run(ctx, w.cfg.scaled(100, 5))
	w.expected += warm.results
	return warm.firstErr
}

func (w *dashboardWorkload) tearDown() error {
	if w.svc == nil {
		return nil
	}
	return w.svc.close()
}

// run has the writer push its next `pushes` batches while the reader
// issues GETs beside it until the writer is done: the writer's work is
// fixed, so the store ends at the same size every run, and the reader's
// throughput is what it achieved meanwhile.
func (w *dashboardWorkload) run(ctx context.Context, pushes int) *samples {
	wr, rd := newSamples(), newSamples()
	var writerDone atomic.Bool
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer writerDone.Store(true)
		for n := 0; n < pushes && wr.failed == 0; n++ {
			w.svc.push(ctx, wr, noSpan, w.writer.next())
		}
	}()
	go func() {
		defer wg.Done()
		for !writerDone.Load() && rd.failed == 0 {
			w.get(ctx, rd)
		}
	}()
	wg.Wait()
	wr.merge(rd)
	return wr
}

// get issues the reader's next GET.
func (w *dashboardWorkload) get(ctx context.Context, sm *samples) {
	i := w.gets
	w.gets++
	f := w.rotation[(i/2)%len(w.rotation)]
	switch {
	case i%20 == 19:
		w.svc.systems(ctx, sm)
	case i%2 == 0:
		w.svc.series(ctx, sm, f, fleetFOM)
	default:
		w.svc.regressions(ctx, sm, noSpan, f, fleetFOM)
	}
}

// dashboardPushesPerSecond sizes the mixed phase: 15 s is the issue's
// 3000 writer pushes.
const dashboardPushesPerSecond = 200

func (w *dashboardWorkload) measure(ctx context.Context) *samples {
	sm := w.run(ctx, w.cfg.opsFor(dashboardPushesPerSecond))
	w.expected += sm.results
	return sm
}

func (w *dashboardWorkload) probes(sm *samples) []probe { return fleetProbes(sm) }

func (w *dashboardWorkload) check(ctx context.Context, sm *samples) error {
	if got := w.svc.backend.Len(); got != w.expected {
		return fmt.Errorf("store holds %d results, %d were acked", got, w.expected)
	}
	// A series only the preload wrote is static: the server's regression
	// answer over HTTP must equal the detector run on the served series.
	f := w.static
	tmp := newSamples()
	pts := w.svc.series(ctx, tmp, f, fleetFOM)
	regs := w.svc.regressions(ctx, tmp, noSpan, f, fleetFOM)
	if tmp.firstErr != nil {
		return tmp.firstErr
	}
	series := make([]metricsdb.Point, len(pts))
	for i, p := range pts {
		series[i] = metricsdb.Point{Seq: p.Seq, Value: p.Value, TraceID: p.TraceID}
	}
	want := metricsdb.DetectInSeries(series, resultsd.DefaultWindow, resultsd.DefaultThreshold)
	if len(pts) <= resultsd.DefaultWindow {
		return fmt.Errorf("preload-only series %v has %d points", f, len(pts))
	}
	if len(want) != len(regs) {
		return fmt.Errorf("preload-only series %v: server flags %d regressions, DetectInSeries %d", f, len(regs), len(want))
	}
	for i, r := range regs {
		if r.Seq != want[i].Seq || r.Value != want[i].Value || r.Baseline != want[i].Baseline {
			return fmt.Errorf("preload-only series %v: regression %d is %+v, want %+v", f, i, r, want[i])
		}
	}
	return nil
}

func (w *dashboardWorkload) report(m metricSet, sm *samples, wall time.Duration, tv *traceView) int {
	series, regs := sm.lat[opSeries], sm.lat[opRegressions]
	gets := append(append(append([]float64(nil), series...), regs...), sm.lat[opSystems]...)
	m.putPercentiles(gets, []string{"cycle_p50_ms", "cycle_p90_ms"}, []float64{0.5, 0.9})
	m.putPercentiles(series, []string{"series_p50_ms", "series_p90_ms"}, []float64{0.5, 0.9})
	m.putPercentiles(regs, []string{"regressions_p50_ms", "regressions_p90_ms"}, []float64{0.5, 0.9})
	m.putPercentiles(sm.lat[opSystems], []string{"resultsd.systems_p50_ms"}, []float64{0.5})
	perS := float64(len(gets)) / wall.Seconds()
	m.put("work_per_s", perS)
	m.put("queries_per_s", perS)
	m.put("results_per_s", float64(sm.results)/wall.Seconds())
	pushes := sm.lat[opPush]
	count, excess := stalls(pushes, median(pushes))
	m.put("resultstore.stall_count", float64(count))
	m.put("resultstore.stall_ms_total", excess)
	if tv != nil {
		reportQueryLayers(m, tv)
		m.put("metricsdb.points_per_series", mean(sm.points))
	}
	return len(pushes) + len(gets)
}

// reportQueryLayers splits the GETs of a traced pass at the Backend
// boundary: scan time below it, HTTP + response encoding above.
func reportQueryLayers(m metricSet, tv *traceView) {
	scan, _ := tv.byName("backend.series")
	m.putPercentiles(scan, []string{"metricsdb.series_p50_ms"}, []float64{0.5})
	detect, _ := tv.byName("backend.detect")
	m.putPercentiles(detect, []string{"metricsdb.detect_p50_ms"}, []float64{0.5})
	_, self := tv.byName("resultsd." + opSeries)
	_, regSelf := tv.byName("resultsd." + opRegressions)
	m.putPercentiles(append(self, regSelf...), []string{"resultsd.query_self_p50_ms"}, []float64{0.5})
}
