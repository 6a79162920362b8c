package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/cachekey"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/metricsdb"
	"repro/internal/telemetry"
)

// loopWorkload is loop_cold and loop_warm: nightlies of the 11-session
// matrix, each session core.New → Setup → Run → bridge → Push →
// Regressions against one single-store server that lives for the whole
// workload, so history grows as in production.
type loopWorkload struct {
	cfg   config
	rec   *recorder
	order *nightlies
	warm  bool

	svc      *service
	cache    *cachekey.Store // loop_warm's primed shared store
	wsRoot   string
	nightly  int
	expected int // results the server must hold

	seen map[string]probe // (system, benchmark) → series pushed to

	// Measured-phase tallies. cacheStat sums engine.Report.Cache rows.
	nightlyS  []float64
	executed  int
	cacheStat map[string]engine.CacheStat
	execSecs  float64
	execWall  float64
	wsFiles   []float64
	wsBytes   []float64
}

func (w *loopWorkload) service() *service { return w.svc }

func (w *loopWorkload) setUp(ctx context.Context, dir string) error {
	w.seen = map[string]probe{}
	w.expected, w.nightly = 0, 0
	w.resetTallies()
	w.wsRoot = filepath.Join(dir, "workspaces")
	if err := os.Mkdir(w.wsRoot, 0o755); err != nil {
		return err
	}
	backend, err := openBackend(filepath.Join(dir, "results"), false)
	if err != nil {
		return err
	}
	w.svc = startService(filepath.Join(dir, "results"), false, backend, w.rec)
	w.cache = nil
	warmups := 1
	if w.warm {
		if w.cache, err = cachekey.Open(filepath.Join(dir, "cache")); err != nil {
			return err
		}
		warmups = w.cfg.scaled(5, 1)
		// The priming nightly is the cold one that fills the store.
		if err := w.runNightly(ctx, newSamples(), false); err != nil {
			return fmt.Errorf("priming: %w", err)
		}
	}
	for i := 0; i < warmups; i++ {
		if err := w.runNightly(ctx, newSamples(), w.warm); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (w *loopWorkload) tearDown() error {
	if w.svc == nil {
		return nil
	}
	return w.svc.close()
}

// resetTallies forgets what set-up and warm-up nightlies counted.
func (w *loopWorkload) resetTallies() {
	w.nightlyS, w.executed = nil, 0
	w.cacheStat = map[string]engine.CacheStat{}
	w.execSecs, w.execWall = 0, 0
}

// Nightlies per second of --seconds on the reference box.
const (
	coldNightliesPerSecond = 1.0
	warmNightliesPerSecond = 8.0
)

func (w *loopWorkload) measure(ctx context.Context) *samples {
	w.resetTallies()
	sm := newSamples()
	count := w.cfg.opsFor(coldNightliesPerSecond)
	if w.warm {
		count = w.cfg.opsFor(warmNightliesPerSecond)
	}
	for len(w.nightlyS) < count {
		t0 := time.Now()
		if err := w.runNightly(ctx, sm, w.warm); err != nil {
			sm.fail(err)
			break
		}
		w.nightlyS = append(w.nightlyS, time.Since(t0).Seconds())
		// Workspaces are written and removed without ever being synced;
		// left alone, their dirty pages and journal entries pile up and
		// slow file creation threefold within twenty seconds, then
		// drain, on a period of the kernel's choosing. Real nightlies
		// are hours apart, so none inherits the previous one's debt:
		// flush between them, outside every timed interval.
		syscall.Sync()
	}
	return sm
}

// runNightly runs the next shuffle of the matrix. wantHits says
// whether every experiment must replay from the run cache.
func (w *loopWorkload) runNightly(ctx context.Context, sm *samples, wantHits bool) error {
	w.nightly++
	root := w.rec.start("nightly", fmt.Sprintf("n%04d", w.nightly), noSpan)
	defer w.rec.end(root)
	for j, spec := range w.order.next() {
		op := fmt.Sprintf("sb%d-n%04d-s%02d", w.cfg.seed, w.nightly, j)
		t0 := time.Now()
		if err := w.runSession(ctx, sm, root, op, spec, wantHits); err != nil {
			return fmt.Errorf("%s %s@%s: %w", op, spec.Suite, spec.System, err)
		}
		sm.lat["session"] = append(sm.lat["session"], ms(time.Since(t0)))
	}
	return nil
}

func (w *loopWorkload) runSession(ctx context.Context, sm *samples, nightly int, op string, spec sessionSpec, wantHits bool) error {
	sm.attempted++
	rec := w.rec
	sid := rec.start("session", op, nightly)
	defer rec.end(sid)

	ws := filepath.Join(w.wsRoot, op)
	id := rec.start("core.new", op, sid)
	bp := core.New()
	bp.UseCache(w.cache)
	rec.end(id)
	id = rec.start("core.setup", op, sid)
	sess, err := bp.Setup(spec.Suite, spec.System, ws)
	rec.end(id)
	if err != nil {
		return err
	}

	rctx := ctx
	if rec != nil {
		// A wall-clock tracer makes Session.Run fill Report.Timings; one
		// per session, as `benchpark push --trace-out` has.
		rctx = telemetry.WithTracer(ctx, telemetry.New(nil))
	}
	id = rec.start("core.run", op, sid)
	runStart := time.Now()
	rep, erep, err := sess.Run(rctx, core.RunOptions{Jobs: runtime.NumCPU()})
	rec.end(id)
	if err != nil {
		return err
	}
	switch {
	case erep.Failed != 0 || erep.Executed != erep.Total:
		return fmt.Errorf("%d of %d experiments failed, %d executed", erep.Failed, erep.Total, erep.Executed)
	case wantHits && erep.CacheHits != erep.Total:
		return fmt.Errorf("warm run replayed %d of %d experiments", erep.CacheHits, erep.Total)
	case !wantHits && erep.CacheHits != 0:
		return fmt.Errorf("cold run replayed %d experiments", erep.CacheHits)
	}
	w.executed += erep.Executed
	at := runStart
	for _, t := range erep.Timings {
		d := time.Duration(t.WallSeconds * float64(time.Second))
		rec.add("engine.stage."+t.Stage.String(), op, id, at, d)
		at = at.Add(d)
		if t.Stage == engine.StageExecute {
			w.execSecs += t.Seconds
			w.execWall += t.WallSeconds
		}
	}
	for _, cs := range erep.Cache {
		sum := w.cacheStat[cs.Layer]
		sum.Hits += cs.Hits
		sum.Misses += cs.Misses
		sum.Bytes += cs.Bytes
		w.cacheStat[cs.Layer] = sum
	}

	id = rec.start("metricsdb.bridge", op, sid)
	results := metricsdb.ResultsFromReport(erep, sess.Manifests(rep))
	rec.end(id)
	if len(results) == 0 {
		return fmt.Errorf("no publishable results")
	}

	failed := sm.failed
	w.svc.push(ctx, sm, sid, pushOp{Key: op, Results: results})
	if sm.failed == failed {
		w.expected += len(results)
	}
	target := probeFor(results[0])
	w.seen[queryKey("", target.filter)] = target
	w.svc.regressions(ctx, sm, sid, target.filter, target.fom)
	if sm.failed != failed {
		return sm.firstErr
	}

	if rec != nil && len(w.nightlyS) == 0 && len(w.wsFiles) < len(nightlyMatrix) {
		// Walk workspaces before the measured phase only: the walk is
		// harness work and a warm-up workspace has the same contents.
		files, size, err := dirUsage(ws)
		if err != nil {
			return err
		}
		w.wsFiles = append(w.wsFiles, float64(files))
		w.wsBytes = append(w.wsBytes, float64(size))
	}
	// `benchpark push` removes its scratch workspace too; users pay it.
	id = rec.start("workspace.remove", op, sid)
	err = os.RemoveAll(ws)
	rec.end(id)
	return err
}

// probeFor picks the series a session's regression question is about:
// the pushed (system, benchmark) and its alphabetically first FOM.
func probeFor(r metricsdb.Result) probe {
	foms := make([]string, 0, len(r.FOMs))
	for k := range r.FOMs {
		foms = append(foms, k)
	}
	sort.Strings(foms)
	fom := ""
	if len(foms) > 0 {
		fom = foms[0]
	}
	return probe{filter: metricsdb.Filter{System: r.System, Benchmark: r.Benchmark}, fom: fom}
}

func (w *loopWorkload) probes(*samples) []probe {
	keys := make([]string, 0, len(w.seen))
	for k := range w.seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []probe
	for _, k := range keys {
		if len(out) < 3 {
			out = append(out, w.seen[k])
		}
	}
	return out
}

func (w *loopWorkload) check(ctx context.Context, sm *samples) error {
	if got := w.svc.backend.Len(); got != w.expected {
		return fmt.Errorf("server holds %d results, %d were acked", got, w.expected)
	}
	return nil
}

func (w *loopWorkload) report(m metricSet, sm *samples, wall time.Duration, tv *traceView) int {
	sessions := sm.lat["session"]
	m.putPercentiles(sessions, []string{"cycle_p50_ms", "cycle_p90_ms"}, []float64{0.5, 0.9})
	m.putPercentiles(w.nightlyS, []string{"nightly_p50_s", "nightly_p90_s"}, []float64{0.5, 0.9})
	// Busy time, not wall time: the flush between nightlies is not
	// part of the loop.
	perS := float64(w.executed) / sum(w.nightlyS)
	m.put("work_per_s", perS)
	m.put("experiments_per_s", perS)
	m.putPercentiles(sm.lat[opRegressions], []string{"regressions_p50_ms"}, []float64{0.5})
	if tv != nil {
		w.reportLayers(m, sm, tv)
	}
	return len(sessions)
}

// reportLayers derives the loop's per-layer numbers from the spans:
// per nightly, the time under each layer boundary; the metric is the
// median over nightlies.
func (w *loopWorkload) reportLayers(m metricSet, sm *samples, tv *traceView) {
	perNightly := map[string][]float64{}
	for _, root := range tv.kids[noSpan] {
		if tv.spans[root].Name != "nightly" {
			continue
		}
		lt := tv.under(root)
		for name, d := range lt.total {
			perNightly[name] = append(perNightly[name], ms(d))
		}
		perNightly["engine.self"] = append(perNightly["engine.self"], ms(lt.self["core.run"]))
		// What neither the nightly nor its sessions can pin on a layer.
		perNightly["loop.unattributed"] = append(perNightly["loop.unattributed"], ms(lt.self["nightly"]+lt.self["session"]))
	}
	n := len(perNightly["nightly"])
	for _, name := range []string{
		"core.new", "core.setup", "core.run", "metricsdb.bridge", "workspace.remove",
		"engine.stage.setup", "engine.stage.install", "engine.stage.execute", "engine.stage.commit", "engine.stage.analyze",
		"engine.self", "loop.unattributed",
	} {
		m.putN(name+"_ms", median(perNightly[name]), n)
	}
	m.putN("loop.push_ms", median(perNightly["resultsd."+opPush]), n)
	m.putN("loop.regressions_ms", median(perNightly["resultsd."+opRegressions]), n)
	if med := median(perNightly["nightly"]); med > 0 {
		m.put("loop.unattributed_ratio", median(perNightly["loop.unattributed"])/med)
	}
	if w.execWall > 0 {
		m.put("engine.execute_parallelism", w.execSecs/w.execWall)
	}
	ratio := func(metric, layer string) {
		if cs := w.cacheStat[layer]; cs.Hits+cs.Misses > 0 {
			m.put(metric, float64(cs.Hits)/float64(cs.Hits+cs.Misses))
		}
	}
	ratio("engine.cache_hit_ratio", "run")
	ratio("concretizer.memo_hit_ratio", "concretize")
	ratio("buildcache.hit_ratio", "buildcache")
	if sessions := len(sm.lat["session"]); sessions > 0 {
		var bytes int64
		for _, cs := range w.cacheStat {
			bytes += cs.Bytes
		}
		m.put("cachekey.bytes_per_session", float64(bytes)/float64(sessions))
	}
	m.put("core.workspace_files_per_session", mean(w.wsFiles))
	m.put("core.workspace_bytes_per_session", mean(w.wsBytes))
	reportQueryLayers(m, tv)
}
