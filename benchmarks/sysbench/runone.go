package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/metricsdb"
	"repro/internal/resultsd"
)

// config is one `sysbench run-one` invocation.
type config struct {
	workload string
	seed     int64
	// seconds sizes the measured phase: each workload runs the fixed
	// amount of work that takes about this long on the reference box.
	seconds float64
	traced  bool
	dataDir string // parent of the fresh per-run directory
	outDir  string // where trace and full metrics go; "" writes neither
	// scale multiplies the set-up sizes (preload, warm-up, probe
	// counts). 1 is the benchmark; the smoke test runs at 0.01.
	scale float64
	// setups is how many times set-up runs; setup_s is their median and
	// the last one is measured.
	setups int
}

// scaled applies cfg.scale to a full-size count, never below min.
func (c config) scaled(n, min int) int {
	v := int(float64(n)*c.scale + 0.5)
	if v < min {
		v = min
	}
	return v
}

// clients is the closed loop's width: at most nproc (2 on the reference
// box) goroutines, each with its own connection.
func clients() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// opsFor sizes a measured phase: perSecond × --seconds ops, at least 1.
// The work is fixed rather than the time because every workload's cost
// grows with the data it has already stored (compaction rewrites the
// whole state, queries scan all of it): two runs that merely stop at
// the same time have measured different stores.
func (c config) opsFor(perSecond float64) int {
	n := int(perSecond*c.seconds + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// workload is one of the five traffic mixes. setUp builds everything in
// dir up to and including warm-up ops; measure runs the closed loop
// over the work --seconds asks for; report turns samples into the
// workload's own metrics.
type workload interface {
	setUp(ctx context.Context, dir string) error
	// tearDown releases what setUp built; the caller removes dir.
	tearDown() error
	measure(ctx context.Context) *samples
	// report adds the workload's metrics; tv is the measured phase's
	// spans, nil in the untraced pass. ops is what cpu_ms_per_op and
	// alloc_mb_per_kop divide by.
	report(m metricSet, sm *samples, wall time.Duration, tv *traceView) (ops int)
	// check runs the workload's own correctness checks on the live
	// service, after the measured phase.
	check(ctx context.Context, sm *samples) error
	// service is the results service the common checks reopen.
	service() *service
	// probes are three series whose answers must survive a restart.
	probes(sm *samples) []probe
}

// probe names one FOM series.
type probe struct {
	filter metricsdb.Filter
	fom    string
}

// fleetProbes picks up to three distinct (system, benchmark) series of
// the generated fleet that the measured phase pushed to.
func fleetProbes(sm *samples) []probe {
	var out []probe
	seen := map[metricsdb.Filter]bool{}
	for _, op := range sm.replay {
		for _, r := range op.Results {
			f := metricsdb.Filter{System: r.System, Benchmark: r.Benchmark}
			if !seen[f] && len(out) < 3 {
				seen[f] = true
				out = append(out, probe{filter: f, fom: fleetFOM})
			}
		}
	}
	return out
}

func newWorkload(cfg config, rec *recorder) (workload, error) {
	g := gen{seed: cfg.seed}
	switch cfg.workload {
	case "loop_cold":
		return &loopWorkload{cfg: cfg, rec: rec, order: g.nightlies()}, nil
	case "loop_warm":
		return &loopWorkload{cfg: cfg, rec: rec, order: g.nightlies(), warm: true}, nil
	case "ingest_single":
		return &ingestWorkload{cfg: cfg, rec: rec, g: g}, nil
	case "ingest_sharded":
		return &ingestWorkload{cfg: cfg, rec: rec, g: g, sharded: true}, nil
	case "dashboard_mixed":
		return &dashboardWorkload{cfg: cfg, rec: rec, g: g}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.workload)
}

// outcome is everything one pass of one workload produced.
type outcome struct {
	Workload  string    `json:"workload"`
	Seed      int64     `json:"seed"`
	Traced    bool      `json:"traced"`
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Error     string    `json:"error,omitempty"`
	Metrics   metricSet `json:"metrics"`
}

func outcomePath(dir, workload string, traced bool) string {
	pass := "untraced"
	if traced {
		pass = "traced"
	}
	return filepath.Join(dir, fmt.Sprintf("metrics-%s-%s.json", workload, pass))
}

// runOne runs one pass of one workload in a fresh directory under
// cfg.dataDir and removes it afterwards. The returned error is a
// harness failure (nothing measured); a failed correctness check comes
// back as an outcome with Correct false.
func runOne(ctx context.Context, cfg config) (*outcome, error) {
	var rec *recorder
	if cfg.traced {
		rec = newRecorder()
	}
	w, err := newWorkload(cfg, rec)
	if err != nil {
		return nil, err
	}
	defer w.tearDown() //nolint:errcheck // idempotent; the checks close the service on the success path
	if err := os.MkdirAll(cfg.dataDir, 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(cfg.dataDir, "sysbench-"+cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	if onTmpfs(root) {
		fmt.Fprintf(os.Stderr, "sysbench: warning: %s is on tmpfs: fsync costs nothing there, so push latencies are not comparable with a run on disk\n", cfg.dataDir)
	}

	m := metricSet{}
	if cfg.traced {
		p50, err := fsyncProbe(root, cfg.scaled(200, 20))
		if err != nil {
			return nil, fmt.Errorf("fsync probe: %w", err)
		}
		m.put("disk.fsync_p50_ms", p50)
	}

	// Set up several times and keep the last: one set-up is a single
	// sample of a time dominated by a few fsyncs or one cold nightly.
	var setupS []float64
	var dir string
	for i := 0; i < cfg.setups; i++ {
		dir = filepath.Join(root, fmt.Sprintf("setup-%d", i))
		if err := os.Mkdir(dir, 0o755); err != nil {
			return nil, err
		}
		quiesce()
		t0 := time.Now()
		if err := w.setUp(ctx, dir); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if i < cfg.setups-1 {
			if err := w.tearDown(); err != nil {
				return nil, fmt.Errorf("tear-down: %w", err)
			}
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
	}
	m.put("setup_s", median(setupS))

	quiesce()
	rec.reset()
	before, err := sampleProc()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	sm := w.measure(ctx)
	wall := time.Since(t0)
	after, err := sampleProc()
	if err != nil {
		return nil, err
	}
	m.put("live_heap_mb", liveHeapMB())
	tv := rec.view()

	ops := w.report(m, sm, wall, tv)
	if ops > 0 {
		m.put("cpu_ms_per_op", ms(after.cpu-before.cpu)/float64(ops))
		m.put("alloc_mb_per_kop", float64(after.alloc-before.alloc)/(1<<20)/float64(ops)*1000)
	}
	m.put("proc.gc_pause_ms_total", ms(after.gcPause-before.gcPause))
	if sm.results > 0 {
		m.put("write_bytes_per_result", float64(after.writeBytes-before.writeBytes)/float64(sm.results))
	}
	if sm.attempted > 0 {
		m.put("failed_ratio", float64(sm.failed)/float64(sm.attempted))
	}
	writeBytes := float64(after.writeBytes - before.writeBytes)
	if _, loop := w.(*loopWorkload); loop {
		// A loop's process also writes workspaces and cache entries, so
		// its block-layer bytes say nothing about the store's own
		// write amplification.
		writeBytes = 0
	}
	reportPushLayers(m, w.service().sharded, sm, tv, writeBytes)

	out := &outcome{
		Workload: cfg.workload, Seed: cfg.seed, Traced: cfg.traced,
		Attempted: sm.attempted, Failed: sm.failed, Metrics: m,
	}
	// Checks run on the live service first, then across a restart;
	// the first failure is reported and makes the pass incorrect.
	cerr := sm.firstErr
	if err := w.check(ctx, sm); err != nil && cerr == nil {
		cerr = err
	}
	if err := checkDurable(ctx, w, sm, m); err != nil && cerr == nil {
		cerr = err
	}
	if cerr != nil {
		out.Error = cerr.Error()
	}
	out.Correct = cerr == nil && sm.failed == 0

	if cfg.outDir != "" {
		if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
			return nil, err
		}
		if tv != nil {
			if err := writeTrace(filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json"), cfg.workload, tv.spans); err != nil {
				return nil, err
			}
		}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(outcomePath(cfg.outDir, cfg.workload, cfg.traced), data, 0o644); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// reportPushLayers adds the metrics every workload has because every
// workload pushes: client-observed small-push latency, and in the
// traced pass the split of that latency at the Backend boundary, the
// codec probe and the write amplification.
func reportPushLayers(m metricSet, sharded bool, sm *samples, tv *traceView, writeBytes float64) {
	push := sm.lat[opPush]
	m.putPercentiles(push, []string{"push_p50_ms", "push_p90_ms", "resultsd.push_p99_ms"}, []float64{0.5, 0.9, 0.99})
	if tv == nil {
		return
	}
	_, pushSelf := tv.byName("resultsd." + opPush)
	m.putPercentiles(pushSelf, []string{"resultsd.push_self_p50_ms"}, []float64{0.5})
	appends, _ := tv.byName("backend.append")
	m.putPercentiles(appends, []string{"backend.append_p50_ms", "backend.append_p90_ms"}, []float64{0.5, 0.9})
	layer := "resultstore"
	if sharded {
		layer = "resultshard"
	}
	m.putPercentiles(appends, []string{layer + ".append_p50_ms", layer + ".append_p99_ms"}, []float64{0.5, 0.99})

	var userBytes float64
	small, bulk := codecProbe(sm.requests, false), codecProbe(sm.requests, true)
	if small.requests > 0 {
		m.put("resultsd.codec.encode_us", small.encodeUS)
		m.put("resultsd.codec.decode_us", small.decodeUS)
		m.put("resultsd.wire_bytes_per_result", small.bytesPerResult)
		userBytes += small.bytesPerResult * small.meanResults * float64(len(push))
	}
	if bulk.requests > 0 {
		m.put("resultsd.codec.bulk_encode_us", bulk.encodeUS)
		m.put("resultsd.codec.bulk_decode_us", bulk.decodeUS)
		m.put("resultsd.bulk_wire_bytes_per_result", bulk.bytesPerResult)
		userBytes += bulk.bytesPerResult * bulk.meanResults * float64(len(sm.lat[opBulkPush]))
	}
	if userBytes > 0 && writeBytes > 0 {
		m.put("resultstore.write_amp", writeBytes/userBytes)
	}
}

// codecStats is the offline cost of the wire codec on a workload's own
// requests.
type codecStats struct {
	requests       int
	encodeUS       float64 // median json.Marshal of one IngestRequest
	decodeUS       float64 // median json.Unmarshal of the same bytes
	bytesPerResult float64 // uncompressed JSON bytes per result
	meanResults    float64
}

// codecProbe marshals and unmarshals the sampled requests of one size
// class outside the measured phase, several rounds each.
func codecProbe(reqs []pushOp, bulk bool) codecStats {
	const rounds = 5
	var st codecStats
	var enc, dec []float64
	var bytes, results int
	for _, op := range reqs {
		if (len(op.Results) > 15) != bulk {
			continue
		}
		req := resultsd.IngestRequest{IngestKey: op.Key, Results: op.Results}
		var data []byte
		for r := 0; r < rounds; r++ {
			t0 := time.Now()
			data, _ = json.Marshal(req) // a request the client already sent encodes
			enc = append(enc, float64(time.Since(t0))/float64(time.Microsecond))
			var back resultsd.IngestRequest
			t1 := time.Now()
			_ = json.Unmarshal(data, &back) // and decodes
			dec = append(dec, float64(time.Since(t1))/float64(time.Microsecond))
		}
		st.requests++
		bytes += len(data)
		results += len(op.Results)
	}
	if st.requests == 0 {
		return st
	}
	st.encodeUS, st.decodeUS = median(enc), median(dec)
	st.bytesPerResult = float64(bytes) / float64(results)
	st.meanResults = float64(results) / float64(st.requests)
	return st
}

// checkDurable is the acked ⇒ durable check every workload ends with:
// the store holds exactly what was acked, replayed keys answer
// duplicate, and after Close + re-Open the length and three series are
// identical. It also measures recovery time and bytes on disk, and
// leaves the service closed.
func checkDurable(ctx context.Context, w workload, sm *samples, m metricSet) error {
	svc := w.service()
	defer svc.close() //nolint:errcheck // a no-op once the explicit close below has run
	want := svc.backend.Len()
	for _, op := range sm.replay {
		resp, err := svc.client.Push(ctx, op.Key, op.Results)
		if err != nil {
			return fmt.Errorf("replaying %s: %w", op.Key, err)
		}
		if !resp.Duplicate {
			return fmt.Errorf("replaying %s: server applied it a second time", op.Key)
		}
	}
	if got := svc.backend.Len(); got != want {
		return fmt.Errorf("replay changed the store: %d results, was %d", got, want)
	}
	probes := w.probes(sm)
	if len(probes) == 0 {
		return fmt.Errorf("no series to probe across the restart")
	}
	before := make([][]byte, len(probes))
	for i, p := range probes {
		pts := svc.backend.Series(p.filter, p.fom)
		if len(pts) == 0 {
			return fmt.Errorf("probe series %v %s is empty", p.filter, p.fom)
		}
		before[i], _ = json.Marshal(pts)
	}
	if err := svc.close(); err != nil {
		return fmt.Errorf("closing the store: %w", err)
	}
	t0 := time.Now()
	reopened, err := openBackend(svc.dir, svc.sharded)
	if err != nil {
		return fmt.Errorf("reopening the store: %w", err)
	}
	m.put("resultstore.recover_ms", ms(time.Since(t0)))
	defer reopened.Close()
	if got := reopened.Len(); got != want {
		return fmt.Errorf("restart lost results: %d, acked %d", got, want)
	}
	for i, p := range probes {
		after, _ := json.Marshal(reopened.Series(p.filter, p.fom))
		if string(after) != string(before[i]) {
			return fmt.Errorf("series %v %s differs after restart", p.filter, p.fom)
		}
	}
	if err := reopened.Close(); err != nil {
		return fmt.Errorf("closing the reopened store: %w", err)
	}
	_, size, err := dirUsage(svc.dir)
	if err != nil {
		return err
	}
	m.put("disk_bytes_per_result", float64(size)/float64(want))
	return nil
}
