// Package engine is the concurrent, cancellable experiment-execution
// engine behind the Benchpark orchestration path. A continuous
// benchmarking deployment runs benchmark × system × scale matrices
// (Figure 1c, Figure 10) repeatedly and unattended; the engine gives
// that matrix the properties a production orchestrator needs:
//
//   - Staged execution: a Runner exposes the four lifecycle stages
//     (setup → install → execute → analyze). Setup, install and
//     analyze run once per matrix; execute runs once per experiment.
//   - Bounded concurrency: independent experiments execute on a
//     worker pool of Options.Jobs goroutines.
//   - Deterministic results: concurrent completions are merged back
//     in experiment index order (a sorted merge), and all shared
//     side effects happen in the sequential Commit stage, so a run
//     with Jobs=N is byte-identical to Jobs=1.
//   - Cancellation: a context cancels between stages, between
//     experiment dispatches, and inside cooperating stage code.
//   - Partial failure: one failed experiment no longer aborts the
//     matrix; failures surface as typed *StageError values in the
//     Report.
//
// Wall-clock audit: the only real-time value that reaches the engine
// is the deadline of the caller's context — it can cancel a run but
// never feeds committed results. Nothing in the commit path reads
// time.Now or draws from the global math/rand generator;
// cmd/benchlint's determinism analyzer enforces this, and core's
// TestRunRepeatableByteIdentical pins the observable consequence
// (re-running a matrix is byte-identical).
//
// Observability: when the context carries a telemetry.Tracer, Run
// opens a span per stage and per experiment (execute and commit),
// observes stage latencies and queue waits into histograms, tracks
// in-flight jobs in a gauge, and summarizes stage time in
// Report.Timings. All timing flows through the tracer's injected
// clock — the engine itself still never reads real time, so the
// determinism guarantee survives with telemetry enabled.
package engine

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/cachekey"
	"repro/internal/telemetry"
)

// Stage identifies one phase of the experiment lifecycle.
type Stage int

const (
	// StageSetup generates the workspace and experiment matrix.
	StageSetup Stage = iota
	// StageInstall resolves and installs the software environments.
	StageInstall
	// StageExecute runs one experiment's payload (concurrent).
	StageExecute
	// StageCommit records one experiment's results (sequential).
	StageCommit
	// StageAnalyze extracts figures of merit over the whole matrix.
	StageAnalyze
)

func (s Stage) String() string {
	switch s {
	case StageSetup:
		return "setup"
	case StageInstall:
		return "install"
	case StageExecute:
		return "execute"
	case StageCommit:
		return "commit"
	case StageAnalyze:
		return "analyze"
	}
	return "unknown"
}

// StageError is the typed error the engine wraps every failure in:
// which stage failed, for which experiment (empty for matrix-level
// stages), on which system/matrix.
type StageError struct {
	Stage      Stage
	Experiment string // empty for setup/install/analyze failures
	System     string // the Runner's label (suite@system)
	Err        error
}

func (e *StageError) Error() string {
	if e.Experiment == "" {
		return fmt.Sprintf("engine: %s stage failed (%s): %v", e.Stage, e.System, e.Err)
	}
	return fmt.Sprintf("engine: %s stage failed for experiment %s (%s): %v",
		e.Stage, e.Experiment, e.System, e.Err)
}

func (e *StageError) Unwrap() error { return e.Err }

// Runner is the contract a matrix driver implements so the engine can
// run it. Execute is called concurrently from the worker pool and
// must only touch per-experiment state; every shared side effect
// (schedulers, metric stores, profile ensembles, files) belongs in
// Commit, which the engine calls sequentially in experiment index
// order — regardless of completion order — so results are
// deterministic. Commit is invoked for every experiment whose Execute
// ran, including ones that returned an error, letting the runner
// record the partial failure.
type Runner interface {
	// Label names the matrix for error reporting (e.g. "saxpy/openmp@cts1").
	Label() string
	Setup(ctx context.Context) error
	Install(ctx context.Context) error
	// Experiments returns the experiment names; the slice defines the
	// matrix order used for dispatch and for the Commit merge.
	Experiments() []string
	Execute(ctx context.Context, i int) error
	Commit(ctx context.Context, i int) error
	Analyze(ctx context.Context) error
}

// Options configures one engine run.
type Options struct {
	// Jobs bounds the worker pool; <=0 means runtime.NumCPU().
	Jobs int
	// Cache, when set and the Runner implements CacheableRunner,
	// replays previously executed experiments instead of dispatching
	// them (the incremental pipeline's "run" layer).
	Cache ExperimentCache
}

// Report is the engine's account of one matrix run. It is always
// returned, even on cancellation or a fatal stage error, so callers
// see exactly how far the matrix got.
type Report struct {
	Label string
	// TraceID is the distributed-trace identity of this run (from the
	// context's telemetry.Tracer; empty when the run is untraced). It
	// travels with the published results into the federation layer so
	// stored points name the run that produced them.
	TraceID  string
	Jobs     int // resolved worker-pool size
	Total    int // experiments in the matrix
	Executed int // experiments that reached the execute stage (run or replayed)
	Failed   int // executed experiments whose Execute returned an error
	// CacheHits counts the experiments replayed from Options.Cache
	// instead of executed; Executed includes them, so a fully warm run
	// reports Executed == Total with CacheHits == Total and zero real
	// executions.
	CacheHits int
	// Cancelled is set when the context expired before the matrix
	// completed; unexecuted experiments carry a StageError wrapping
	// the context's error.
	Cancelled bool
	// Errors holds one typed error per failed or skipped experiment,
	// in experiment index order.
	Errors []*StageError
	// Err is the terminal error for fatal failures (setup, install,
	// commit, analyze, or cancellation); nil when the run finished,
	// even with partial experiment failures.
	Err *StageError
	// Timings summarizes where the run's time went, one entry per
	// stage that ran, in stage order. Span counts are always
	// populated; the seconds columns are nonzero only when the run's
	// context carried a telemetry.Tracer with a non-fixed clock.
	Timings []StageTiming
	// Results holds the per-experiment outcomes the Runner chose to
	// publish (see ResultReporter); nil when the Runner does not
	// report results or the analyze stage did not complete. This is
	// the bridge a federation layer (metricsdb.ResultsFromReport,
	// internal/resultsd) converts into durable metric records.
	Results []ExperimentResult
	// Cache holds per-layer cache-traffic accounts for the run: the
	// engine appends the "run" layer when Options.Cache is active, and
	// callers (internal/core) append upstream layers (concretize,
	// buildcache). TimingSummary renders the table.
	Cache []CacheStat
}

// ExperimentResult is one experiment's published outcome: the
// identity coordinates of the metrics database plus the raw figures
// of merit the analyze stage extracted. FOM values stay strings here
// (exactly as the workload reported them); the metricsdb bridge
// parses the numeric ones.
type ExperimentResult struct {
	Experiment string
	Benchmark  string
	Workload   string
	System     string
	FOMs       map[string]string
	Meta       map[string]string
}

// ResultReporter is an optional Runner extension. When a Runner
// implements it, Run calls Results exactly once, after a successful
// Analyze stage, and attaches the slice to Report.Results. The engine
// never calls it on a run whose analysis did not complete, so the
// published results always reflect a fully analyzed matrix.
type ResultReporter interface {
	Results() []ExperimentResult
}

// StageTiming aggregates the telemetry spans of one lifecycle stage.
type StageTiming struct {
	Stage Stage
	// Count is the number of spans the stage recorded: 1 for the
	// matrix-level stages, one per executed experiment for the
	// execute and commit stages.
	Count int
	// Seconds sums the inclusive span durations; MaxSeconds is the
	// slowest single span.
	Seconds    float64
	MaxSeconds float64
	// WallSeconds is the stage's elapsed wall time: for the execute
	// stage it is the phase duration (less than Seconds when the
	// worker pool overlapped experiments), for sequential stages it
	// equals Seconds.
	WallSeconds float64
}

// Succeeded reports the number of cleanly executed experiments.
func (r *Report) Succeeded() int { return r.Executed - r.Failed }

// TimingSummary renders the per-stage timing table, followed by the
// per-layer cache-traffic table when the run used any cache layer
// (empty string when the run recorded neither).
func (r *Report) TimingSummary() string {
	if len(r.Timings) == 0 && len(r.Cache) == 0 {
		return ""
	}
	var b strings.Builder
	if len(r.Timings) > 0 {
		fmt.Fprintf(&b, "%-8s %6s %10s %10s %10s\n", "stage", "spans", "total(s)", "max(s)", "wall(s)")
		for _, t := range r.Timings {
			fmt.Fprintf(&b, "%-8s %6d %10.3f %10.3f %10.3f\n",
				t.Stage, t.Count, t.Seconds, t.MaxSeconds, t.WallSeconds)
		}
	}
	if len(r.Cache) > 0 {
		fmt.Fprintf(&b, "%-12s %6s %8s %12s\n", "cache", "hits", "misses", "bytes")
		for _, cs := range r.Cache {
			fmt.Fprintf(&b, "%-12s %6d %8d %12d\n", cs.Layer, cs.Hits, cs.Misses, cs.Bytes)
		}
	}
	return b.String()
}

// resolveJobs applies the Options.Jobs default and cap.
func resolveJobs(jobs, n int) int {
	if jobs <= 0 {
		jobs = runtime.NumCPU()
	}
	if n > 0 && jobs > n {
		jobs = n
	}
	if jobs < 1 {
		jobs = 1
	}
	return jobs
}

// timingAcc accumulates per-stage span statistics sequentially; the
// engine folds concurrent execute durations in after the pool drains,
// so the accumulator itself needs no lock.
type timingAcc [StageAnalyze + 1]StageTiming

func (a *timingAcc) note(st Stage, d time.Duration) {
	secs := d.Seconds()
	t := &a[st]
	t.Count++
	t.Seconds += secs
	if secs > t.MaxSeconds {
		t.MaxSeconds = secs
	}
	t.WallSeconds += secs
}

// timings returns the entries for stages that ran, in stage order.
func (a *timingAcc) timings() []StageTiming {
	var out []StageTiming
	for st := StageSetup; st <= StageAnalyze; st++ {
		if a[st].Count == 0 {
			continue
		}
		t := a[st]
		t.Stage = st
		out = append(out, t)
	}
	return out
}

// Run drives a Runner through the full lifecycle. It returns the
// Report and, for fatal failures (setup/install/commit/analyze errors
// or cancellation), the terminal error; per-experiment execute
// failures are recorded in the Report without failing the run.
//
// When ctx carries a telemetry.Tracer, Run opens an "engine.run" root
// span with one child span per matrix stage and per experiment; all
// timestamps come from the tracer's clock, never from the engine.
func Run(ctx context.Context, r Runner, opts Options) (*Report, error) {
	rep := &Report{Label: r.Label()}
	met := telemetry.FromContext(ctx).Metrics()
	var acc timingAcc

	ctx, root := telemetry.StartSpan(ctx, "engine.run")
	rep.TraceID = root.TraceID()
	root.SetAttr("label", rep.Label)
	defer root.End()
	defer func() {
		rep.Timings = acc.timings()
		root.SetInt("jobs", rep.Jobs)
		root.SetInt("total", rep.Total)
		root.SetInt("executed", rep.Executed)
		root.SetInt("failed", rep.Failed)
		if rep.Err != nil {
			root.SetError(rep.Err)
		}
	}()

	fatal := func(st Stage, err error) (*Report, error) {
		rep.Err = &StageError{Stage: st, System: rep.Label, Err: err}
		return rep, rep.Err
	}

	// Matrix-level front stages.
	for _, st := range []struct {
		stage Stage
		fn    func(context.Context) error
	}{
		{StageSetup, r.Setup},
		{StageInstall, r.Install},
	} {
		if err := ctx.Err(); err != nil {
			rep.Cancelled = true
			return fatal(st.stage, err)
		}
		sctx, span := telemetry.StartSpan(ctx, st.stage.String())
		err := st.fn(sctx)
		span.SetError(err)
		span.End()
		d := span.Duration()
		acc.note(st.stage, d)
		stageSeconds(met, st.stage).Observe(d)
		if err != nil {
			return fatal(st.stage, err)
		}
	}

	names := r.Experiments()
	rep.Total = len(names)
	rep.Jobs = resolveJobs(opts.Jobs, len(names))

	// Execute stage: bounded worker pool over the matrix. Each
	// experiment gets its own span; queue wait (dispatch delay behind
	// the pool) and in-flight worker count feed the registry. Span
	// durations land in a per-index slice — no lock — and fold into
	// the accumulator after the pool drains.
	//
	// With a run cache active, each worker first consults the cache
	// under the runner's experiment key: a hit restores the cached
	// outcome in place of Execute (the span still opens, so warm and
	// cold runs record identical span trees); a miss executes and, on
	// success, stores the marshalled outcome for the next run.
	rc, _ := r.(CacheableRunner)
	useCache := opts.Cache != nil && rc != nil
	phaseCtx, phase := telemetry.StartSpan(ctx, StageExecute.String())
	phaseStart := phase.StartTime()
	execDur := make([]time.Duration, len(names))
	queueWait := met.Histogram("engine_queue_wait_seconds")
	inflight := met.Gauge("engine_inflight_jobs")
	executed := make([]bool, len(names))
	replayed := make([]bool, len(names))
	cacheIO := make([]int64, len(names))
	_, errs := Map(ctx, rep.Jobs, len(names), func(_ context.Context, i int) (struct{}, error) {
		executed[i] = true
		// phaseCtx shares ctx's cancellation chain; deriving the
		// experiment span from it nests spans without detaching
		// Execute from the run's cancellation.
		sctx, span := telemetry.StartSpan(phaseCtx, names[i])
		queueWait.Observe(span.StartTime().Sub(phaseStart))
		inflight.Add(1)
		var err error
		var key cachekey.Key // stays invalid without a run cache
		if useCache {
			key = rc.ExperimentKey(i)
		}
		if key.Valid() {
			if data, ok := opts.Cache.Get(key); ok {
				if rerr := rc.RestoreExperiment(sctx, i, data); rerr == nil {
					replayed[i] = true
					cacheIO[i] = int64(len(data))
				}
			}
		}
		if !replayed[i] {
			err = r.Execute(sctx, i)
			if err == nil && key.Valid() {
				if data, merr := rc.MarshalExperiment(i); merr == nil {
					if perr := opts.Cache.Put(key, data); perr == nil {
						cacheIO[i] = int64(len(data))
					}
				}
			}
		}
		inflight.Add(-1)
		span.SetError(err)
		span.End()
		execDur[i] = span.Duration()
		return struct{}{}, err
	})
	phase.End()
	if useCache {
		st := CacheStat{Layer: "run"}
		for i := range names {
			if !executed[i] {
				continue
			}
			st.Bytes += cacheIO[i]
			if replayed[i] {
				st.Hits++
			} else {
				st.Misses++
			}
		}
		rep.CacheHits = st.Hits
		rep.Cache = append(rep.Cache, st)
		met.Counter(`cache_hits_total{layer="run"}`).Add(int64(st.Hits))
		met.Counter(`cache_misses_total{layer="run"}`).Add(int64(st.Misses))
		met.Counter(`cache_bytes_total{layer="run"}`).Add(st.Bytes)
	}
	execHist := stageSeconds(met, StageExecute)
	for i := range names {
		if !executed[i] {
			continue
		}
		acc.note(StageExecute, execDur[i])
		execHist.Observe(execDur[i])
	}
	if acc[StageExecute].Count > 0 {
		acc[StageExecute].WallSeconds = phase.Duration().Seconds()
	}

	// Sorted merge: commit results in experiment index order, however
	// the concurrent executions interleaved. Commits still run for
	// already-executed experiments after a cancellation — under a
	// detached context — so the partial report reflects real state.
	commitCtx := context.WithoutCancel(ctx)
	cphaseCtx, cphase := telemetry.StartSpan(commitCtx, StageCommit.String())
	commitHist := stageSeconds(met, StageCommit)
	for i, name := range names {
		if !executed[i] {
			cause := ctx.Err()
			if cause == nil {
				cause = context.Canceled
			}
			rep.Cancelled = true
			rep.Errors = append(rep.Errors, &StageError{
				Stage: StageExecute, Experiment: name, System: rep.Label, Err: cause,
			})
			continue
		}
		rep.Executed++
		if errs[i] != nil {
			rep.Failed++
			rep.Errors = append(rep.Errors, &StageError{
				Stage: StageExecute, Experiment: name, System: rep.Label, Err: errs[i],
			})
		}
		sctx, span := telemetry.StartSpan(cphaseCtx, name)
		err := r.Commit(sctx, i)
		span.SetError(err)
		span.End()
		d := span.Duration()
		acc.note(StageCommit, d)
		commitHist.Observe(d)
		if err != nil {
			cphase.End()
			rep.Err = &StageError{Stage: StageCommit, Experiment: name, System: rep.Label, Err: err}
			return rep, rep.Err
		}
	}
	cphase.End()
	if acc[StageCommit].Count > 0 {
		acc[StageCommit].WallSeconds = cphase.Duration().Seconds()
	}
	if rep.Cancelled {
		cause := ctx.Err()
		if cause == nil {
			cause = context.Canceled
		}
		return fatal(StageExecute, cause)
	}

	if err := ctx.Err(); err != nil {
		rep.Cancelled = true
		return fatal(StageAnalyze, err)
	}
	actx, aspan := telemetry.StartSpan(ctx, StageAnalyze.String())
	aerr := r.Analyze(actx)
	aspan.SetError(aerr)
	aspan.End()
	ad := aspan.Duration()
	acc.note(StageAnalyze, ad)
	stageSeconds(met, StageAnalyze).Observe(ad)
	if aerr != nil {
		return fatal(StageAnalyze, aerr)
	}
	if rr, ok := r.(ResultReporter); ok {
		rep.Results = rr.Results()
	}
	return rep, nil
}

// stageSeconds returns the labeled stage-latency histogram.
func stageSeconds(met *telemetry.Registry, st Stage) telemetry.Histogram {
	return met.Histogram(fmt.Sprintf("engine_stage_seconds{stage=%q}", st))
}

// Map runs fn over the indices [0, n) on a bounded worker pool of
// `jobs` goroutines and returns results and errors in index order —
// the deterministic sorted merge of the concurrent completions.
// When the context is cancelled, dispatch stops and every unexecuted
// index reports the context's error; executions already in flight
// finish. Map never fails as a whole: callers inspect errs.
func Map[T any](ctx context.Context, jobs, n int, fn func(ctx context.Context, i int) (T, error)) (vals []T, errs []error) {
	vals = make([]T, n)
	errs = make([]error, n)
	if n == 0 {
		return vals, errs
	}
	jobs = resolveJobs(jobs, n)

	idx := make(chan int)
	go func() {
		defer close(idx)
		for i := 0; i < n; i++ {
			select {
			case idx <- i:
			case <-ctx.Done():
				return
			}
		}
	}()

	done := make([]bool, n)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if ctx.Err() != nil {
					continue // drain without executing
				}
				vals[i], errs[i] = fn(ctx, i)
				done[i] = true
			}
		}()
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		if !done[i] && errs[i] == nil {
			if err := ctx.Err(); err != nil {
				errs[i] = err
			} else {
				errs[i] = context.Canceled
			}
		}
	}
	return vals, errs
}

// SeededRNG returns a deterministic per-experiment random source
// seeded from the experiment name. Runners that want randomized
// payloads (perturbation, sampling) must draw from a per-experiment
// source like this one rather than a shared generator, so figures of
// merit stay byte-identical whatever the worker-pool interleaving.
func SeededRNG(name string) *rand.Rand {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return rand.New(rand.NewSource(int64(h.Sum64())))
}
