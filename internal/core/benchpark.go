package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/adiak"
	"repro/internal/bench"
	"repro/internal/buildcache"
	"repro/internal/cachekey"
	"repro/internal/concretizer"
	"repro/internal/engine"
	"repro/internal/env"
	"repro/internal/hpcsim"
	"repro/internal/install"
	"repro/internal/metricsdb"
	"repro/internal/pkgrepo"
	"repro/internal/ramble"
	"repro/internal/scheduler"
	"repro/internal/spec"
	"repro/internal/telemetry"
	"repro/internal/thicket"
)

// Benchpark is the shared state of a continuous-benchmarking
// deployment: the package repository, the community binary cache, the
// metrics database results stream into, and the incremental-pipeline
// caches (concretization memo, durable content-addressed store).
type Benchpark struct {
	Repo    *pkgrepo.Repo
	Cache   *buildcache.Cache
	Metrics *metricsdb.DB

	// Memo caches concretization results across the deployment's
	// sessions (the "concretize" layer); always on — a memo hit is
	// pinned byte-identical to a fresh solve.
	Memo *concretizer.Memo
	// Store is the durable content-addressed store every cache layer
	// persists through (UseCache); nil keeps all caching in-memory.
	Store *cachekey.Store
}

// New returns a Benchpark instance over the builtin package repo.
func New() *Benchpark {
	return &Benchpark{
		Repo:    pkgrepo.Builtin(),
		Cache:   buildcache.New(),
		Metrics: metricsdb.New(),
		Memo:    concretizer.NewMemo(),
	}
}

// Session is one "benchpark $experiment $system $workspace"
// invocation: a generated workspace bound to a system, with its own
// concretizer, installer, and batch scheduler (Figure 1c steps 2-4).
type Session struct {
	Benchpark *Benchpark
	System    *hpcsim.System
	Suite     string
	Config    *concretizer.Config
	Installer *install.Installer
	Workspace *ramble.Workspace
	Scheduler *scheduler.Scheduler
	Thicket   *thicket.Thicket
	Lockfiles map[string]*env.Lockfile // software env name -> lockfile

	manifests map[string]string // experiment name -> manifest, rendered by record
}

// Setup implements Figure 1c steps 1-4: create the workspace, write
// the system configs, instantiate Spack and Ramble, and generate the
// workspace configuration from the experiment suite template.
func (bp *Benchpark) Setup(suite, systemName, workspaceDir string) (*Session, error) {
	sys, err := hpcsim.Get(systemName)
	if err != nil {
		return nil, err
	}
	gen, ok := experimentSuites[suite]
	if !ok {
		return nil, fmt.Errorf("benchpark: unknown experiment suite %q (have %v)",
			suite, ExperimentTemplates())
	}
	rambleYAML, err := gen(sys)
	if err != nil {
		return nil, err
	}

	// One rendering of the system's config files feeds both readers:
	// the concretizer and the workspace's configs/.
	files, err := SystemConfigs(sys)
	if err != nil {
		return nil, err
	}
	cfg, err := concretizerConfig(sys, files)
	if err != nil {
		return nil, err
	}
	ws, err := ramble.NewWorkspace(suite+"@"+systemName, workspaceDir)
	if err != nil {
		return nil, err
	}
	for name, content := range files {
		ws.WriteConfig(name, content)
	}
	if err := ws.Configure(rambleYAML); err != nil {
		return nil, err
	}
	return newSession(bp, sys, suite, cfg, ws), nil
}

// newSession binds a configured workspace to a system, with a fresh
// installer, scheduler and thicket.
func newSession(bp *Benchpark, sys *hpcsim.System, suite string, cfg *concretizer.Config, ws *ramble.Workspace) *Session {
	inst := install.New(bp.Repo)
	inst.Cache = bp.Cache
	inst.PushToCache = true
	return &Session{
		Benchpark: bp,
		System:    sys,
		Suite:     suite,
		Config:    cfg,
		Installer: inst,
		Workspace: ws,
		Scheduler: scheduler.New(sys),
		Thicket:   thicket.New(),
		Lockfiles: map[string]*env.Lockfile{},
	}
}

// WithScratchSession sets up a session whose workspace nobody keeps —
// the caller wants the results, an archive or the metrics, not the
// tree — over a fresh temp directory, hands it to fn, and removes the
// directory whatever Setup or fn returned.
func (bp *Benchpark) WithScratchSession(suite, systemName string, fn func(*Session) error) error {
	dir, err := os.MkdirTemp("", "benchpark-scratch-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	sess, err := bp.Setup(suite, systemName, dir)
	if err != nil {
		return err
	}
	return fn(sess)
}

// installSoftwareContext is the Ramble→Spack hook (Figure 1c step 6):
// each named environment concretizes together and installs, keeping
// the lockfile for provenance, with cancellation propagated through
// the install engine's worker pool.
func (s *Session) installSoftwareContext(ctx context.Context, envName string, specs []string) (err error) {
	ctx, span := telemetry.StartSpan(ctx, "env:"+envName)
	span.SetInt("specs", len(specs))
	defer span.End()
	defer func() { span.SetError(err) }()
	e := env.New(envName)
	for _, str := range specs {
		if err := e.Add(str); err != nil {
			return err
		}
	}
	// --reuse: anything already installed in this session is a
	// concretization candidate for later environments.
	var reuse []*spec.Spec
	for _, rec := range s.Installer.DB.Find(spec.New("")) {
		reuse = append(reuse, rec.Spec)
	}
	s.Config.ReuseInstalled = reuse
	c := concretizer.New(s.Benchpark.Repo, s.Config)
	c.Memo = s.Benchpark.Memo
	if err := e.Concretize(c); err != nil {
		return err
	}
	if _, err := e.InstallContext(ctx, s.Installer); err != nil {
		return err
	}
	lf, err := e.Lock()
	if err != nil {
		return err
	}
	s.Lockfiles[envName] = lf
	return nil
}

// execute runs e's benchmark kernel over its rendered variables
// (expandedVars). A kernel is a pure function of its parameters — the
// simulated clock is per-run — so the engine's workers call this
// concurrently.
func (s *Session) execute(e *ramble.Experiment, vars map[string]string) (*bench.Output, error) {
	b, err := bench.Get(e.App.Name)
	if err != nil {
		return nil, err
	}
	return b.Run(bench.Params{
		System:       s.System,
		Ranks:        e.NRanks,
		RanksPerNode: e.ProcsPerNode,
		Threads:      e.NThreads,
		Variant:      vars["variant"],
		Vars:         vars,
	})
}

// submit puts one executed experiment through the system's batch
// scheduler (steps 7-8): a job of the experiment's node count and
// batch_time whose payload reports the kernel's outcome, drained to
// completion. A job that did not complete fails the experiment; one
// that did settles it — outcome on the experiment, Caliper profile +
// Adiak metadata into the session thicket, and the .cali (the file
// always-on profiling leaves behind, Section 5) and .out next to its
// batch script. The returned error is the scheduler's own, not the
// experiment's.
func (s *Session) submit(ctx context.Context, e *ramble.Experiment, out *bench.Output, rerr error) error {
	job, err := s.Scheduler.Submit(e.Name, e.NNodes, e.BatchTime*60, func() (float64, error) {
		if rerr != nil {
			return 0, rerr
		}
		return out.Elapsed, nil
	})
	if err != nil {
		return err
	}
	if err := s.Scheduler.DrainContext(ctx); err != nil {
		return err
	}
	if job.State != scheduler.Completed || out == nil {
		e.Status = ramble.Failed
		if job.Err != nil {
			e.FailMsg = job.Err.Error()
		} else {
			e.FailMsg = "job " + job.State.String()
		}
		return nil
	}
	e.Output = out.Text
	e.Elapsed = out.Elapsed
	e.Status = ramble.Succeeded
	md := out.Metadata
	md.Setf("experiment", "%s", e.Name)
	md.Setf("nprocs", "%d", e.NRanks)
	s.Thicket.Add(out.Profile, md)
	if cali, err := out.Profile.JSON(); err == nil {
		s.Workspace.WriteOutput(e, ".cali", cali)
	}
	s.Workspace.WriteOutput(e, ".out", out.Text)
	return nil
}

// Executor is the session as a ramble.Executor, for drivers that call
// Workspace.On themselves (the ramble CLI): each experiment is
// executed and submitted exactly as Run does it, one at a time.
//
//benchlint:compat
func (s *Session) Executor(e *ramble.Experiment) (string, float64, error) {
	out, err := s.execute(e, expandedVars(e))
	if err := s.submit(context.Background(), e, out, err); err != nil {
		return "", 0, err
	}
	if e.Status == ramble.Failed {
		return "", 0, errors.New(e.FailMsg)
	}
	return out.Text, out.Elapsed, nil
}

// NewSessionForWorkspace binds an already-configured workspace (e.g.
// one reopened from disk by the ramble CLI) to a system.
func NewSessionForWorkspace(bp *Benchpark, sys *hpcsim.System, ws *ramble.Workspace) (*Session, error) {
	cfg, err := ConcretizerConfig(sys)
	if err != nil {
		return nil, err
	}
	return newSession(bp, sys, ws.Name, cfg, ws), nil
}

// InstallSoftware is the exported Ramble→Spack hook for external
// drivers (the ramble CLI), which have no pipeline context to thread
// through; engine-driven installs go via installSoftwareContext.
//
//benchlint:compat
func (s *Session) InstallSoftware(envName string, specs []string) error {
	return s.installSoftwareContext(context.Background(), envName, specs)
}

// expandedVars renders every experiment variable to its final value
// (skipping ones that need runtime-only context).
func expandedVars(e *ramble.Experiment) map[string]string {
	out := map[string]string{}
	for k := range e.Vars {
		v, err := e.Expander.Expand("{" + k + "}")
		if err == nil {
			out[k] = v
		}
	}
	return out
}

// RunOptions configures one Session.Run.
type RunOptions struct {
	// Jobs bounds the engine worker pool; <=0 means runtime.NumCPU().
	Jobs int
}

// RunAll executes the full Figure 1c workflow after Setup: workspace
// setup (software install + experiment generation), ramble on, and
// analyze, recording every result in the metrics database and writing
// the analysis artifact to the workspace's logs/ directory.
//
// Experiments execute concurrently on the engine's worker pool; the
// results are identical to a sequential run (see internal/engine).
// Cancellable callers use Run directly.
//
//benchlint:compat
func (s *Session) RunAll() (*ramble.AnalysisReport, error) {
	rep, _, err := s.Run(context.Background(), RunOptions{})
	return rep, err
}

// Run drives the session through the execution engine: setup →
// install → concurrent execute → ordered commit → analyze, replaying
// unchanged experiments from the deployment store's "run" layer when
// there is one (Benchpark.UseCache). A deadline is the context's. Run
// returns the ramble analysis, the engine's report (always non-nil — on
// cancellation or a stage failure it records how far the matrix got),
// and the terminal error if the run did not complete. Individual
// experiment failures do not fail the run; they appear as failed
// experiments in the analysis and as typed errors in the engine
// report.
func (s *Session) Run(ctx context.Context, o RunOptions) (*ramble.AnalysisReport, *engine.Report, error) {
	ctx, span := telemetry.StartSpan(ctx, "session")
	span.SetAttr("suite", s.Suite)
	span.SetAttr("system", s.System.Name)
	telemetry.Log(ctx).Info("session start", "suite", s.Suite, "system", s.System.Name)
	r := &sessionRunner{s: s}
	eopts := engine.Options{Jobs: o.Jobs}
	if s.Benchpark.Store != nil {
		eopts.Cache = s.Benchpark.Store.Layer("run")
	}
	memoBefore := s.Benchpark.Memo.Stats()
	bcHits, bcMisses, _ := s.Benchpark.Cache.Stats()
	erep, err := engine.Run(ctx, r, eopts)
	s.appendCacheStats(ctx, erep, memoBefore, bcHits, bcMisses)
	span.SetError(err)
	span.End()
	telemetry.Log(ctx).Info("session done",
		"executed", erep.Executed, "failed", erep.Failed, "cancelled", erep.Cancelled)
	return r.analysis, erep, err
}

// sessionRunner adapts a Session to the engine's Runner interface.
// Execute runs the benchmark kernels concurrently; every shared side
// effect (scheduler submission, thicket, metrics database, files)
// happens in the sequential Commit/Analyze stages, in experiment index
// order, so a concurrent run is byte-identical to a sequential one.
type sessionRunner struct {
	s *Session

	exps     []*ramble.Experiment
	vars     []map[string]string // per-experiment rendered variables, see expanded
	outs     []*bench.Output     // per-experiment kernel output
	errs     []error             // per-experiment kernel error
	analysis *ramble.AnalysisReport
	results  []engine.ExperimentResult // what Analyze recorded, see Session.record
	locks    sync.Map                  // environment name -> escaped lockfile JSON, see lockJSON

	// ExperimentKey's scratch, reused across the session's experiments.
	keyMu    sync.Mutex
	keyBuf   []byte
	keyNames []string
}

func (r *sessionRunner) Label() string {
	return r.s.Suite + "@" + r.s.System.Name
}

func (r *sessionRunner) Setup(ctx context.Context) error {
	// Generate experiments and materialize directories; software
	// installation is the engine's own install stage.
	if err := r.s.Workspace.Setup(nil); err != nil {
		return err
	}
	r.exps = r.s.Workspace.Experiments
	r.vars = make([]map[string]string, len(r.exps))
	r.outs = make([]*bench.Output, len(r.exps))
	r.errs = make([]error, len(r.exps))
	return nil
}

func (r *sessionRunner) Install(ctx context.Context) error {
	envSpecs, err := r.s.Workspace.SoftwareEnvironments()
	if err != nil {
		return err
	}
	names := make([]string, 0, len(envSpecs))
	for name := range envSpecs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := r.s.installSoftwareContext(ctx, name, envSpecs[name]); err != nil {
			return fmt.Errorf("ramble: installing environment %s: %w", name, err)
		}
	}
	return nil
}

func (r *sessionRunner) Experiments() []string {
	names := make([]string, len(r.exps))
	for i, e := range r.exps {
		names[i] = e.Name
	}
	return names
}

// Execute runs one experiment's kernel. It touches only this
// experiment's slots — no scheduler, no files — so the engine may run
// it concurrently with its siblings.
func (r *sessionRunner) Execute(ctx context.Context, i int) error {
	r.outs[i], r.errs[i] = r.s.execute(r.exps[i], r.expanded(i))
	return r.errs[i]
}

// expanded renders experiment i's variables once for both readers,
// the kernel and the cache key. The engine hands each index to one
// worker, so the slot needs no lock.
func (r *sessionRunner) expanded(i int) map[string]string {
	if r.vars[i] == nil {
		r.vars[i] = expandedVars(r.exps[i])
	}
	return r.vars[i]
}

// Commit submits one executed (or replayed) experiment, in index
// order.
func (r *sessionRunner) Commit(ctx context.Context, i int) error {
	return r.s.submit(ctx, r.exps[i], r.outs[i], r.errs[i])
}

func (r *sessionRunner) Analyze(ctx context.Context) error {
	rep, err := r.s.Workspace.Analyze()
	if err != nil {
		return err
	}
	if r.results, err = r.s.record(rep); err != nil {
		return err
	}
	r.analysis = rep
	return nil
}

// Results implements engine.ResultReporter: the records Analyze made,
// which the engine attaches to Report.Results — what the federation
// path (metricsdb.ResultsFromReport → resultsd) pushes to a shared
// results service.
func (r *sessionRunner) Results() []engine.ExperimentResult { return r.results }

// Manifests returns the reproducibility manifest of every experiment
// in the analysis Run returned, keyed by experiment name, as Run
// rendered them — the map metricsdb.ResultsFromReport attaches to
// pushed results so a remote store carries the same provenance as the
// local one. A nil analysis has none.
func (s *Session) Manifests(rep *ramble.AnalysisReport) map[string]string {
	if rep == nil {
		return nil
	}
	return s.manifests
}

// record is what one analysis leaves behind. Every experiment's
// manifest is rendered once (kept for Manifests) and goes with its
// status into logs/results.json — the shareable record Section 5 wants
// contributors to publish alongside the manifests. Every succeeded
// experiment becomes one identity + Meta record that is streamed into
// the deployment's metrics database and returned for the engine
// report, so the local database, the artifact and a pushed batch
// cannot disagree.
func (s *Session) record(rep *ramble.AnalysisReport) ([]engine.ExperimentResult, error) {
	type entry struct {
		Experiment string            `json:"experiment"`
		Status     string            `json:"status"`
		Elapsed    float64           `json:"elapsed_s"`
		FOMs       map[string]string `json:"foms,omitempty"`
		Error      string            `json:"error,omitempty"`
		Manifest   string            `json:"manifest"`
	}
	var entries []entry
	var results []engine.ExperimentResult
	s.manifests = make(map[string]string, len(rep.Experiments))
	for _, e := range rep.Experiments {
		m := s.manifest(e)
		s.manifests[e.Name] = m
		entries = append(entries, entry{
			Experiment: e.Name,
			Status:     e.Status.String(),
			Elapsed:    e.Elapsed,
			FOMs:       e.FOMs,
			Error:      e.FailMsg,
			Manifest:   m,
		})
		if e.Status != ramble.Succeeded {
			continue
		}
		results = append(results, engine.ExperimentResult{
			Experiment: e.Name,
			Benchmark:  e.App.Name,
			Workload:   e.Workload,
			System:     s.System.Name,
			FOMs:       e.FOMs,
			Meta: map[string]string{
				"n_ranks":   strconv.Itoa(e.NRanks),
				"n_nodes":   strconv.Itoa(e.NNodes),
				"n_threads": strconv.Itoa(e.NThreads),
			},
		})
	}
	data, err := json.MarshalIndent(map[string]any{
		"system":  s.System.Name,
		"suite":   s.Suite,
		"total":   rep.Total,
		"passed":  rep.Succeeded,
		"failed":  rep.Failed,
		"results": entries,
	}, "", "  ")
	if err != nil {
		return nil, err
	}
	s.Workspace.WriteLog("results.json", data)
	for _, r := range results {
		s.Benchpark.Metrics.Add(metricsdb.Result{
			Benchmark:  r.Benchmark,
			Workload:   r.Workload,
			System:     r.System,
			Experiment: r.Experiment,
			FOMs:       metricsdb.ParseFOMs(r.FOMs),
			Meta:       r.Meta,
			Manifest:   s.manifests[r.Experiment],
		})
	}
	return results, nil
}

// manifest renders the exact experiment specification (Section 5:
// "Storing the Benchpark manifest with the performance results will
// enable introspection into benchmark performance across systems and
// time").
func (s *Session) manifest(e *ramble.Experiment) string {
	var b strings.Builder
	fmt.Fprintf(&b, "system: %s\nsuite: %s\nexperiment: %s\n", s.System.Name, s.Suite, e.Name)
	if lf, ok := s.Lockfiles[e.App.Name]; ok {
		fmt.Fprintf(&b, "software: %s\n", strings.Join(lf.PackageNames(), ", "))
		for _, root := range lf.Roots {
			fmt.Fprintf(&b, "root: %s\n", lf.Nodes[root].Spec)
		}
	}
	return b.String()
}

// InstalledSpec returns the installed concrete spec for a package in
// a session environment, for provenance checks.
func (s *Session) InstalledSpec(pkgName string) (*spec.Spec, error) {
	recs := s.Installer.DB.Find(spec.MustParse(pkgName))
	if len(recs) == 0 {
		return nil, fmt.Errorf("benchpark: %s not installed in this session", pkgName)
	}
	return recs[0].Spec, nil
}

// AdiakEnsembleMetadata builds shared metadata for the session's
// thicket entries.
func (s *Session) AdiakEnsembleMetadata() *adiak.Metadata {
	md := adiak.New()
	md.Set("cluster", s.System.Name)
	md.Set("suite", s.Suite)
	return md
}
