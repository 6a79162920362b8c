package core

import (
	"context"
	"fmt"
	"maps"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"

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
// metrics database results stream into, and the durable
// content-addressed store of the incremental pipeline.
type Benchpark struct {
	Repo    *pkgrepo.Repo
	Cache   *buildcache.Cache
	Metrics *metricsdb.DB

	// Store is the durable content-addressed store the cache layers
	// persist through: sessions read and write its "concretize" and
	// "run" layers, and UseCache puts the binary cache over its
	// "buildcache" layer. nil caches no solve and no run.
	Store *cachekey.Store
}

// New returns a Benchpark instance over the builtin package repo.
func New() *Benchpark {
	return &Benchpark{
		Repo:    pkgrepo.Builtin(),
		Cache:   buildcache.New(),
		Metrics: metricsdb.New(),
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
	Envs      map[string]*env.Environment // software env name -> installed environment

	manifests map[string]string    // experiment name -> manifest, rendered by record
	locked    map[string]lockedEnv // software env name -> what keys and manifests read of it

	// concretize and buildcache count this session's own lookups in
	// those cache layers, for appendCacheStats.
	concretize, buildcache engine.CacheStat
}

// Setup implements Figure 1c steps 1-4: create the workspace, write
// the system configs, instantiate Spack and Ramble, and generate the
// workspace configuration from the experiment suite template.
func (bp *Benchpark) Setup(suite, systemName, workspaceDir string) (*Session, error) {
	sys, rambleYAML, err := lookupSuite(suite, systemName)
	if err != nil {
		return nil, err
	}
	return bp.setup(suite, sys, rambleYAML, workspaceDir)
}

// setup is Setup over an already rendered ramble.yaml: a workspace
// named name@system in dir, configured from rambleYAML.
func (bp *Benchpark) setup(name string, sys *hpcsim.System, rambleYAML, dir string) (*Session, error) {
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
	ws, err := ramble.NewWorkspace(name+"@"+sys.Name, dir)
	if err != nil {
		return nil, err
	}
	for file, content := range files {
		ws.WriteConfig(file, content)
	}
	if err := ws.Configure(rambleYAML); err != nil {
		return nil, err
	}
	return newSession(bp, sys, name, cfg, ws), nil
}

// newSession binds a configured workspace to a system, with a fresh
// installer, scheduler and thicket.
func newSession(bp *Benchpark, sys *hpcsim.System, suite string, cfg *concretizer.Config, ws *ramble.Workspace) *Session {
	inst := install.New(bp.Repo)
	inst.Cache = bp.Cache
	return &Session{
		Benchpark: bp,
		System:    sys,
		Suite:     suite,
		Config:    cfg,
		Installer: inst,
		Workspace: ws,
		Scheduler: scheduler.New(sys),
		Thicket:   thicket.New(),
		Envs:      map[string]*env.Environment{},
		locked:    map[string]lockedEnv{},

		concretize: engine.CacheStat{Layer: "concretize"},
		buildcache: engine.CacheStat{Layer: "buildcache"},
	}
}

// WithScratchSession sets up a session whose workspace nobody keeps —
// the caller wants the results, an archive or the metrics, not the
// tree — over a fresh temp directory, hands it to fn, and removes the
// directory whatever Setup or fn returned.
func (bp *Benchpark) WithScratchSession(suite, systemName string, fn func(*Session) error) error {
	sys, rambleYAML, err := lookupSuite(suite, systemName)
	if err != nil {
		return err
	}
	return bp.withScratch(suite, sys, rambleYAML, fn)
}

// withScratch is WithScratchSession over an already rendered ramble.yaml.
func (bp *Benchpark) withScratch(name string, sys *hpcsim.System, rambleYAML string, fn func(*Session) error) error {
	dir, err := os.MkdirTemp("", "benchpark-scratch-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	sess, err := bp.setup(name, sys, rambleYAML, dir)
	if err != nil {
		return err
	}
	return fn(sess)
}

// Install is the Ramble→Spack hook (Figure 1c step 6): every software
// environment the workspace names, in name order, concretizes together
// and installs under ctx, keeping its concrete roots for provenance.
func (s *Session) Install(ctx context.Context) error {
	envSpecs, err := s.Workspace.SoftwareEnvironments()
	if err != nil {
		return err
	}
	for _, name := range slices.Sorted(maps.Keys(envSpecs)) {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := s.installEnv(ctx, name, envSpecs[name]); err != nil {
			return fmt.Errorf("ramble: installing environment %s: %w", name, err)
		}
	}
	return nil
}

// installEnv concretizes and installs one named environment.
func (s *Session) installEnv(ctx context.Context, envName string, specs []string) (err error) {
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
	if st := s.Benchpark.Store; st != nil {
		c.Cache = st.Layer("concretize")
	}
	err = e.Concretize(c)
	s.concretize.Hits += c.Hits
	s.concretize.Misses += c.Misses
	if err != nil {
		return err
	}
	rep, err := e.Install(ctx, s.Installer)
	if err != nil {
		return err
	}
	s.buildcache.Hits += rep.Count(install.FetchedFromCache)
	s.buildcache.Misses += rep.Count(install.Built)
	s.Envs[envName] = e
	s.locked[envName] = newLockedEnv(e)
	return nil
}

// lockedEnv is what the run key and the manifest read of one installed
// environment, computed once when it is installed.
type lockedEnv struct {
	roots []string // the roots' DAG hashes: the run key's LockRoots
	lines string   // the manifest's software: and root: lines
}

func newLockedEnv(e *env.Environment) lockedEnv {
	l := lockedEnv{lines: "software: " + strings.Join(e.PackageNames(), ", ") + "\n"}
	hs := spec.Hasher{}
	for _, root := range e.Roots {
		l.roots = append(l.roots, hs.Hash(root))
		l.lines += "root: " + root.String() + "\n"
	}
	return l
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
// batch script. cali is the profile's text when the caller already has
// it (stored for, or restored from, the run layer); "" renders it. The
// returned error is the scheduler's own, not the experiment's.
func (s *Session) submit(ctx context.Context, e *ramble.Experiment, out *bench.Output, rerr error, cali string) error {
	job, err := s.Scheduler.Submit(e.Name, e.NNodes, e.BatchTime*60, func() (float64, error) {
		if rerr != nil {
			return 0, rerr
		}
		return out.Elapsed, nil
	})
	if err != nil {
		return err
	}
	if err := s.Scheduler.Drain(ctx); err != nil {
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
	if cali == "" {
		cali, _ = out.Profile.JSON() // a profile JSON cannot encode leaves no .cali
	}
	if cali != "" {
		s.Workspace.WriteOutput(e, ".cali", cali)
	}
	s.Workspace.WriteOutput(e, ".out", out.Text)
	return nil
}

// NewSessionForWorkspace binds an already-configured workspace (e.g.
// one reopened from disk by the ramble CLI) to a system, as a session
// of the named suite.
func NewSessionForWorkspace(bp *Benchpark, sys *hpcsim.System, suite string, ws *ramble.Workspace) (*Session, error) {
	cfg, err := ConcretizerConfig(sys)
	if err != nil {
		return nil, err
	}
	return newSession(bp, sys, suite, cfg, ws), nil
}

// expandedVars renders every experiment variable to its final value
// (skipping ones that need runtime-only context).
func expandedVars(e *ramble.Experiment) map[string]string {
	out := make(map[string]string, len(e.Vars))
	for k := range e.Vars {
		if v, err := e.Expander.ExpandVar(k); err == nil {
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

// Run drives the session through the execution engine: setup →
// install → concurrent execute → ordered commit → analyze, replaying
// unchanged experiments from the deployment store's "run" layer when
// there is one (Benchpark.UseCache). A deadline is the context's. Run
// returns the ramble analysis, the engine's report (always non-nil — on
// cancellation or a stage failure it records how far the matrix got),
// and the terminal error if the run did not complete. Individual
// experiment failures do not fail the run; they appear as failed
// experiments in the analysis and as typed errors in the engine
// report. A completed run's results go into Benchpark.Metrics through
// metricsdb.ResultsFromReport, the bridge Push uses, so a local row
// and a pushed result are the same record, trace ID included.
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
	erep, err := engine.Run(ctx, r, eopts)
	for _, res := range metricsdb.ResultsFromReport(erep, s.manifests) {
		s.Benchpark.Metrics.Add(res)
	}
	s.appendCacheStats(ctx, erep)
	span.SetError(err)
	span.End()
	telemetry.Log(ctx).Info("session done",
		"executed", erep.Executed, "failed", erep.Failed, "cancelled", erep.Cancelled)
	return r.analysis, erep, err
}

// sessionRunner adapts a Session to the engine's Runner interface.
// Execute runs the benchmark kernels concurrently; every shared side
// effect (scheduler submission, thicket, files) happens in the
// sequential Commit/Analyze stages, in experiment index order, so a
// concurrent run is byte-identical to a sequential one.
type sessionRunner struct {
	s *Session

	exps     []*ramble.Experiment
	vars     []map[string]string // per-experiment rendered variables, see expanded
	outs     []*bench.Output     // per-experiment kernel output
	errs     []error             // per-experiment kernel error
	calis    []string            // per-experiment .cali text, once rendered or restored
	analysis *ramble.AnalysisReport
	results  []engine.ExperimentResult // what Analyze recorded, see Session.record

	model string // the system's Fingerprint, taken once at Setup

	// ExperimentKey's scratch, reused across the session's experiments.
	keyMu    sync.Mutex
	keyBuf   []byte
	keyNames []string

	// RestoreExperiment's decoder and the profile text it reads into,
	// reused across the session's experiments.
	decMu sync.Mutex
	dec   metricsdb.Decoder
	cali  []byte
}

func (r *sessionRunner) Label() string {
	return r.s.Suite + "@" + r.s.System.Name
}

func (r *sessionRunner) Setup(ctx context.Context) error {
	// Generate experiments and materialize directories; software
	// installation is the engine's own install stage.
	if err := r.s.Workspace.Setup(); err != nil {
		return err
	}
	r.exps = r.s.Workspace.Experiments
	r.model = r.s.System.Fingerprint()
	r.vars = make([]map[string]string, len(r.exps))
	r.outs = make([]*bench.Output, len(r.exps))
	r.errs = make([]error, len(r.exps))
	r.calis = make([]string, len(r.exps))
	return nil
}

func (r *sessionRunner) Install(ctx context.Context) error { return r.s.Install(ctx) }

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
// order, with the .cali text the run layer already holds for it.
func (r *sessionRunner) Commit(ctx context.Context, i int) error {
	return r.s.submit(ctx, r.exps[i], r.outs[i], r.errs[i], r.calis[i])
}

func (r *sessionRunner) Analyze(ctx context.Context) error {
	rep, err := r.s.Workspace.Analyze()
	if err != nil {
		return err
	}
	if r.results, err = r.s.record(rep, r.model); err != nil {
		return err
	}
	r.analysis = rep
	return nil
}

// Results implements engine.ResultReporter: the records Analyze made,
// which the engine attaches to Report.Results — what Run adds to the
// deployment's metrics database and a push sends to a shared results
// service, both through metricsdb.ResultsFromReport.
func (r *sessionRunner) Results() []engine.ExperimentResult { return r.results }

// Manifests returns the reproducibility manifest of every experiment
// in the analysis Run returned, keyed by experiment name, as Run
// rendered them — the map metricsdb.ResultsFromReport attaches to
// results, so a remote store carries the same provenance as the local
// one. A nil analysis has none.
func (s *Session) Manifests(rep *ramble.AnalysisReport) map[string]string {
	if rep == nil {
		return nil
	}
	return s.manifests
}

// record is what one analysis leaves behind. Every experiment's
// manifest — its environment's, rendered once per environment and
// shared by its experiments (kept for Manifests) — goes with its
// status into logs/results.json — the shareable record Section 5 wants
// contributors to publish alongside the manifests. Every succeeded
// experiment becomes one identity + Meta record, returned for the
// engine report, from which Run feeds the local database and Push a
// pushed batch, so neither can disagree with the artifact.
func (s *Session) record(rep *ramble.AnalysisReport, model string) ([]engine.ExperimentResult, error) {
	var results []engine.ExperimentResult
	s.manifests = make(map[string]string, len(rep.Experiments))
	envs := map[string]string{} // software env name -> its manifest
	for _, e := range rep.Experiments {
		m, ok := envs[e.App.Name]
		if !ok {
			m = s.manifest(e.App.Name, model)
			envs[e.App.Name] = m
		}
		s.manifests[e.Name] = m
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
	buf := logBufs.Get().(*[]byte)
	defer logBufs.Put(buf)
	data, err := appendResultsLog((*buf)[:0], s.System.Name, s.Suite, rep, s.manifests)
	*buf = data
	if err != nil {
		return nil, err
	}
	s.Workspace.WriteLog("results.json", data)
	return results, nil
}

// logBufs lends record the buffer results.json is appended to, which
// WriteLog copies out of.
var logBufs = sync.Pool{New: func() any { return new([]byte) }}

// appendResultsLog appends logs/results.json: what json.MarshalIndent
// with a two-space indent gives for a map of "system", "suite",
// "total", "passed", "failed" and "results" — the last a list of each
// experiment's name, status, elapsed time, FOMs and error (those two
// left out when empty) and its manifest, null when there is none. An
// elapsed time JSON cannot hold is an error.
func appendResultsLog(b []byte, system, suite string, rep *ramble.AnalysisReport, manifests map[string]string) (_ []byte, err error) {
	str := func(member, v string) { b = metricsdb.AppendString(append(b, member...), v) }
	b = strconv.AppendInt(append(b, "{\n  \"failed\": "...), int64(rep.Failed), 10)
	b = strconv.AppendInt(append(b, ",\n  \"passed\": "...), int64(rep.Succeeded), 10)
	b = append(b, ",\n  \"results\": "...)
	if len(rep.Experiments) == 0 {
		b = append(b, "null"...)
	}
	open := "["
	for _, e := range rep.Experiments {
		str(open+"\n    {\n      \"experiment\": ", e.Name)
		open = ","
		str(",\n      \"status\": ", e.Status.String())
		if b, err = metricsdb.AppendFloat(append(b, ",\n      \"elapsed_s\": "...), e.Elapsed); err != nil {
			return b, err
		}
		if len(e.FOMs) > 0 {
			sep := ",\n      \"foms\": {\n        "
			for _, k := range slices.Sorted(maps.Keys(e.FOMs)) {
				str(sep, k)
				str(": ", e.FOMs[k])
				sep = ",\n        "
			}
			b = append(b, "\n      }"...)
		}
		if e.FailMsg != "" {
			str(",\n      \"error\": ", e.FailMsg)
		}
		str(",\n      \"manifest\": ", manifests[e.Name])
		b = append(b, "\n    }"...)
	}
	if len(rep.Experiments) > 0 {
		b = append(b, "\n  ]"...)
	}
	str(",\n  \"suite\": ", suite)
	str(",\n  \"system\": ", system)
	b = strconv.AppendInt(append(b, ",\n  \"total\": "...), int64(rep.Total), 10)
	return append(b, "\n}"...), nil
}

// manifest renders the environment one software environment's
// experiments ran in (Section 5: "Storing the Benchpark manifest with
// the performance results will enable introspection into benchmark
// performance across systems and time"): the suite, a 16-hex prefix of
// the system model's fingerprint, and the environment's software: and
// root: lines. The system's name and the experiment's are the result's
// own fields, so every experiment of the environment shares the text.
func (s *Session) manifest(envName, model string) string {
	return "suite: " + s.Suite + "\nsystem-model: " + model[:min(16, len(model))] + "\n" + s.locked[envName].lines
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
