package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/caliper"
	"repro/internal/ci"
	"repro/internal/engine"
	"repro/internal/extrap"
	"repro/internal/hpcsim"
	"repro/internal/metricsdb"
	"repro/internal/pkgrepo"
	"repro/internal/ramble"
	"repro/internal/telemetry"
)

func TestSystemConfigsGenerate(t *testing.T) {
	for _, name := range []string{"cts1", "ats2", "ats4", "cloud-c5n", "fugaku-a64fx"} {
		sys, err := hpcsim.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		files, err := SystemConfigs(sys)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, f := range []string{"compilers.yaml", "packages.yaml", "spack.yaml", "variables.yaml"} {
			if files[f] == "" {
				t.Errorf("%s: missing %s", name, f)
			}
		}
		if _, err := ConcretizerConfig(sys); err != nil {
			t.Errorf("%s: concretizer config: %v", name, err)
		}
	}
	// Scheduler-specific launchers (Figure 12 for slurm; jsrun on ats2).
	ats2, _ := hpcsim.Get("ats2")
	files, _ := SystemConfigs(ats2)
	if !strings.Contains(files["variables.yaml"], "jsrun") {
		t.Errorf("ats2 variables.yaml should use jsrun:\n%s", files["variables.yaml"])
	}
	cts, _ := hpcsim.Get("cts1")
	files, _ = SystemConfigs(cts)
	if !strings.Contains(files["variables.yaml"], "srun -N {n_nodes} -n {n_ranks}") {
		t.Errorf("cts1 variables.yaml should match Figure 12:\n%s", files["variables.yaml"])
	}
	if !strings.Contains(files["packages.yaml"], "buildable: false") {
		t.Errorf("packages.yaml should pin externals like Figure 4:\n%s", files["packages.yaml"])
	}
}

func TestTable1(t *testing.T) {
	rows := ComponentMatrix()
	if len(rows) != 6 {
		t.Fatalf("Table 1 has %d rows, want 6", len(rows))
	}
	wantNames := []string{"Source code", "Build instructions", "Benchmark input",
		"Run instructions", "Experiment evaluation", "CI testing"}
	for i, r := range rows {
		if r.Name != wantNames[i] {
			t.Errorf("row %d = %q, want %q", i+1, r.Name, wantNames[i])
		}
	}
	tbl := ComponentTable()
	for _, want := range []string{"package.py", "application.py", "ramble.yaml: spack",
		"variables.yaml: scheduler, launcher", "Benchpark executable"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("rendered table missing %q", want)
		}
	}
}

// TestFigure1cQuickstart runs the full nine-step workflow: setup the
// saxpy suite on cts1, install software, run the 8 experiments of
// Figure 10 under the batch scheduler, analyze FOMs.
func TestFigure1cQuickstart(t *testing.T) {
	bp := New()
	sess, err := bp.Setup("saxpy/openmp", "cts1", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := sess.Run(context.Background(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != 8 {
		t.Fatalf("experiments = %d, want the Figure 10 matrix of 8", rep.Total)
	}
	if rep.Failed != 0 {
		for _, e := range rep.Experiments {
			if e.Status == ramble.Failed {
				t.Errorf("%s failed: %s", e.Name, e.FailMsg)
			}
		}
		t.Fatalf("%d experiments failed", rep.Failed)
	}
	// FOMs extracted per Figure 8.
	for _, e := range rep.Experiments {
		if e.FOMs["success"] != "Kernel done" {
			t.Errorf("%s: FOMs = %v", e.Name, e.FOMs)
		}
	}
	// Software was installed through Spack with the environment kept.
	installed, ok := sess.Envs["saxpy"]
	if !ok {
		t.Fatal("saxpy environment missing")
	}
	names := strings.Join(installed.PackageNames(), ",")
	for _, want := range []string{"saxpy", "cmake", "mvapich2"} {
		if !strings.Contains(names, want) {
			t.Errorf("environment packages %s missing %s", names, want)
		}
	}
	// The installed saxpy spec targets the system's microarchitecture.
	s, err := sess.InstalledSpec("saxpy")
	if err != nil {
		t.Fatal(err)
	}
	if s.Target != "broadwell" {
		t.Errorf("saxpy target = %q", s.Target)
	}
	// Results landed in the metrics database with manifests.
	results := bp.Metrics.Query(metricsdb.Filter{Benchmark: "saxpy", System: "cts1"})
	if len(results) != 8 {
		t.Fatalf("metrics results = %d", len(results))
	}
	if !strings.Contains(results[0].Manifest, "system-model: "+sess.System.Fingerprint()[:16]+"\n") {
		t.Errorf("manifest = %q", results[0].Manifest)
	}
	// Caliper profiles composed into the session thicket.
	if len(sess.Thicket.Runs) != 8 {
		t.Errorf("thicket runs = %d", len(sess.Thicket.Runs))
	}
	// Workspace directories materialized (Figure 1a).
	if err := sess.Workspace.Save(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Join(sess.Workspace.Root, "experiments", "saxpy", "problem"))
	if err != nil || len(entries) != 8 {
		t.Errorf("experiment dirs = %d, %v", len(entries), err)
	}
}

// reducedReport is the report's reduced reproduction, run once per
// test binary: every test that checks a paper study reads it.
var reducedReport = sync.OnceValues(func() (*reproduction, error) {
	return reproduce(context.Background(), false, 0)
})

// TestSection4Matrix: the report ran both paper benchmarks on all
// three paper systems (the Section 4 demonstration), every experiment
// passed, and the deployment's metrics database holds those systems.
func TestSection4Matrix(t *testing.T) {
	r, err := reducedReport()
	if err != nil {
		t.Fatal(err)
	}
	for i, cell := range section4Cells {
		if rep := r.section4[i]; rep.Failed > 0 || rep.Total == 0 {
			t.Errorf("%s on %s: %d/%d failed", cell.suite, cell.system, rep.Failed, rep.Total)
		}
	}
	if got := r.bp.Metrics.Systems(); !slices.Equal(got, []string{"ats2", "ats4", "cts1"}) {
		t.Errorf("systems in metrics db = %v", got)
	}
}

func TestGPUVariantRejectedOnCPUSystem(t *testing.T) {
	bp := New()
	if _, err := bp.Setup("saxpy/cuda", "cts1", t.TempDir()); err == nil {
		t.Error("cuda suite on cts1 should fail")
	}
	if _, err := bp.Setup("saxpy/rocm", "ats2", t.TempDir()); err == nil {
		t.Error("rocm suite on ats2 (V100) should fail")
	}
}

func TestUnknownSuiteAndSystem(t *testing.T) {
	bp := New()
	if _, err := bp.Setup("nope/nope", "cts1", t.TempDir()); err == nil {
		t.Error("unknown suite should fail")
	}
	if _, err := bp.Setup("saxpy/openmp", "summit", t.TempDir()); err == nil {
		t.Error("unknown system should fail")
	}
	if len(ExperimentTemplates()) < 8 {
		t.Errorf("templates = %v", ExperimentTemplates())
	}
}

// TestFigure14 checks the report's MPI_Bcast scaling study (at
// reduced scales) for the Extra-P model shape: linear in p with
// positive slope, matching the paper's -0.6356 + 0.0466*p.
func TestFigure14(t *testing.T) {
	r, err := reducedReport()
	if err != nil {
		t.Fatal(err)
	}
	res := r.fig14
	if res.Model.I != 1 || res.Model.J != 0 {
		t.Fatalf("model = %s; Figure 14 selects p^(1)", res.Model)
	}
	if res.Model.C1 <= 0 {
		t.Errorf("slope = %v, want positive", res.Model.C1)
	}
	// Slope within the paper's order of magnitude (0.0466 s/process).
	if res.Model.C1 < 0.005 || res.Model.C1 > 0.5 {
		t.Errorf("slope %v outside plausible band around 0.0466", res.Model.C1)
	}
	if math.IsNaN(res.Model.RSquared) || res.Model.RSquared < 0.95 {
		t.Errorf("fit quality R² = %v", res.Model.RSquared)
	}
	// Rendering includes the model caption and plot.
	txt := RenderFigure14(res)
	for _, want := range []string{"CTS Extra-P Model", "p^(1)", "*"} {
		if !strings.Contains(txt, want) {
			t.Errorf("render missing %q:\n%s", want, txt)
		}
	}
	// Without the last scale the model passes above the largest point,
	// and the plot's axis tops out at the model.
	short := &StudyResult{Measurements: res.Measurements[:len(res.Measurements)-1], Model: res.Model}
	if want := fmt.Sprintf("%8.1f s ┤", res.Model.Eval(short.Measurements[len(short.Measurements)-1].P)); !strings.Contains(RenderFigure14(short), want) {
		t.Errorf("plot without the last scale does not top out at %q:\n%s", want, RenderFigure14(short))
	}
	// Measurements recorded in the metrics database, one per scale.
	if got := r.bp.Metrics.Query(metricsdb.Filter{Workload: "osu_bcast"}); len(got) != len(figure14Reduced) {
		t.Errorf("recorded points = %d, want %d", len(got), len(figure14Reduced))
	}
}

func TestScalingStudyValidation(t *testing.T) {
	cts, _ := hpcsim.Get("cts1")
	st := &ScalingStudy{System: cts, Benchmark: "osu-micro-benchmarks",
		Workload: "osu_bcast", FOM: "total_time", Scales: []int{2, 4}}
	if _, err := st.Run(context.Background(), New(), 0); err == nil {
		t.Error("2 scales should fail")
	}
	st2 := &ScalingStudy{System: cts, Benchmark: "nope", Workload: "x",
		FOM: "t", Scales: []int{2, 4, 8}}
	if _, err := st2.Run(context.Background(), New(), 0); err == nil {
		t.Error("unknown benchmark should fail")
	}
}

// TestFigure6Automation drives the full automation loop with real
// benchmark execution inside the CI jobs.
func TestFigure6Automation(t *testing.T) {
	bp := New()
	auto, err := NewAutomation(bp, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res, err := auto.SubmitContribution(context.Background(), "jens", "add RIKEN results",
		map[string]string{"docs/riken.md": "notes"}, "olga")
	if err != nil {
		t.Fatal(err)
	}
	if res.Pipeline.Status() != ci.JobSuccess {
		for _, j := range res.Pipeline.Jobs {
			t.Logf("job %s: %s\n%s", j.Name, j.Status, j.Log)
		}
		t.Fatalf("pipeline = %v", res.Pipeline.Status())
	}
	if res.PR.State != ci.PRMerged {
		t.Errorf("PR state = %v", res.PR.State)
	}
	// The CI run produced metrics from both sites' runners.
	if len(res.Results) == 0 {
		t.Error("no benchmark results recorded by CI")
	}
	systems := map[string]bool{}
	for _, r := range res.Results {
		systems[r.System] = true
	}
	if !systems["cts1"] || !systems["cloud-c5n"] {
		t.Errorf("CI systems = %v, want cts1 and cloud-c5n", systems)
	}
	// Jacamar attributed the jobs: jens has no LLNL/AWS account, so
	// jobs ran as the approver.
	for _, entry := range auto.GitLab.Audit() {
		if entry.RunAs != "olga" {
			t.Errorf("audit: job %s ran as %q", entry.Job, entry.RunAs)
		}
	}
}

// TestSection71CloudIncident reproduces the Section 7.1 story through
// the system models: same binary, on-prem OK, cloud crash, diagnosis
// via archspec.
func TestSection71CloudIncident(t *testing.T) {
	onprem, _ := hpcsim.Get("onprem-icelake")
	cloud, _ := hpcsim.Get("cloud-m6i")
	m, err := onprem.Microarch()
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := onprem.CanRunBinary(m.Name); !ok {
		t.Fatal("binary must run on premise")
	}
	ok, reason := cloud.CanRunBinary(m.Name)
	if ok {
		t.Fatal("binary must crash on the cloud twin")
	}
	if !strings.Contains(reason, "SIGILL") {
		t.Errorf("reason = %q", reason)
	}
}

func TestAMGStrongScaling(t *testing.T) {
	cts, _ := hpcsim.Get("cts1")
	study, err := AMGStrongScalingStudy(cts, 16, 16, 64, []int{2, 4, 8, 16})
	if err != nil {
		t.Fatal(err)
	}
	bp := New()
	res, err := study.Run(context.Background(), bp, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Strong scaling: solve time should DECREASE (or at least not grow)
	// as ranks increase — the per-rank grid shrinks.
	first := res.Measurements[0].Value
	last := res.Measurements[len(res.Measurements)-1].Value
	if last >= first {
		t.Errorf("strong scaling broken: t(%v)=%v >= t(%v)=%v",
			res.Measurements[len(res.Measurements)-1].P, last, res.Measurements[0].P, first)
	}
	// Invalid decomposition rejected.
	if _, err := AMGStrongScalingStudy(cts, 16, 16, 64, []int{3}); err == nil {
		t.Error("non-dividing scale should fail")
	}
	if _, err := AMGStrongScalingStudy(cts, 16, 16, 64, []int{64}); err == nil {
		t.Error("1-plane slabs should fail")
	}
}

// TestResultsArtifactWritten: a saved run holds logs/results.json and,
// beside each experiment's script, the .out its analysis read.
func TestResultsArtifactWritten(t *testing.T) {
	bp := New()
	dir := t.TempDir()
	sess, err := bp.Setup("saxpy/openmp", "cts1", dir)
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := sess.Run(context.Background(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Workspace.Save(); err != nil {
		t.Fatal(err)
	}
	for _, e := range rep.Experiments {
		out, err := os.ReadFile(filepath.Join(e.Dir, e.Name+".out"))
		if err != nil || e.Output == "" || string(out) != e.Output {
			t.Errorf("%s: .out = %q (%v), want the analysed output %q", e.Name, out, err, e.Output)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, "logs", "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc["system"] != "cts1" || doc["passed"].(float64) != 8 {
		t.Errorf("artifact = %v", doc)
	}
	results := doc["results"].([]any)
	first := results[0].(map[string]any)
	if first["manifest"] == "" || first["status"] != "succeeded" {
		t.Errorf("first result = %v", first)
	}
}

// TestAnalysedExperimentIsOneRecord: the three consumers of an analysis
// agree. For every succeeded experiment of a traced run, the manifest in
// logs/results.json equals the row in the deployment's metrics database
// and the result a push would carry (ResultsFromReport over
// Session.Manifests), and those two are equal field for field — trace
// ID, Meta and n_threads included — but for the identity the database
// assigns (ID, Seq).
func TestAnalysedExperimentIsOneRecord(t *testing.T) {
	bp := New()
	dir := t.TempDir()
	sess, err := bp.Setup("saxpy/openmp", "cts1", dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx := telemetry.WithTracer(context.Background(), telemetry.New(telemetry.FixedClock{T: time.Unix(1700000000, 0)}))
	rep, erep, err := sess.Run(ctx, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Workspace.Save(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "logs", "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Results []struct{ Experiment, Manifest string }
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	artifact := map[string]string{}
	for _, r := range doc.Results {
		artifact[r.Experiment] = r.Manifest
	}
	byName := func(rs []metricsdb.Result) map[string]metricsdb.Result {
		out := map[string]metricsdb.Result{}
		for _, r := range rs {
			r.Seq = 0
			out[r.Experiment] = r
		}
		return out
	}
	local := byName(bp.Metrics.Query(metricsdb.Filter{}))
	pushed := byName(metricsdb.ResultsFromReport(erep, sess.Manifests(rep)))
	if rep.Succeeded != 8 || len(local) != 8 || len(pushed) != 8 {
		t.Fatalf("%d succeeded, %d in the local database, %d to push; want 8 each", rep.Succeeded, len(local), len(pushed))
	}
	for _, e := range rep.Experiments {
		l, p := local[e.Name], pushed[e.Name]
		if artifact[e.Name] == "" || artifact[e.Name] != l.Manifest {
			t.Errorf("%s: manifests differ:\nresults.json %q\nlocal        %q", e.Name, artifact[e.Name], l.Manifest)
		}
		if l.TraceID == "" || l.Meta["n_threads"] == "" || !reflect.DeepEqual(l, p) {
			t.Errorf("%s: local row\n%+v\npushed result\n%+v\nwant equal, with a trace ID and n_threads", e.Name, l, p)
		}
	}
}

// TestScratchSessionAlwaysRemoved: whether Setup refuses the suite or
// the callback fails, WithScratchSession leaves nothing under TMPDIR.
func TestScratchSessionAlwaysRemoved(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	boom := errors.New("boom")
	ran := false
	for _, suite := range []string{"no/such-suite", "saxpy/openmp"} {
		err := New().WithScratchSession(suite, "cts1", func(s *Session) error {
			ran = true
			if _, err := os.Stat(s.Workspace.Root); err != nil {
				t.Errorf("scratch workspace missing while in use: %v", err)
			}
			return boom
		})
		if err == nil || (suite == "saxpy/openmp") != errors.Is(err, boom) {
			t.Errorf("%s: error = %v", suite, err)
		}
		if left, err := os.ReadDir(tmp); err != nil || len(left) != 0 {
			t.Errorf("%s: TMPDIR holds %v (err %v), want it empty", suite, left, err)
		}
	}
	if !ran {
		t.Error("the callback never ran")
	}
}

// TestRenderedScriptDirectivesParse: the batch scripts real suites
// render carry their system's scheduler dialect (Figure 13), and
// scheduler.SubmitScript reads the experiment's own node count back out
// of the directives.
func TestRenderedScriptDirectivesParse(t *testing.T) {
	for _, tc := range []struct{ suite, system, directive string }{
		{"saxpy/openmp", "cts1", "#SBATCH -N"},
		{"saxpy/cuda", "ats2", "#BSUB -nnodes"},
		{"saxpy/rocm", "ats4", "#flux: -N"},
	} {
		sess, err := New().Setup(tc.suite, tc.system, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Workspace.Setup(); err != nil {
			t.Fatal(err)
		}
		widths := map[int]bool{}
		for _, e := range sess.Workspace.Experiments {
			if !strings.Contains(e.Script, tc.directive) {
				t.Errorf("%s: script of %s has no %q directive", tc.system, e.Name, tc.directive)
			}
			job, err := sess.Scheduler.SubmitScript(e.Name, e.Script, func() (float64, error) { return 1, nil })
			if err != nil {
				t.Fatalf("%s: %s: %v", tc.system, e.Name, err)
			}
			if job.Nodes != e.NNodes {
				t.Errorf("%s: %s parsed to %d nodes, the experiment has %d", tc.system, e.Name, job.Nodes, e.NNodes)
			}
			widths[job.Nodes] = true
		}
		if !widths[1] || !widths[2] {
			t.Errorf("%s: node widths parsed = %v, want 1 and 2", tc.system, widths)
		}
	}
}

// TestSetupInstallsSoftware: the session's install hook concretizes
// and installs every software environment the workspace names,
// keeping each one's concrete roots.
func TestSetupInstallsSoftware(t *testing.T) {
	sess, err := New().Setup("saxpy/openmp", "cts1", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Install(context.Background()); err != nil {
		t.Fatal(err)
	}
	if installed := sess.Envs["saxpy"]; installed == nil || len(installed.Roots) != 2 {
		t.Errorf("saxpy environment = %+v", installed)
	}
	if _, err := sess.InstalledSpec("saxpy"); err != nil {
		t.Error(err)
	}
}

// TestSetupInstallerFailurePropagates: an environment that cannot be
// installed fails the hook, naming the environment.
func TestSetupInstallerFailurePropagates(t *testing.T) {
	bp := New()
	bp.Repo = pkgrepo.NewRepo() // no recipes: nothing concretizes
	sess, err := bp.Setup("saxpy/openmp", "cts1", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	err = sess.Install(context.Background())
	if err == nil || !strings.Contains(err.Error(), "installing environment saxpy") {
		t.Errorf("err = %v", err)
	}
}

// TestFailurePropagatesThroughStack: an injected node fault fails the
// benchmark, the batch job, the experiment and its entry in
// logs/results.json, is reported as the experiment's execute error, and
// keeps the result out of the metrics database.
func TestFailurePropagatesThroughStack(t *testing.T) {
	bp := New()
	dir := t.TempDir()
	sess, err := bp.Setup("saxpy/openmp", "cts1", dir)
	if err != nil {
		t.Fatal(err)
	}
	// Inject the fault into every experiment, as an edit of ramble.yaml.
	raw, err := experiments.ReadFile("experiments/saxpy/openmp/ramble.yaml")
	if err != nil {
		t.Fatal(err)
	}
	yaml := string(raw)
	edited := strings.Replace(yaml, "variant: 'openmp'\n", "variant: 'openmp'\n            inject_failure: '0'\n", 1)
	if edited == yaml {
		t.Fatal("saxpy/openmp's ramble.yaml has no workload variant to inject the fault beside")
	}
	if err := sess.Workspace.Configure(edited); err != nil {
		t.Fatal(err)
	}
	rep, erep, err := sess.Run(context.Background(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Workspace.Save(); err != nil {
		t.Fatal(err)
	}
	if rep.Total != 8 || rep.Failed != rep.Total {
		t.Fatalf("failures = %d/%d", rep.Failed, rep.Total)
	}
	for _, e := range rep.Experiments {
		if !strings.Contains(e.FailMsg, "SIGBUS") {
			t.Errorf("%s: failmsg = %q", e.Name, e.FailMsg)
		}
	}
	if len(erep.Errors) != rep.Total {
		t.Errorf("engine report holds %d errors, want %d", len(erep.Errors), rep.Total)
	}
	for i, se := range erep.Errors {
		if se.Stage != engine.StageExecute || se.Experiment != rep.Experiments[i].Name {
			t.Errorf("error %d = %v, want %s's execute error", i, se, rep.Experiments[i].Name)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, "logs", "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Failed  int
		Results []struct{ Experiment, Status string }
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Failed != rep.Total || len(doc.Results) != rep.Total {
		t.Errorf("results.json counts %d failed of %d entries, want %d of %d", doc.Failed, len(doc.Results), rep.Total, rep.Total)
	}
	for _, r := range doc.Results {
		if r.Status != "failed" {
			t.Errorf("results.json: %s is %q, want failed", r.Experiment, r.Status)
		}
	}
	if bp.Metrics.Len() != 0 {
		t.Errorf("failed runs must not produce metrics, got %d", bp.Metrics.Len())
	}
}

// provisions numbers this test binary's cluster registrations, so every
// run of a test under -count=N provisions a cluster of its own name in
// the process-wide system registry.
var provisions atomic.Int64

// perRun returns base suffixed with a name no earlier run has taken.
func perRun(base string) string {
	return fmt.Sprintf("%s-%d", base, provisions.Add(1))
}

// TestSuiteOnProvisionedCloudCluster: cloud as "another platform"
// (Section 7.2) — a freshly provisioned cluster runs the standard
// suite by name, with software concretized for its detected target.
func TestSuiteOnProvisionedCloudCluster(t *testing.T) {
	name := perRun("test-burst")
	if _, err := hpcsim.ProvisionCloudCluster(name, "hpc7g.16xlarge", 32); err != nil {
		t.Fatal(err)
	}
	bp := New()
	sess, err := bp.Setup("saxpy/openmp", name, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := sess.Run(context.Background(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed > 0 {
		t.Fatalf("%d failed on the provisioned cluster", rep.Failed)
	}
	s, err := sess.InstalledSpec("saxpy")
	if err != nil {
		t.Fatal(err)
	}
	if s.Target != "neoverse_v1" {
		t.Errorf("saxpy target = %q, want the Graviton target", s.Target)
	}
}

// TestGenerateReport: the report renders the shared run, Figure 14's
// model family matching the paper's, and a failed run or write is
// returned.
func TestGenerateReport(t *testing.T) {
	r, err := reducedReport()
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := r.write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# Benchpark reproduction report",
		"Table 1", "Figure 14", "Section 4",
		"p^(1)", "MATCH",
		"A1 unified concretization",
		"A2 binary cache",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if strings.Contains(out, "MISMATCH") {
		t.Error("Figure 14 model family mismatched")
	}

	full := errors.New("disk full")
	pr, pw := io.Pipe()
	pr.CloseWithError(full) // every write to pw fails with full
	if err := r.write(pw); !errors.Is(err, full) {
		t.Errorf("write to a failing writer returned %v, want %v", err, full)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	buf.Reset()
	if err := GenerateReport(ctx, &buf, false, 0); !errors.Is(err, context.Canceled) || buf.Len() != 0 {
		t.Errorf("report under a cancelled context: err %v, wrote %d bytes; want context.Canceled and nothing", err, buf.Len())
	}
}

func TestParallelEfficiency(t *testing.T) {
	// Ideal strong scaling: time halves as p doubles.
	data := []extrap.Measurement{
		{P: 2, Value: 8}, {P: 4, Value: 4}, {P: 8, Value: 2}, {P: 16, Value: 1.25},
	}
	rows := ParallelEfficiency(data)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Speedup != 1 || rows[0].Efficiency != 1 {
		t.Errorf("baseline row = %+v", rows[0])
	}
	if rows[2].Speedup != 4 || math.Abs(rows[2].Efficiency-1) > 1e-9 {
		t.Errorf("ideal row = %+v", rows[2])
	}
	// The 16-rank point lost efficiency (1.25 > 1.0 ideal).
	if rows[3].Efficiency >= 1 {
		t.Errorf("degraded row = %+v", rows[3])
	}
	if ParallelEfficiency(nil) != nil {
		t.Error("empty input")
	}
}

// TestNightlyContinuousRuns: repeated nightly pipelines build the
// time series that Section 1's in-service tracking needs; the series
// is reproducible night over night.
func TestNightlyContinuousRuns(t *testing.T) {
	bp := New()
	auto, err := NewAutomation(bp, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for night := 0; night < 2; night++ {
		p, err := auto.RunNightly(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if p.Status() != ci.JobSuccess {
			for _, j := range p.Jobs {
				t.Logf("%s: %s\n%s", j.Name, j.Status, j.Log)
			}
			t.Fatalf("night %d pipeline: %v", night, p.Status())
		}
		if p.TriggeredBy != "benchpark-bot" {
			t.Errorf("triggered by %q", p.TriggeredBy)
		}
	}
	// Two nights × 2 site jobs × 8 experiments.
	series := bp.Metrics.Series(metricsdb.Filter{
		Benchmark: "saxpy", System: "cts1", Experiment: "saxpy_openmp_512_1_8_2",
	}, "saxpy_time")
	if len(series) != 2 {
		t.Fatalf("series = %v", series)
	}
	if series[0].Value != series[1].Value {
		t.Error("nightly series not reproducible")
	}
	// Regression detection is per-experiment (mixing the matrix's
	// different problem sizes in one series would be meaningless).
	regs := bp.Metrics.DetectRegressions(metricsdb.Filter{
		Benchmark: "saxpy", System: "cts1", Experiment: "saxpy_openmp_512_1_8_2",
	}, "saxpy_time", 4, 1.2)
	if len(regs) != 0 {
		t.Errorf("healthy nights flagged: %v", regs)
	}
}

// TestCaliFilesWritten: every experiment leaves a loadable .cali
// profile next to its output.
func TestCaliFilesWritten(t *testing.T) {
	bp := New()
	sess, err := bp.Setup("saxpy/openmp", "cts1", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := sess.Run(context.Background(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Workspace.Save(); err != nil {
		t.Fatal(err)
	}
	e := rep.Experiments[0]
	data, err := os.ReadFile(filepath.Join(e.Dir, e.Name+".cali"))
	if err != nil {
		t.Fatalf("cali file: %v", err)
	}
	var p caliper.Profile
	if err := json.Unmarshal(data, &p); err != nil {
		t.Fatal(err)
	}
	if p.Regions["main/saxpy_kernel"].Count == 0 {
		t.Errorf("regions = %v", p.Paths())
	}
}

// TestAMGCubeSuite: the 3-D decomposition flows through the whole
// Benchpark stack (ramble vars → bench kernel → FOMs).
func TestAMGCubeSuite(t *testing.T) {
	bp := New()
	sess, err := bp.Setup("amg2023/cube", "cts1", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := sess.Run(context.Background(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != 1 || rep.Failed != 0 {
		t.Fatalf("cube suite: %d/%d failed", rep.Failed, rep.Total)
	}
	e := rep.Experiments[0]
	if e.Name != "amg2023_cube_2x2x2" {
		t.Errorf("name = %q", e.Name)
	}
	if !strings.Contains(e.Output, "(P 2x2x2)") {
		t.Errorf("decomposition not threaded through:\n%s", e.Output)
	}
	if e.NRanks != 8 {
		t.Errorf("ranks = %d", e.NRanks)
	}
}
