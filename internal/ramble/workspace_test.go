package ramble

import (
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/yamlite"
)

// figure10YAML is the paper's ramble.yaml (Figure 10), with the
// Figure 9 spack.yaml and Figure 12 variables.yaml as includes.
const figure10YAML = `
ramble:
  include:
  - ./configs/spack.yaml
  - ./configs/variables.yaml
  config:
    deprecated: true
    spack_flags:
      install: '--add --keep-stage'
      concretize: '-U -f'
  applications:
    saxpy:
      workloads:
        problem:
          env_vars:
            set:
              OMP_NUM_THREADS: '{n_threads}'
          variables:
            n_ranks: '8'
            batch_time: '120'
          experiments:
            saxpy_{n}_{n_nodes}_{n_ranks}_{n_threads}:
              variables:
                processes_per_node: ['8', '4']
                n_nodes: ['1', '2']
                n_threads: ['2', '4']
                n: ['512', '1024']
              matrices:
              - size_threads:
                - n
                - n_threads
  spack:
    packages:
      saxpy:
        spack_spec: saxpy@1.0.0 +openmp ^cmake@3.23.1
        compiler: default-compiler
    environments:
      saxpy:
        packages:
        - default-mpi
        - saxpy
`

const figure9SpackYAML = `
spack:
  packages:
    default-compiler:
      spack_spec: gcc@12.1.1
    default-mpi:
      spack_spec: mvapich2@2.3.7-gcc12.1.1
    gcc1211:
      spack_spec: gcc@12.1.1
    lapack:
      spack_spec: intel-oneapi-mkl@2022.1.0
    mpi-compilers:
      spack_spec: mvapich2@2.3.7-compilers
`

const figure12VariablesYAML = `
variables:
  mpi_command: 'srun -N {n_nodes} -n {n_ranks}'
  batch_submit: 'sbatch {execute_experiment}'
  batch_nodes: '#SBATCH -N {n_nodes}'
  batch_ranks: '#SBATCH -n {n_ranks}'
  batch_timeout: '#SBATCH -t {batch_time}:00'
  compilers: [gcc1211, intel202160classic]
`

func figure10Workspace(t *testing.T) *Workspace {
	t.Helper()
	w, err := NewWorkspace("fig10", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w.WriteConfig("spack.yaml", figure9SpackYAML)
	w.WriteConfig("variables.yaml", figure12VariablesYAML)
	if err := w.Configure(figure10YAML); err != nil {
		t.Fatal(err)
	}
	return w
}

// TestConfigureTwiceGivesEqualTrees: Configure merges its parsed
// trees by moving them, so each call builds its effective tree from
// its own parse. Configuring again after Setup gives an equal tree
// that shares nothing with the first.
func TestConfigureTwiceGivesEqualTrees(t *testing.T) {
	w := figure10Workspace(t)
	first := w.Effective()
	want := yamlite.Marshal(first)
	if err := w.Setup(); err != nil {
		t.Fatal(err)
	}
	if err := w.Configure(figure10YAML); err != nil {
		t.Fatal(err)
	}
	second := w.Effective()
	if got := yamlite.Marshal(second); got != want {
		t.Fatalf("second Configure gives\n%s\nfirst gave\n%s", got, want)
	}
	if got := yamlite.Marshal(first); got != want {
		t.Errorf("Setup changed the effective tree:\n%s\nwant\n%s", got, want)
	}
	first.GetMap("spack").GetMap("packages").Set("default-mpi", "changed")
	first.GetMap("variables").Set("n_ranks", "changed")
	if got := yamlite.Marshal(second); got != want {
		t.Errorf("the second tree shares maps with the first:\n%s", got)
	}
}

// TestFigure10ExperimentGeneration checks the exact experiment set the
// paper's configuration generates: the size_threads matrix crosses
// n × n_threads (4 combos) and the remaining vectors
// processes_per_node/n_nodes zip (2 combos) -> 8 experiments.
func TestFigure10ExperimentGeneration(t *testing.T) {
	w := figure10Workspace(t)
	if err := w.Setup(); err != nil {
		t.Fatal(err)
	}
	if len(w.Experiments) != 8 {
		names := []string{}
		for _, e := range w.Experiments {
			names = append(names, e.Name)
		}
		t.Fatalf("generated %d experiments, want 8: %v", len(w.Experiments), names)
	}
	var names []string
	for _, e := range w.Experiments {
		names = append(names, e.Name)
	}
	sort.Strings(names)
	// n_ranks fixed at 8 by the workload variables (Figure 10 line 18).
	want := []string{
		"saxpy_1024_1_8_2", "saxpy_1024_1_8_4", "saxpy_1024_2_8_2", "saxpy_1024_2_8_4",
		"saxpy_512_1_8_2", "saxpy_512_1_8_4", "saxpy_512_2_8_2", "saxpy_512_2_8_4",
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("experiment names = %v, want %v", names, want)
		}
	}
	// Environment variable rendering: OMP_NUM_THREADS={n_threads}.
	for _, e := range w.Experiments {
		th, _ := e.Expander.Expand("{n_threads}")
		if e.Env["OMP_NUM_THREADS"] != th {
			t.Errorf("%s: OMP_NUM_THREADS = %q, want %q", e.Name, e.Env["OMP_NUM_THREADS"], th)
		}
	}
}

func TestFigure13ScriptRendering(t *testing.T) {
	w := figure10Workspace(t)
	if err := w.Setup(); err != nil {
		t.Fatal(err)
	}
	e := w.Experiments[0]
	for _, want := range []string{
		"#!/bin/bash",
		"#SBATCH -N ", // batch_nodes rendered
		"#SBATCH -n 8",
		"cd " + e.Dir,
		"srun -N ", // mpi_command prefix
		"saxpy -n ",
	} {
		if !strings.Contains(e.Script, want) {
			t.Errorf("script missing %q:\n%s", want, e.Script)
		}
	}
	// The script exists on disk (Figure 1a generated workspace).
	if err := w.Save(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(e.Dir, "execute_experiment.sh")); err != nil {
		t.Errorf("script not materialized: %v", err)
	}
}

func TestSoftwareEnvironmentResolution(t *testing.T) {
	w := figure10Workspace(t)
	envs, err := w.SoftwareEnvironments()
	if err != nil {
		t.Fatal(err)
	}
	specs, ok := envs["saxpy"]
	if !ok || len(specs) != 2 {
		t.Fatalf("envs = %v", envs)
	}
	// default-mpi alias resolved via the included Figure 9 spack.yaml.
	if specs[0] != "mvapich2@2.3.7-gcc12.1.1" {
		t.Errorf("specs[0] = %q", specs[0])
	}
	// saxpy spec gains its compiler alias expansion.
	if specs[1] != "saxpy@1.0.0 +openmp ^cmake@3.23.1 %gcc@12.1.1" {
		t.Errorf("specs[1] = %q", specs[1])
	}
}

func TestOnAndAnalyze(t *testing.T) {
	w := figure10Workspace(t)
	if err := w.Setup(); err != nil {
		t.Fatal(err)
	}
	// As a run leaves them: n=512 ran, n=1024 crashed before the
	// kernel and fails the success criteria.
	for _, e := range w.Experiments {
		e.Output, e.Elapsed, e.Status = "crashed before kernel\n", 0.0005, Succeeded
		if n, _ := e.Expander.Expand("{n}"); n == "512" {
			e.Output, e.Elapsed = "saxpy: ok\nsaxpy_time: 0.001 s\nKernel done\n", 0.001
		}
	}
	rep, err := w.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != 8 || rep.Succeeded != 4 || rep.Failed != 4 {
		t.Fatalf("report = %+v", rep)
	}
	for _, e := range rep.Experiments {
		n, _ := e.Expander.Expand("{n}")
		if n == "512" {
			if e.Status != Succeeded {
				t.Errorf("%s: status %v (%s)", e.Name, e.Status, e.FailMsg)
			}
			if e.FOMs["success"] != "Kernel done" {
				t.Errorf("%s: FOMs = %v", e.Name, e.FOMs)
			}
			if e.FOMs["saxpy_time"] != "0.001" {
				t.Errorf("%s: saxpy_time = %q", e.Name, e.FOMs["saxpy_time"])
			}
		} else if e.Status != Failed {
			t.Errorf("%s: expected failure, got %v", e.Name, e.Status)
		}
	}
}

// TestFailedExperimentStaysFailed: Analyze keeps the failure a run
// recorded, with its reason, instead of checking an output it lacks.
func TestFailedExperimentStaysFailed(t *testing.T) {
	w := figure10Workspace(t)
	if err := w.Setup(); err != nil {
		t.Fatal(err)
	}
	for _, e := range w.Experiments {
		e.Status, e.FailMsg = Failed, "node failure"
	}
	rep, _ := w.Analyze()
	if rep.Failed != rep.Total {
		t.Errorf("report = %+v", rep)
	}
	if !strings.Contains(rep.Experiments[0].FailMsg, "node failure") {
		t.Errorf("failmsg = %q", rep.Experiments[0].FailMsg)
	}
}

func TestLifecycleOrderEnforced(t *testing.T) {
	w, err := NewWorkspace("order", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Setup(); err == nil {
		t.Error("Setup before Configure should fail")
	}
	if _, err := w.Analyze(); err == nil {
		t.Error("Analyze before Setup should fail")
	}
}

func TestZipLengthMismatchRejected(t *testing.T) {
	w, err := NewWorkspace("zip", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := `
ramble:
  applications:
    saxpy:
      workloads:
        problem:
          experiments:
            saxpy_{n}_{n_nodes}:
              variables:
                n: ['1', '2', '3']
                n_nodes: ['1', '2']
`
	if err := w.Configure(cfg); err != nil {
		t.Fatal(err)
	}
	if err := w.Setup(); err == nil || !strings.Contains(err.Error(), "equal lengths") {
		t.Errorf("err = %v", err)
	}
}

func TestDuplicateExperimentNamesRejected(t *testing.T) {
	w, err := NewWorkspace("dup", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := `
ramble:
  applications:
    saxpy:
      workloads:
        problem:
          experiments:
            saxpy_static:
              variables:
                n: ['1', '2']
`
	if err := w.Configure(cfg); err != nil {
		t.Fatal(err)
	}
	if err := w.Setup(); err == nil || !strings.Contains(err.Error(), "duplicate experiment name") {
		t.Errorf("err = %v", err)
	}
}

func TestUnknownApplicationRejected(t *testing.T) {
	w, err := NewWorkspace("unk", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := `
ramble:
  applications:
    not-an-app:
      workloads:
        problem:
          experiments:
            x:
              variables: {}
`
	if err := w.Configure(cfg); err != nil {
		t.Fatal(err)
	}
	if err := w.Setup(); err == nil {
		t.Error("unknown application should fail")
	}
}

func TestUnknownWorkloadRejected(t *testing.T) {
	w, err := NewWorkspace("wl", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := `
ramble:
  applications:
    saxpy:
      workloads:
        no-such-workload:
          experiments:
            x:
              variables: {}
`
	if err := w.Configure(cfg); err != nil {
		t.Fatal(err)
	}
	if err := w.Setup(); err == nil {
		t.Error("unknown workload should fail")
	}
}

func TestDerivedGeometry(t *testing.T) {
	w, err := NewWorkspace("geom", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := `
ramble:
  applications:
    saxpy:
      workloads:
        problem:
          experiments:
            saxpy_geom:
              variables:
                n_nodes: '4'
                processes_per_node: '16'
                n_threads: '2'
                n: '64'
`
	if err := w.Configure(cfg); err != nil {
		t.Fatal(err)
	}
	if err := w.Setup(); err != nil {
		t.Fatal(err)
	}
	e := w.Experiments[0]
	if e.NNodes != 4 || e.ProcsPerNode != 16 || e.NRanks != 64 || e.NThreads != 2 {
		t.Errorf("geometry = %d nodes %d ppn %d ranks %d threads",
			e.NNodes, e.ProcsPerNode, e.NRanks, e.NThreads)
	}
}

// TestBatchTimeParsedOnce: batch_time is a number of minutes, read
// from its expanded value when the experiment is built; text that is
// not a number fails Setup instead of silently becoming a different
// limit ("2h" used to scan as 2 minutes, "soon" as the 60-minute
// default).
func TestBatchTimeParsedOnce(t *testing.T) {
	for _, tc := range []struct {
		value   string
		want    float64
		wantErr string
	}{
		{value: "soon", wantErr: `ramble: batch_time="soon" is not a number`},
		{value: "2h", wantErr: `ramble: batch_time="2h" is not a number`},
		{value: "'90'", want: 90},
		{value: "'{n_nodes*minutes_per_node}'", want: 120},
	} {
		w, err := NewWorkspace("batchtime", t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		err = w.Configure(`
ramble:
  applications:
    saxpy:
      workloads:
        problem:
          experiments:
            saxpy_bt:
              variables:
                n_nodes: '4'
                minutes_per_node: '30'
                n: '64'
                batch_time: ` + tc.value + "\n")
		if err != nil {
			t.Fatal(err)
		}
		err = w.Setup()
		switch {
		case tc.wantErr != "":
			if err == nil || !strings.HasSuffix(err.Error(), tc.wantErr) {
				t.Errorf("batch_time: %s: Setup error = %v, want %s", tc.value, err, tc.wantErr)
			}
		case err != nil:
			t.Errorf("batch_time: %s: %v", tc.value, err)
		case w.Experiments[0].BatchTime != tc.want:
			t.Errorf("batch_time: %s parsed to %v minutes, want %v", tc.value, w.Experiments[0].BatchTime, tc.want)
		}
	}
}

func TestApplicationRegistryValidation(t *testing.T) {
	bad := NewApplication("bad-app").AddWorkload("w", "nonexistent-exe")
	if err := bad.Validate(); err == nil {
		t.Error("workload with unknown executable should fail validation")
	}
	bad2 := NewApplication("bad2")
	if err := bad2.Validate(); err == nil {
		t.Error("application without workloads should fail")
	}
	bad3 := NewApplication("bad3").
		AddExecutable("e", "run", false).
		AddWorkload("w", "e").
		AddFOM("f", `(?P<x>\d+`, "x", "")
	if err := bad3.Validate(); err == nil {
		t.Error("bad regex should fail")
	}
	bad4 := NewApplication("bad4").
		AddExecutable("e", "run", false).
		AddWorkload("w", "e").
		AddFOM("f", `(?P<x>\d+)`, "missing_group", "")
	if err := bad4.Validate(); err == nil {
		t.Error("missing group should fail")
	}
}

func TestExtractFOMsAndSuccess(t *testing.T) {
	app, err := GetApplication("amg2023")
	if err != nil {
		t.Fatal(err)
	}
	output := `AMG2023 proxy: grid 32x32x32 per rank
Setup time: 0.123456 s
Solve time: 1.500000 s
Iterations: 12 (converged)
Figure of Merit (FOM_Solve): 2.6214e+06
Kernel done
`
	foms := app.ExtractFOMs(output)
	if foms["setup_time"] != "0.123456" || foms["solve_time"] != "1.500000" ||
		foms["iterations"] != "12" {
		t.Errorf("FOMs = %v", foms)
	}
	if err := app.CheckSuccess(output); err != nil {
		t.Errorf("success: %v", err)
	}
	if err := app.CheckSuccess("incomplete output"); err == nil {
		t.Error("missing criteria should fail")
	}
}

// TestExcludeFilters: the exclude construct prunes infeasible corners
// from the generated matrix.
func TestExcludeFilters(t *testing.T) {
	w, err := NewWorkspace("excl", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := `
ramble:
  applications:
    saxpy:
      workloads:
        problem:
          experiments:
            saxpy_{n}_{n_nodes}:
              variables:
                n: ['512', '1024']
                n_nodes: ['1', '2']
              matrices:
              - grid:
                - n
                - n_nodes
              exclude:
                variables:
                - n: '1024'
                  n_nodes: '1'
`
	if err := w.Configure(cfg); err != nil {
		t.Fatal(err)
	}
	if err := w.Setup(); err != nil {
		t.Fatal(err)
	}
	if len(w.Experiments) != 3 {
		names := []string{}
		for _, e := range w.Experiments {
			names = append(names, e.Name)
		}
		t.Fatalf("experiments = %v, want 3 (1024/1 excluded)", names)
	}
	for _, e := range w.Experiments {
		if e.Name == "saxpy_1024_1" {
			t.Error("excluded combination generated")
		}
	}
}

// TestPerExperimentTemplate: an experiment can carry its own
// execute_experiment.tpl (Figure 1a's per-variant template files).
func TestPerExperimentTemplate(t *testing.T) {
	w, err := NewWorkspace("tpl", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := `
ramble:
  applications:
    saxpy:
      workloads:
        problem:
          experiments:
            custom:
              template: |-
                #!/bin/bash
                # per-experiment template for {experiment_name}
                {command}
              variables:
                n: '4'
            standard:
              variables:
                n: '8'
`
	if err := w.Configure(cfg); err != nil {
		t.Fatal(err)
	}
	if err := w.Setup(); err != nil {
		t.Fatal(err)
	}
	byName := map[string]*Experiment{}
	for _, e := range w.Experiments {
		byName[e.Name] = e
	}
	if !strings.Contains(byName["custom"].Script, "# per-experiment template for custom") {
		t.Errorf("custom template not used:\n%s", byName["custom"].Script)
	}
	if strings.Contains(byName["custom"].Script, "#SBATCH") {
		t.Error("custom template should replace the default entirely")
	}
	if !strings.Contains(byName["standard"].Script, "#SBATCH") {
		t.Errorf("sibling experiment lost the default template:\n%s", byName["standard"].Script)
	}
}

// TestFOMDirectionFromUnits: every built-in FOM's direction follows from
// the units it declares — times and times per unit of work are better
// lower, rates and unitless counts better higher.
func TestFOMDirectionFromUnits(t *testing.T) {
	lower := map[string]bool{
		"saxpy_time": true, "setup_time": true, "solve_time": true,
		"grind_time": true, "total_time": true, "avg_latency": true,
	}
	for _, app := range ApplicationNames() {
		a, _ := GetApplication(app)
		for _, f := range a.FOMs {
			if got := FOMLowerIsBetter(app, f.Name); got != lower[f.Name] {
				t.Errorf("%s/%s (%q): lower is better = %v, want %v", app, f.Name, f.Units, got, lower[f.Name])
			}
			if want := map[bool]float64{true: 1.2, false: 0.8}[lower[f.Name]]; RegressionThreshold(app, f.Name) != want {
				t.Errorf("%s/%s: regression threshold %v, want %v", app, f.Name, RegressionThreshold(app, f.Name), want)
			}
		}
	}
	if FOMLowerIsBetter("saxpy", "nosuchfom") || FOMLowerIsBetter("nosuchapp", "saxpy_time") {
		t.Error("an undeclared FOM should count as a rate")
	}
	// ...but regresses upward, as the results service has always judged it.
	if RegressionThreshold("saxpy", "nosuchfom") != 1.2 || RegressionThreshold("nosuchapp", "saxpy_time") != 1.2 {
		t.Error("an undeclared FOM should regress past 1.2x its baseline")
	}
}

// TestTemplateExpansionOrderAndPrecedence pins the expansion rule: the
// zipped vectors form the outermost axis, then each matrix variable in
// matrix order, the last varying fastest; an exclusion drops whole
// combinations; and every variable comes from the highest layer that
// sets it — built-in < modifier < application default < global <
// workload < experiment.
func TestTemplateExpansionOrderAndPrecedence(t *testing.T) {
	modifierRegistry["pin-layers"] = &Modifier{
		Name: "pin-layers",
		Variables: map[string]string{
			"spack_setup": "modifier", "tolerance": "modifier",
			"max_iterations": "modifier", "px": "modifier", "py": "modifier",
		},
		EnvVars: map[string]string{"PIN_ENV": "modifier", "PIN_RANKS": "{n_ranks}"},
	}
	t.Cleanup(func() { delete(modifierRegistry, "pin-layers") })
	w, err := NewWorkspace("pin", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := `
ramble:
  variables:
    max_iterations: 'global'
    px: 'global'
    py: 'global'
  applications:
    amg2023:
      workloads:
        problem1:
          modifiers: [pin-layers]
          env_vars:
            set:
              PIN_ENV: 'workload'
          variables:
            px: 'workload'
            py: 'workload'
          experiments:
            pin_{nx}_{ny}_{nz}_{n_nodes}_{processes_per_node}:
              variables:
                py: 'experiment'
                nx: ['8', '16']
                ny: ['4', '2']
                nz: ['1', '2']
                n_nodes: ['1', '2']
                processes_per_node: ['1', '4']
              matrices:
              - depth:
                - nz
              - grid:
                - n_nodes
                - processes_per_node
              exclude:
                variables:
                - nz: '2'
                  n_nodes: '2'
`
	if err := w.Configure(cfg); err != nil {
		t.Fatal(err)
	}
	if err := w.Setup(); err != nil {
		t.Fatal(err)
	}
	want := []struct {
		name  string
		nodes int
		ranks int
	}{
		{"pin_8_4_1_1_1", 1, 1}, {"pin_8_4_1_1_4", 1, 4}, {"pin_8_4_1_2_1", 2, 2}, {"pin_8_4_1_2_4", 2, 8},
		{"pin_8_4_2_1_1", 1, 1}, {"pin_8_4_2_1_4", 1, 4},
		{"pin_16_2_1_1_1", 1, 1}, {"pin_16_2_1_1_4", 1, 4}, {"pin_16_2_1_2_1", 2, 2}, {"pin_16_2_1_2_4", 2, 8},
		{"pin_16_2_2_1_1", 1, 1}, {"pin_16_2_2_1_4", 1, 4},
	}
	if len(w.Experiments) != len(want) {
		var names []string
		for _, e := range w.Experiments {
			names = append(names, e.Name)
		}
		t.Fatalf("generated %v, want %d experiments", names, len(want))
	}
	for i, e := range w.Experiments {
		if e.Name != want[i].name || e.NNodes != want[i].nodes || e.NRanks != want[i].ranks {
			t.Errorf("experiment %d = %s (%d nodes, %d ranks), want %s (%d nodes, %d ranks)",
				i, e.Name, e.NNodes, e.NRanks, want[i].name, want[i].nodes, want[i].ranks)
		}
		for k, v := range map[string]string{
			"batch_time":      "60",         // built-in
			"spack_setup":     "modifier",   // beats the built-in
			"tolerance":       "1e-8",       // application default beats the modifier
			"max_iterations":  "global",     // beats the application default
			"px":              "workload",   // beats global
			"py":              "experiment", // beats the workload
			"experiment_name": e.Name,
		} {
			if got, err := e.Expander.ExpandVar(k); err != nil || got != v {
				t.Errorf("%s: %s = %q (%v), want %q", e.Name, k, got, err, v)
			}
		}
		if e.Env["PIN_ENV"] != "workload" || e.Env["PIN_RANKS"] != strconv.Itoa(want[i].ranks) {
			t.Errorf("%s: env = %v, want the workload's PIN_ENV over the modifier's", e.Name, e.Env)
		}
	}
}
