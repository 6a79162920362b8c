package ramble

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
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

// TestFigure10ExperimentGeneration checks the exact experiment set the
// paper's configuration generates: the size_threads matrix crosses
// n × n_threads (4 combos) and the remaining vectors
// processes_per_node/n_nodes zip (2 combos) -> 8 experiments.
func TestFigure10ExperimentGeneration(t *testing.T) {
	w := figure10Workspace(t)
	if err := w.Setup(nil); err != nil {
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
	if err := w.Setup(nil); err != nil {
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

func TestSetupInstallsSoftware(t *testing.T) {
	w := figure10Workspace(t)
	calls := map[string][]string{}
	err := w.Setup(func(env string, specs []string) error {
		calls[env] = specs
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls["saxpy"]) != 2 {
		t.Errorf("installer calls = %v", calls)
	}
}

func TestSetupInstallerFailurePropagates(t *testing.T) {
	w := figure10Workspace(t)
	err := w.Setup(func(env string, specs []string) error {
		return fmt.Errorf("no compiler on this system")
	})
	if err == nil || !strings.Contains(err.Error(), "no compiler") {
		t.Errorf("err = %v", err)
	}
}

func TestOnAndAnalyze(t *testing.T) {
	w := figure10Workspace(t)
	if err := w.Setup(nil); err != nil {
		t.Fatal(err)
	}
	// Fake executor: succeed for n=512, fail criteria for n=1024.
	err := w.On(func(e *Experiment) (string, float64, error) {
		n, _ := e.Expander.Expand("{n}")
		if n == "512" {
			return "saxpy: ok\nsaxpy_time: 0.001 s\nKernel done\n", 0.001, nil
		}
		return "crashed before kernel\n", 0.0005, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := w.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != 8 || rep.Succeeded != 4 || rep.Failed != 4 {
		t.Fatalf("report = %+v", rep)
	}
	if err := w.Save(); err != nil {
		t.Fatal(err)
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
			// Output file written to the experiment dir.
			if _, err := os.Stat(filepath.Join(e.Dir, e.Name+".out")); err != nil {
				t.Errorf("%s: output file missing", e.Name)
			}
		} else if e.Status != Failed {
			t.Errorf("%s: expected failure, got %v", e.Name, e.Status)
		}
	}
}

func TestExecutorErrorMarksFailed(t *testing.T) {
	w := figure10Workspace(t)
	if err := w.Setup(nil); err != nil {
		t.Fatal(err)
	}
	if err := w.On(func(e *Experiment) (string, float64, error) {
		return "", 0, fmt.Errorf("node failure")
	}); err != nil {
		t.Fatal(err)
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
	if err := w.Setup(nil); err == nil {
		t.Error("Setup before Configure should fail")
	}
	if err := w.On(nil); err == nil {
		t.Error("On before Setup should fail")
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
	if err := w.Setup(nil); err == nil || !strings.Contains(err.Error(), "equal lengths") {
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
	if err := w.Setup(nil); err == nil || !strings.Contains(err.Error(), "duplicate experiment name") {
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
	if err := w.Setup(nil); err == nil {
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
	if err := w.Setup(nil); err == nil {
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
	if err := w.Setup(nil); err != nil {
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
		err = w.Setup(nil)
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
	if err := w.Setup(nil); err != nil {
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
	if err := w.Setup(nil); err != nil {
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
