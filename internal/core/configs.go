// Package core is Benchpark itself: the driver that combines the
// Spack layer (spec/concretizer/install), the Ramble layer
// (workspaces/experiments), the system models, the batch scheduler,
// the benchmarks, and the analysis stack (Caliper/Adiak/Thicket/
// Extra-P) into the collaborative continuous benchmarking workflow of
// the paper — Figure 1's directory structure, component interaction,
// and nine-step user workflow.
package core

import (
	"embed"
	"fmt"
	"io/fs"
	"path"
	"slices"
	"strconv"
	"strings"

	"repro/internal/concretizer"
	"repro/internal/hpcsim"
)

// SystemConfigs renders the system-specific configuration files of
// Figure 1a's configs/<system>/ directory: compilers.yaml,
// packages.yaml (Figure 4), spack.yaml (Figure 9) and variables.yaml
// (Figure 12), derived from the simulated system's profile.
func SystemConfigs(sys *hpcsim.System) (map[string]string, error) {
	arch, err := sys.Microarch()
	if err != nil {
		return nil, err
	}
	compiler, mpi, blas := systemToolchain(sys)

	var compilers strings.Builder
	compilers.WriteString("compilers:\n")
	for _, c := range []string{compiler, "gcc@12.1.1"} {
		fmt.Fprintf(&compilers, "- compiler:\n    spec: %s\n    prefix: /usr/tce/%s\n",
			c, strings.ReplaceAll(c, "@", "-"))
		if c == compiler && compiler == "gcc@12.1.1" {
			break // avoid duplicating gcc
		}
	}

	var packages strings.Builder
	packages.WriteString("packages:\n")
	fmt.Fprintf(&packages, "  mpi:\n    externals:\n    - spec: %s\n      prefix: /usr/tce/%s\n    buildable: false\n",
		mpi, specDir(mpi))
	fmt.Fprintf(&packages, "  blas:\n    externals:\n    - spec: %s\n      prefix: /usr/tce/%s\n    buildable: false\n",
		blas, specDir(blas))
	fmt.Fprintf(&packages, "  lapack:\n    externals:\n    - spec: %s\n      prefix: /usr/tce/%s\n    buildable: false\n",
		blas, specDir(blas))
	fmt.Fprintf(&packages, "  all:\n    compiler: [%s]\n    target: [%s]\n", compiler, arch.Name)

	// spack.yaml: the named package aliases of Figure 9.
	var spack strings.Builder
	spack.WriteString("spack:\n  packages:\n")
	fmt.Fprintf(&spack, "    default-compiler:\n      spack_spec: %s\n", compiler)
	fmt.Fprintf(&spack, "    default-mpi:\n      spack_spec: %s\n", mpi)
	fmt.Fprintf(&spack, "    blas:\n      spack_spec: %s\n", blas)
	fmt.Fprintf(&spack, "    lapack:\n      spack_spec: %s\n", blas)

	// variables.yaml: scheduler and launcher (Figure 12).
	var variables strings.Builder
	variables.WriteString("variables:\n")
	switch sys.Scheduler {
	case "lsf":
		variables.WriteString("  mpi_command: 'jsrun -n {n_ranks} -r {processes_per_node}'\n")
		variables.WriteString("  batch_submit: 'bsub {execute_experiment}'\n")
		variables.WriteString("  batch_nodes: '#BSUB -nnodes {n_nodes}'\n")
		variables.WriteString("  batch_ranks: '#SBATCH -n {n_ranks}'\n")
	case "flux":
		variables.WriteString("  mpi_command: 'flux run -N {n_nodes} -n {n_ranks}'\n")
		variables.WriteString("  batch_submit: 'flux batch {execute_experiment}'\n")
		variables.WriteString("  batch_nodes: '#flux: -N {n_nodes}'\n")
		variables.WriteString("  batch_ranks: '#SBATCH -n {n_ranks}'\n")
	default: // slurm
		variables.WriteString("  mpi_command: 'srun -N {n_nodes} -n {n_ranks}'\n")
		variables.WriteString("  batch_submit: 'sbatch {execute_experiment}'\n")
		variables.WriteString("  batch_nodes: '#SBATCH -N {n_nodes}'\n")
		variables.WriteString("  batch_ranks: '#SBATCH -n {n_ranks}'\n")
	}
	variables.WriteString("  batch_timeout: '#SBATCH -t {batch_time}:00'\n")
	fmt.Fprintf(&variables, "  system: %s\n", sys.Name)
	fmt.Fprintf(&variables, "  scheduler: %s\n", sys.Scheduler)
	fmt.Fprintf(&variables, "  launcher: '%s'\n", sys.Launcher)
	fmt.Fprintf(&variables, "  sys_cores_per_node: '%d'\n", sys.Node.Cores())

	return map[string]string{
		"compilers.yaml": compilers.String(),
		"packages.yaml":  packages.String(),
		"spack.yaml":     spack.String(),
		"variables.yaml": variables.String(),
	}, nil
}

// systemToolchain picks the site toolchain (compiler, MPI, BLAS) the
// way facility staff would for each Section 4 system.
func systemToolchain(sys *hpcsim.System) (compiler, mpi, blas string) {
	switch sys.CPU.Family {
	case "ppc64le":
		return "gcc@12.1.1", "spectrum-mpi@10.4.0", "essl@6.3.0"
	case "aarch64":
		return "gcc@12.1.1", "openmpi@4.1.4", "openblas@0.3.20"
	}
	switch {
	case sys.CPU.VendorID == "AuthenticAMD":
		return "gcc@12.1.1", "cray-mpich@8.1.16", "openblas@0.3.20"
	case sys.Site == "AWS":
		return "gcc@12.1.1", "openmpi@4.1.4", "intel-oneapi-mkl@2022.1.0"
	default:
		return "gcc@12.1.1", "mvapich2@2.3.7", "intel-oneapi-mkl@2022.1.0"
	}
}

func specDir(s string) string { return strings.ReplaceAll(s, "@", "-") }

// ConcretizerConfig builds the concretizer configuration for a system
// by loading its generated packages.yaml and compilers.yaml — the
// same path a user-provided config would take.
func ConcretizerConfig(sys *hpcsim.System) (*concretizer.Config, error) {
	files, err := SystemConfigs(sys)
	if err != nil {
		return nil, err
	}
	return concretizerConfig(sys, files)
}

// concretizerConfig is ConcretizerConfig over already rendered
// SystemConfigs(sys).
func concretizerConfig(sys *hpcsim.System, files map[string]string) (*concretizer.Config, error) {
	cfg := concretizer.NewConfig()
	cfg.Platform = "linux"
	if err := cfg.LoadCompilersYAML(files["compilers.yaml"]); err != nil {
		return nil, err
	}
	if err := cfg.LoadPackagesYAML(files["packages.yaml"]); err != nil {
		return nil, err
	}
	// Provider preferences follow the externals.
	_, mpi, blas := systemToolchain(sys)
	cfg.ProviderPrefs["mpi"] = []string{specName(mpi)}
	cfg.ProviderPrefs["blas"] = []string{specName(blas)}
	cfg.ProviderPrefs["lapack"] = []string{specName(blas)}
	cfg.ReuseFromContext = true
	return cfg, nil
}

func specName(s string) string {
	if i := strings.IndexByte(s, '@'); i >= 0 {
		return s[:i]
	}
	return s
}

// experiments holds the suites: experiments/<benchmark>/<variant>/
// ramble.yaml, Figure 1a's layout. A suite names a system value only
// as {sys_cores_per_node} or {sys_gpus_per_node}, which lookupSuite
// fills in.
//
//go:embed experiments
var experiments embed.FS

// ExperimentTemplates lists the experiment suites, sorted — the
// "$experiment" argument of the Figure 1c workflow (`benchpark
// $experiment $system $workspace`). Suites are
// "<benchmark>/<variant-or-workload>".
func ExperimentTemplates() []string {
	files, _ := fs.Glob(experiments, "experiments/*/*/ramble.yaml") // the pattern is well formed
	suites := make([]string, len(files))
	for i, f := range files {
		suites[i] = path.Dir(strings.TrimPrefix(f, "experiments/"))
	}
	slices.Sort(suites) // Glob lists directory by directory: "a/b" before "a-b/c"
	return suites
}

// lookupSuite resolves a system name and renders the named experiment
// suite's ramble.yaml for it: a GPU variant (the suite's cuda or rocm
// directory) needs the system's GPUs to use that runtime.
func lookupSuite(suite, systemName string) (*hpcsim.System, string, error) {
	sys, err := hpcsim.Get(systemName)
	if err != nil {
		return nil, "", err
	}
	text, err := experiments.ReadFile("experiments/" + suite + "/ramble.yaml")
	if err != nil {
		return nil, "", fmt.Errorf("benchpark: unknown experiment suite %q (have %v)",
			suite, ExperimentTemplates())
	}
	if err := checkGPU(sys, path.Base(suite)); err != nil {
		return nil, "", err
	}
	rambleYAML := strings.ReplaceAll(string(text), "{sys_cores_per_node}", strconv.Itoa(sys.Node.Cores()))
	if gpu := sys.Node.GPU; gpu != nil {
		// Without GPUs the name stays, and ramble refuses it as undefined.
		rambleYAML = strings.ReplaceAll(rambleYAML, "{sys_gpus_per_node}", strconv.Itoa(gpu.PerNode))
	}
	return sys, rambleYAML, nil
}

func checkGPU(sys *hpcsim.System, variant string) error {
	if variant != "cuda" && variant != "rocm" {
		return nil
	}
	if sys.Node.GPU == nil {
		return fmt.Errorf("benchpark: system %s has no GPUs for variant %s", sys.Name, variant)
	}
	if sys.Node.GPU.Runtime != variant {
		return fmt.Errorf("benchpark: system %s GPUs use %s, not %s", sys.Name, sys.Node.GPU.Runtime, variant)
	}
	return nil
}
