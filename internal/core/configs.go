// Package core is Benchpark itself: the driver that combines the
// Spack layer (spec/concretizer/install), the Ramble layer
// (workspaces/experiments), the system models, the batch scheduler,
// the benchmarks, and the analysis stack (Caliper/Adiak/Thicket/
// Extra-P) into the collaborative continuous benchmarking workflow of
// the paper — Figure 1's directory structure, component interaction,
// and nine-step user workflow.
package core

import (
	"fmt"
	"sort"
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

// ExperimentTemplates returns the ramble.yaml text for a named
// experiment suite on a system — the "$experiment" argument of the
// Figure 1c workflow (`benchpark $experiment $system $workspace`).
// Suites are "<benchmark>/<variant-or-workload>".
func ExperimentTemplates() []string {
	out := make([]string, 0, len(experimentSuites))
	for name := range experimentSuites {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// suiteDef generates a ramble.yaml given the system (for GPU counts
// and core counts).
type suiteDef func(sys *hpcsim.System) (string, error)

var experimentSuites = map[string]suiteDef{
	"saxpy/openmp": func(sys *hpcsim.System) (string, error) {
		return saxpySuite(sys, "openmp")
	},
	"saxpy/cuda": func(sys *hpcsim.System) (string, error) {
		return saxpySuite(sys, "cuda")
	},
	"saxpy/rocm": func(sys *hpcsim.System) (string, error) {
		return saxpySuite(sys, "rocm")
	},
	"amg2023/openmp": func(sys *hpcsim.System) (string, error) {
		return amgSuite(sys, "openmp")
	},
	"amg2023/cuda": func(sys *hpcsim.System) (string, error) {
		return amgSuite(sys, "cuda")
	},
	"amg2023/rocm": func(sys *hpcsim.System) (string, error) {
		return amgSuite(sys, "rocm")
	},
	"amg2023/cube": func(sys *hpcsim.System) (string, error) {
		return amgCubeSuite(sys)
	},
	"stream/triad": func(sys *hpcsim.System) (string, error) {
		return streamSuite(sys)
	},
	"hpcg/hpcg": func(sys *hpcsim.System) (string, error) {
		return hpcgSuite(sys)
	},
	"lulesh/hydro": func(sys *hpcsim.System) (string, error) {
		return luleshSuite(sys)
	},
	"osu/bcast": func(sys *hpcsim.System) (string, error) {
		return osuSuite(sys, "osu_bcast")
	},
	"osu/allreduce": func(sys *hpcsim.System) (string, error) {
		return osuSuite(sys, "osu_allreduce")
	},
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

// saxpySuite is the paper's Figure 10 configuration, with the GPU
// variants of Figure 1a's experiments/saxpy/{cuda,rocm} directories.
func saxpySuite(sys *hpcsim.System, variant string) (string, error) {
	if err := checkGPU(sys, variant); err != nil {
		return "", err
	}
	spackVariant := "+openmp"
	if variant != "openmp" {
		spackVariant = "+" + variant + "~openmp"
	}
	return fmt.Sprintf(`
ramble:
  include:
  - ./configs/spack.yaml
  - ./configs/variables.yaml
  applications:
    saxpy:
      workloads:
        problem:
          env_vars:
            set:
              OMP_NUM_THREADS: '{n_threads}'
          variables:
            variant: '%s'
            batch_time: '120'
          experiments:
            saxpy_%s_{n}_{n_nodes}_{n_ranks}_{n_threads}:
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
        spack_spec: saxpy@1.0.0 %s ^cmake@3.23.1
        compiler: default-compiler
    environments:
      saxpy:
        packages:
        - default-mpi
        - saxpy
`, variant, variant, spackVariant), nil
}

func amgSuite(sys *hpcsim.System, variant string) (string, error) {
	if err := checkGPU(sys, variant); err != nil {
		return "", err
	}
	spackVariant := "+caliper"
	if variant != "openmp" {
		spackVariant += "+" + variant
	} else {
		spackVariant += "+openmp"
	}
	ppn := 8
	if variant != "openmp" && sys.Node.GPU != nil {
		ppn = sys.Node.GPU.PerNode // one rank per GPU
	}
	return fmt.Sprintf(`
ramble:
  include:
  - ./configs/spack.yaml
  - ./configs/variables.yaml
  applications:
    amg2023:
      workloads:
        problem1:
          variables:
            variant: '%s'
            batch_time: '120'
            processes_per_node: '%d'
            nx: '32'
            ny: '32'
            nz: '32'
          experiments:
            amg2023_%s_{n_nodes}_{n_ranks}:
              variables:
                n_nodes: ['1', '2']
  spack:
    packages:
      amg2023:
        spack_spec: amg2023@1.0 %s ^hypre@2.28.0
        compiler: default-compiler
    environments:
      amg2023:
        packages:
        - default-mpi
        - amg2023
`, variant, ppn, variant, spackVariant), nil
}

// amgCubeSuite runs AMG with a 2x2x2 process cube — the 3-D
// decomposition path of the proxy.
func amgCubeSuite(sys *hpcsim.System) (string, error) {
	return `
ramble:
  include:
  - ./configs/spack.yaml
  - ./configs/variables.yaml
  applications:
    amg2023:
      workloads:
        problem1:
          variables:
            batch_time: '120'
            processes_per_node: '8'
            n_nodes: '1'
            px: '2'
            py: '2'
            pz: '2'
            nx: '16'
            ny: '16'
            nz: '16'
          experiments:
            amg2023_cube_{px}x{py}x{pz}:
              variables:
                tolerance: '1e-6'
  spack:
    packages:
      amg2023:
        spack_spec: amg2023@1.0 +caliper ^hypre@2.28.0
        compiler: default-compiler
    environments:
      amg2023:
        packages:
        - default-mpi
        - amg2023
`, nil
}

func streamSuite(sys *hpcsim.System) (string, error) {
	return fmt.Sprintf(`
ramble:
  include:
  - ./configs/spack.yaml
  - ./configs/variables.yaml
  applications:
    stream:
      workloads:
        triad:
          variables:
            batch_time: '30'
            processes_per_node: '1'
            n_threads: '%d'
          experiments:
            stream_{n}_{n_nodes}:
              variables:
                n_nodes: '1'
                n: '10000000'
  spack:
    packages:
      stream:
        spack_spec: stream@5.10 +openmp
        compiler: default-compiler
    environments:
      stream:
        packages:
        - stream
`, sys.Node.Cores()), nil
}

func hpcgSuite(sys *hpcsim.System) (string, error) {
	return `
ramble:
  include:
  - ./configs/spack.yaml
  - ./configs/variables.yaml
  applications:
    hpcg:
      workloads:
        hpcg:
          modifiers:
          - papi
          variables:
            batch_time: '60'
            processes_per_node: '8'
            nx: '16'
            ny: '16'
            nz: '16'
          experiments:
            hpcg_{n_nodes}_{n_ranks}:
              variables:
                n_nodes: ['1', '2']
  spack:
    packages:
      hpcg:
        spack_spec: hpcg@3.1 +openmp
        compiler: default-compiler
    environments:
      hpcg:
        packages:
        - default-mpi
        - hpcg
`, nil
}

func luleshSuite(sys *hpcsim.System) (string, error) {
	return `
ramble:
  include:
  - ./configs/spack.yaml
  - ./configs/variables.yaml
  applications:
    lulesh:
      workloads:
        hydro:
          variables:
            batch_time: '60'
            processes_per_node: '8'
            size: '16'
            iterations: '20'
          experiments:
            lulesh_{size}_{n_nodes}_{n_ranks}:
              variables:
                n_nodes: ['1', '2']
  spack:
    packages:
      lulesh:
        spack_spec: lulesh@2.0.3 +openmp
        compiler: default-compiler
    environments:
      lulesh:
        packages:
        - default-mpi
        - lulesh
`, nil
}

func osuSuite(sys *hpcsim.System, workload string) (string, error) {
	ppn := sys.Node.Cores()
	return fmt.Sprintf(`
ramble:
  include:
  - ./configs/spack.yaml
  - ./configs/variables.yaml
  applications:
    osu-micro-benchmarks:
      workloads:
        %s:
          variables:
            workload: '%s'
            batch_time: '60'
            processes_per_node: '%d'
            message_size: '8192'
            iterations: '32000'
          experiments:
            %s_{n_ranks}:
              variables:
                n_nodes: ['1', '2', '4']
  spack:
    packages:
      osu-micro-benchmarks:
        spack_spec: osu-micro-benchmarks@6.1
        compiler: default-compiler
    environments:
      osu-micro-benchmarks:
        packages:
        - default-mpi
        - osu-micro-benchmarks
`, workload, workload, ppn, workload), nil
}
