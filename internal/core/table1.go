package core

import (
	"fmt"
	"strings"
)

// Component is one row of Table 1: a concern of continuous
// benchmarking and where each orthogonal piece of it lives.
type Component struct {
	Number             int
	Name               string
	BenchmarkSpecific  string
	SystemSpecific     string
	ExperimentSpecific string
}

// ComponentMatrix returns Table 1 of the paper: the components of
// Benchpark and the implementation choices that orthogonalize
// benchmarks, systems, and experiments.
func ComponentMatrix() []Component {
	return []Component{
		{1, "Source code", "package.py", "archspec (Sec. 3.1.3)", "ramble.yaml: spack"},
		{2, "Build instructions", "package.py", "Spack config. files, spack.yaml", "ramble.yaml: spack"},
		{3, "Benchmark input", "application.py, (optional) data", "variables.yaml", "ramble.yaml: experiments"},
		{4, "Run instructions", "application.py", "variables.yaml: scheduler, launcher", "ramble.yaml: experiments"},
		{5, "Experiment evaluation", "(optional) application.py", "(optional) hardware counters, etc.", "ramble.yaml: success_criteria"},
		{6, "CI testing", ".gitlab-ci.yml", "Hubcast@LLNL/RIKEN/AWS", "Benchpark executable"},
	}
}

// ComponentTable renders Table 1 as ASCII.
func ComponentTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-3s %-24s %-32s %-36s %-30s\n", "#", "Component", "Benchmark-specific", "HPC System-specific", "Experiment-specific")
	b.WriteString(strings.Repeat("-", 128) + "\n")
	for _, c := range ComponentMatrix() {
		fmt.Fprintf(&b, "%-3d %-24s %-32s %-36s %-30s\n",
			c.Number, c.Name, c.BenchmarkSpecific, c.SystemSpecific, c.ExperimentSpecific)
	}
	return b.String()
}
