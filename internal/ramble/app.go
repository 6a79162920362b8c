package ramble

import (
	"fmt"
	"regexp"
	"slices"
	"sort"
	"strings"
)

// Executable is one command an application can run
// (Figure 8: executable('p', 'saxpy -n {n}', use_mpi=True)).
type Executable struct {
	Name     string
	Template string // command with {variable} references
	UseMPI   bool   // prefix with the system's mpi_command
}

// Workload names a set of executables plus required inputs
// (Figure 8: workload('problem', executables=['p'])).
type Workload struct {
	Name        string
	Executables []string
}

// WorkloadVariable declares a tunable with a default
// (Figure 8: workload_variable('n', default='1', ...)).
type WorkloadVariable struct {
	Name        string
	Default     string
	Description string
	Workloads   []string // applicable workloads; empty = all
}

// FOM is a figure of merit extracted from experiment output by regex
// (Figure 8: figure_of_merit("success", fom_regex=..., group_name=...)).
type FOM struct {
	Name      string
	Regex     string
	GroupName string
	Units     string

	re *regexp.Regexp // Regex as Validate compiled it
}

// timeUnits are the units a duration is declared in.
var timeUnits = map[string]bool{"s": true, "ms": true, "us": true, "ns": true}

// LowerIsBetter reports the FOM's direction from its Units: a time
// ("s", "us") or a time per unit of work ("us/zone/cycle") is better
// lower; a rate ("GB/s", "zones/s") and a FOM without units are better
// higher.
func (f FOM) LowerIsBetter() bool {
	num, _, _ := strings.Cut(f.Units, "/")
	return timeUnits[num]
}

// FOMLowerIsBetter reports the direction of the named FOM of a
// registered application; a FOM no application declares is a rate.
func FOMLowerIsBetter(app, fom string) bool {
	f, ok := declaredFOM(app, fom)
	return ok && f.LowerIsBetter()
}

// RegressionThreshold is the default ratio to its rolling baseline at
// which the named FOM counts as regressed: 0.8, a 20 % drop, for a FOM
// its application declares better higher; 1.2, a 20 % rise, for one
// declared better lower and for a FOM no application declares. The
// dashboard and the results service's /v1/regressions both ask here.
func RegressionThreshold(app, fom string) float64 {
	if f, ok := declaredFOM(app, fom); ok && !f.LowerIsBetter() {
		return 0.8
	}
	return 1.2
}

// declaredFOM looks up the named FOM of a registered application.
func declaredFOM(app, fom string) (FOM, bool) {
	if a, ok := appRegistry[app]; ok {
		for _, f := range a.FOMs {
			if f.Name == fom {
				return f, true
			}
		}
	}
	return FOM{}, false
}

// compile checks the FOM's regex and keeps it for extraction.
func (f *FOM) compile() error {
	re, err := regexp.Compile(f.Regex)
	if err != nil {
		return err
	}
	if f.GroupName != "" && !slices.Contains(re.SubexpNames(), f.GroupName) {
		return fmt.Errorf("regex lacks group %q", f.GroupName)
	}
	f.re = re
	return nil
}

// compiled returns the regexp Validate kept, compiling on the spot for
// a definition that was never validated.
func compiled(re *regexp.Regexp, pattern string) *regexp.Regexp {
	if re != nil {
		return re
	}
	return regexp.MustCompile(pattern)
}

// SuccessCriterion decides pass/fail
// (Figure 8: success_criteria('pass', mode='string', match=...)).
type SuccessCriterion struct {
	Name  string
	Mode  string // "string": Match regex must appear in the output file
	Match string
	File  string // template path; informational in the simulation

	re *regexp.Regexp // Match as Validate compiled it
}

// Application is the Ramble-side description of a benchmark — the Go
// analogue of application.py. It carries no system-specific
// information (Table 1, column "Benchmark-specific").
type Application struct {
	Name        string
	Executables map[string]Executable
	Workloads   map[string]Workload
	Variables   []WorkloadVariable
	Inputs      []InputFile
	FOMs        []FOM
	Success     []SuccessCriterion
}

// NewApplication returns an empty application definition.
func NewApplication(name string) *Application {
	return &Application{
		Name:        name,
		Executables: map[string]Executable{},
		Workloads:   map[string]Workload{},
	}
}

// AddExecutable declares an executable.
func (a *Application) AddExecutable(name, template string, useMPI bool) *Application {
	a.Executables[name] = Executable{Name: name, Template: template, UseMPI: useMPI}
	return a
}

// AddWorkload declares a workload over executables.
func (a *Application) AddWorkload(name string, executables ...string) *Application {
	a.Workloads[name] = Workload{Name: name, Executables: executables}
	return a
}

// AddVariable declares a workload variable.
func (a *Application) AddVariable(name, def, desc string, workloads ...string) *Application {
	a.Variables = append(a.Variables, WorkloadVariable{
		Name: name, Default: def, Description: desc, Workloads: workloads,
	})
	return a
}

// AddFOM declares a figure of merit.
func (a *Application) AddFOM(name, regex, group, units string) *Application {
	a.FOMs = append(a.FOMs, FOM{Name: name, Regex: regex, GroupName: group, Units: units})
	return a
}

// AddSuccess declares a success criterion.
func (a *Application) AddSuccess(name, mode, match, file string) *Application {
	a.Success = append(a.Success, SuccessCriterion{Name: name, Mode: mode, Match: match, File: file})
	return a
}

// Validate checks internal consistency: workloads reference declared
// executables, variables reference declared workloads, FOM regexes
// compile and contain their group.
func (a *Application) Validate() error {
	if a.Name == "" {
		return fmt.Errorf("ramble: application with empty name")
	}
	if len(a.Workloads) == 0 {
		return fmt.Errorf("ramble: application %s has no workloads", a.Name)
	}
	for _, w := range a.Workloads {
		for _, ex := range w.Executables {
			if _, ok := a.Executables[ex]; !ok {
				return fmt.Errorf("ramble: %s workload %s references unknown executable %q", a.Name, w.Name, ex)
			}
		}
	}
	for _, v := range a.Variables {
		for _, wl := range v.Workloads {
			if _, ok := a.Workloads[wl]; !ok {
				return fmt.Errorf("ramble: %s variable %s references unknown workload %q", a.Name, v.Name, wl)
			}
		}
	}
	for i := range a.FOMs {
		if err := a.FOMs[i].compile(); err != nil {
			return fmt.Errorf("ramble: %s FOM %s: %w", a.Name, a.FOMs[i].Name, err)
		}
	}
	for i := range a.Success {
		s := &a.Success[i]
		if s.Mode != "string" {
			return fmt.Errorf("ramble: %s success %s: unsupported mode %q", a.Name, s.Name, s.Mode)
		}
		re, err := regexp.Compile(s.Match)
		if err != nil {
			return fmt.Errorf("ramble: %s success %s: %w", a.Name, s.Name, err)
		}
		s.re = re
	}
	return nil
}

// DefaultVars returns the defaults applicable to a workload.
func (a *Application) DefaultVars(workload string) map[string]string {
	out := map[string]string{}
	for _, v := range a.Variables {
		if len(v.Workloads) == 0 || slices.Contains(v.Workloads, workload) {
			out[v.Name] = v.Default
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Application registry (the Benchpark repo/ overlay carries these)
// ---------------------------------------------------------------------------

var appRegistry = map[string]*Application{}

// RegisterApplication adds an application definition; it panics on an
// invalid definition or duplicate (registration is init-time).
func RegisterApplication(a *Application) {
	if err := a.Validate(); err != nil {
		panic(err)
	}
	if _, dup := appRegistry[a.Name]; dup {
		panic("ramble: duplicate application " + a.Name)
	}
	appRegistry[a.Name] = a
}

// GetApplication returns a registered application.
func GetApplication(name string) (*Application, error) {
	a, ok := appRegistry[name]
	if !ok {
		return nil, fmt.Errorf("ramble: unknown application %q (have %v)", name, ApplicationNames())
	}
	return a, nil
}

// ApplicationNames lists registered applications, sorted.
func ApplicationNames() []string {
	out := make([]string, 0, len(appRegistry))
	for n := range appRegistry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func init() {
	// saxpy — verbatim from Figure 8.
	RegisterApplication(NewApplication("saxpy").
		AddExecutable("p", "saxpy -n {n}", true).
		AddWorkload("problem", "p").
		AddVariable("n", "1", "problem size", "problem").
		AddFOM("success", `(?P<done>Kernel done)`, "done", "").
		AddFOM("saxpy_time", `saxpy_time: (?P<time>[0-9.]+) s`, "time", "s").
		AddSuccess("pass", "string", `Kernel done`, "{experiment_run_dir}/{experiment_name}.out"))

	// amg2023 — the second Section 4 benchmark. problem2 needs a
	// downloaded input deck (checksum-verified, Section 3.2.3).
	RegisterApplication(NewApplication("amg2023").
		AddExecutable("amg", "amg -n {nx} {ny} {nz} -P {px} {py} {pz}", true).
		AddWorkload("problem1", "amg").
		AddWorkload("problem2", "amg").
		AddInput("amg_problem2.deck", "https://benchmarks.example/amg/problem2.deck",
			ContentSHA256("https://benchmarks.example/amg/problem2.deck"), "problem2").
		AddVariable("nx", "32", "local grid x", "problem1", "problem2").
		AddVariable("ny", "32", "local grid y", "problem1", "problem2").
		AddVariable("nz", "32", "local grid z", "problem1", "problem2").
		AddVariable("px", "1", "process grid x").
		AddVariable("py", "1", "process grid y").
		AddVariable("pz", "{n_ranks}", "process grid z (default: 1-D slabs)").
		AddVariable("tolerance", "1e-8", "relative residual tolerance").
		AddVariable("max_iterations", "200", "CG iteration cap").
		AddFOM("setup_time", `Setup time: (?P<t>[0-9.]+) s`, "t", "s").
		AddFOM("solve_time", `Solve time: (?P<t>[0-9.]+) s`, "t", "s").
		AddFOM("iterations", `Iterations: (?P<it>\d+)`, "it", "").
		AddFOM("fom", `Figure of Merit \(FOM_Solve\): (?P<fom>[0-9.e+]+)`, "fom", "DOF*iter/s").
		AddSuccess("pass", "string", `Kernel done`, "{experiment_run_dir}/{experiment_name}.out").
		AddSuccess("converged", "string", `converged`, "{experiment_run_dir}/{experiment_name}.out"))

	// stream — bandwidth tracking.
	RegisterApplication(NewApplication("stream").
		AddExecutable("triad", "stream -n {n} -i {iterations}", true).
		AddWorkload("triad", "triad").
		AddVariable("n", "10000000", "array elements", "triad").
		AddVariable("iterations", "10", "triad repetitions", "triad").
		AddFOM("triad_bw", `Triad: (?P<bw>[0-9.]+) GB/s`, "bw", "GB/s").
		AddSuccess("pass", "string", `Kernel done`, "{experiment_run_dir}/{experiment_name}.out"))

	// lulesh — shock-hydro proxy application.
	RegisterApplication(NewApplication("lulesh").
		AddExecutable("lulesh2.0", "lulesh2.0 -s {size} -i {iterations}", true).
		AddWorkload("hydro", "lulesh2.0").
		AddVariable("size", "24", "elements per edge per rank", "hydro").
		AddVariable("iterations", "40", "timesteps", "hydro").
		AddFOM("fom_zs", `FOM \(z/s\): (?P<z>[0-9.e+]+)`, "z", "zones/s").
		AddFOM("grind_time", `Grind time \(us/z/c\): (?P<g>[0-9.]+)`, "g", "us/zone/cycle").
		AddSuccess("pass", "string", `Kernel done`, "{experiment_run_dir}/{experiment_name}.out"))

	// hpcg — conjugate-gradients rating benchmark.
	RegisterApplication(NewApplication("hpcg").
		AddExecutable("xhpcg", "xhpcg --nx={nx} --ny={ny} --nz={nz}", true).
		AddWorkload("hpcg", "xhpcg").
		AddVariable("nx", "32", "local grid x", "hpcg").
		AddVariable("ny", "32", "local grid y", "hpcg").
		AddVariable("nz", "32", "local grid z", "hpcg").
		AddVariable("iterations", "50", "CG iterations", "hpcg").
		AddFOM("gflops", `HPCG rating \(GFLOP/s\): (?P<g>[0-9.]+)`, "g", "GFLOP/s").
		AddFOM("residual", `Final residual: (?P<r>[0-9.e+-]+)`, "r", "").
		AddSuccess("pass", "string", `Kernel done`, "{experiment_run_dir}/{experiment_name}.out"))

	// gups — HPCC RandomAccess.
	RegisterApplication(NewApplication("gups").
		AddExecutable("ra", "gups -m {log2_table_size} -u {updates_per_rank}", true).
		AddWorkload("gups", "ra").
		AddVariable("log2_table_size", "20", "log2 of per-rank table entries", "gups").
		AddVariable("updates_per_rank", "4096", "updates per rank per round", "gups").
		AddVariable("rounds", "4", "alltoall rounds", "gups").
		AddFOM("gups", `GUPS: (?P<g>[0-9.]+)`, "g", "GUP/s").
		AddSuccess("pass", "string", `Kernel done`, "{experiment_run_dir}/{experiment_name}.out"))

	// osu-micro-benchmarks — the MPI_Bcast experiment behind Figure 14.
	RegisterApplication(NewApplication("osu-micro-benchmarks").
		AddExecutable("bcast", "osu_bcast -m {message_size} -i {iterations}", true).
		AddExecutable("allreduce", "osu_allreduce -m {message_size} -i {iterations}", true).
		AddExecutable("latency", "osu_latency -m {message_size} -i {iterations}", true).
		AddWorkload("osu_bcast", "bcast").
		AddWorkload("osu_allreduce", "allreduce").
		AddWorkload("osu_latency", "latency").
		AddVariable("message_size", "8192", "message size in bytes").
		AddVariable("iterations", "32000", "number of collective calls").
		AddFOM("total_time", `Total time: (?P<t>[0-9.]+) s`, "t", "s").
		AddFOM("avg_latency", `Avg latency: (?P<lat>[0-9.]+) us`, "lat", "us").
		AddSuccess("pass", "string", `Kernel done`, "{experiment_run_dir}/{experiment_name}.out"))
}

// renderCommand renders a workload's command lines for an experiment.
func renderCommand(app *Application, workload string, ex *Expander, mpiCommand string) ([]string, error) {
	wl, ok := app.Workloads[workload]
	if !ok {
		return nil, fmt.Errorf("ramble: application %s has no workload %q (have %v)",
			app.Name, workload, workloadNames(app))
	}
	var cmds []string
	for _, exe := range wl.Executables {
		e := app.Executables[exe]
		cmd, err := ex.Expand(e.Template)
		if err != nil {
			return nil, err
		}
		if e.UseMPI && mpiCommand != "" {
			mc, err := ex.Expand(mpiCommand)
			if err != nil {
				return nil, err
			}
			cmd = mc + " " + cmd
		}
		cmds = append(cmds, cmd)
	}
	return cmds, nil
}

func workloadNames(app *Application) []string {
	out := make([]string, 0, len(app.Workloads))
	for n := range app.Workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ExtractFOMs runs the application's FOM regexes over output text.
func (a *Application) ExtractFOMs(output string) map[string]string {
	return extractFOMs(a.FOMs, output)
}

func extractFOMs(foms []FOM, output string) map[string]string {
	out := map[string]string{}
	for _, f := range foms {
		re := compiled(f.re, f.Regex)
		m := re.FindStringSubmatch(output)
		if m == nil {
			continue
		}
		val := m[0]
		if f.GroupName != "" {
			for gi, gn := range re.SubexpNames() {
				if gn == f.GroupName && gi < len(m) {
					val = m[gi]
				}
			}
		}
		out[f.Name] = val
	}
	return out
}

// CheckSuccess evaluates all success criteria against output text,
// returning nil when they all pass.
func (a *Application) CheckSuccess(output string) error {
	var failed []string
	for _, s := range a.Success {
		if !compiled(s.re, s.Match).MatchString(output) {
			failed = append(failed, s.Name)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("ramble: success criteria failed: %s", strings.Join(failed, ", "))
	}
	return nil
}
