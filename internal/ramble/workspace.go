package ramble

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/yamlite"
)

// DefaultTemplate is the execute_experiment.tpl of Figure 13.
const DefaultTemplate = `#!/bin/bash
{batch_nodes}
{batch_ranks}
cd {experiment_run_dir}
{spack_setup}
{command}
`

// Status tracks one experiment's lifecycle.
type Status int

const (
	// Pending: generated but not executed.
	Pending Status = iota
	// Succeeded: executed and all success criteria passed.
	Succeeded
	// Failed: executed but crashed or failed its criteria.
	Failed
)

func (s Status) String() string {
	switch s {
	case Pending:
		return "pending"
	case Succeeded:
		return "succeeded"
	case Failed:
		return "failed"
	}
	return "unknown"
}

// Experiment is one fully instantiated run of an application workload
// on a system — one generated directory under experiments/.
type Experiment struct {
	Name     string
	App      *Application
	Workload string

	// Vars is the complete raw variable table (values may still hold
	// {…} references; Expander resolves them). It is the Expander's
	// own map: change a variable with Expander.Set, which also drops
	// the expansions remembered for the old value.
	Vars     map[string]string
	Expander *Expander
	Env      map[string]string // rendered environment variables
	// Modifiers are the abstract modifiers applied to this experiment
	// (Section 3.2), by name.
	Modifiers []string

	Script string // rendered batch script
	Dir    string // run directory under the workspace

	// Derived execution geometry.
	NNodes, ProcsPerNode, NRanks, NThreads int
	// BatchTime is the batch job's time limit in minutes (batch_time).
	BatchTime float64

	// Execution results.
	Status  Status
	Output  string
	Elapsed float64
	FOMs    map[string]string
	FailMsg string
}

// runDir is an experiment's run directory, relative to the workspace.
func runDir(app, workload, name string) string {
	return filepath.Join("experiments", app, workload, name)
}

func (e *Experiment) relDir() string { return runDir(e.App.Name, e.Workload, e.Name) }

// Workspace is a self-contained directory representing a set of
// experiments (Section 3.2's "primary entry point for users").
type Workspace struct {
	Name string
	Root string

	raw       *yamlite.Map // parsed ramble.yaml
	effective *yamlite.Map // ramble: subtree with includes merged

	Experiments []*Experiment
	template    string
	setupDone   bool

	// files is everything written to the workspace since it was
	// opened, by workspace-relative path; nothing reaches Root before
	// Save. A directory is an entry with fs.ModeDir set and no data.
	files map[string]file
}

type file struct {
	data []byte
	mode fs.FileMode
}

// NewWorkspace opens a workspace at root (`ramble workspace create`).
// It creates root itself, so an unwritable location fails here and not
// after the run; the skeleton under it exists in memory until Save.
func NewWorkspace(name, root string) (*Workspace, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("ramble: creating workspace: %w", err)
	}
	w := &Workspace{Name: name, Root: root, template: DefaultTemplate, files: map[string]file{}}
	for _, d := range []string{"configs", "experiments", "logs"} {
		w.put(d, nil, fs.ModeDir|0o755)
	}
	return w, nil
}

// put is the one way anything is written to a workspace.
func (w *Workspace) put(rel string, data []byte, mode fs.FileMode) {
	w.files[rel] = file{data, mode}
}

// read returns a workspace file: what this process wrote if it wrote
// it, else what an earlier one saved under Root — which is how a
// reopened workspace finds its includes and cached inputs.
func (w *Workspace) read(rel string) ([]byte, error) {
	if f, ok := w.files[rel]; ok && !f.mode.IsDir() {
		return f.data, nil
	}
	return os.ReadFile(filepath.Join(w.Root, rel))
}

// walkSorted returns m's keys, read as paths, in the order
// filepath.Walk visits them: component-wise, so "a/x" precedes
// "a-b/x". Save and Archive both iterate in it, which keeps an archive
// of memory identical to an archive of the saved tree.
func walkSorted[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	key := func(p string) string { return strings.ReplaceAll(p, string(filepath.Separator), "\x00") }
	sort.Slice(out, func(i, j int) bool { return key(out[i]) < key(out[j]) })
	return out
}

// Save writes everything written so far under Root. It is the only
// code that creates anything there; callers that discard the workspace
// (a CI push, a report) never call it.
func (w *Workspace) Save() error {
	for _, rel := range walkSorted(w.files) {
		f := w.files[rel]
		path := filepath.Join(w.Root, rel)
		dir := path
		if !f.mode.IsDir() {
			dir = filepath.Dir(path)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("ramble: saving workspace: %w", err)
		}
		if f.mode.IsDir() {
			continue
		}
		if err := os.WriteFile(path, f.data, f.mode); err != nil {
			return fmt.Errorf("ramble: saving workspace: %w", err)
		}
	}
	return nil
}

// WriteConfig stores a named config file under configs/
// (spack.yaml, variables.yaml — the system-specific inputs).
func (w *Workspace) WriteConfig(name, content string) {
	w.put(filepath.Join("configs", name), []byte(content), 0o644)
}

// WriteLog stores an analysis artifact under logs/.
func (w *Workspace) WriteLog(name string, data []byte) {
	w.put(filepath.Join("logs", name), data, 0o644)
}

// WriteOutput stores <experiment><ext> in the experiment's run
// directory: the .out the kernel printed, the .cali it profiled.
func (w *Workspace) WriteOutput(e *Experiment, ext, content string) {
	w.put(filepath.Join(e.relDir(), e.Name+ext), []byte(content), 0o644)
}

// SetTemplate overrides execute_experiment.tpl.
func (w *Workspace) SetTemplate(tpl string) { w.template = tpl }

// Configure parses ramble.yaml and merges its includes
// (`ramble workspace edit` finishing with a save).
func (w *Workspace) Configure(rambleYAML string) error {
	doc, err := yamlite.ParseMap(rambleYAML)
	if err != nil {
		return fmt.Errorf("ramble: parsing ramble.yaml: %w", err)
	}
	r := doc.GetMap("ramble")
	if r == nil {
		return fmt.Errorf("ramble: ramble.yaml missing top-level 'ramble' key")
	}
	w.WriteConfig("ramble.yaml", rambleYAML)
	eff := r.Clone()
	for _, inc := range r.GetStrings("include") {
		base := filepath.Base(inc) // ./configs/spack.yaml -> spack.yaml
		data, err := w.read(filepath.Join("configs", base))
		if err != nil {
			return fmt.Errorf("ramble: include %q: %w", inc, err)
		}
		incDoc, err := yamlite.ParseMap(string(data))
		if err != nil {
			return fmt.Errorf("ramble: include %q: %w", inc, err)
		}
		// Included top-level sections (spack:, variables:) merge into
		// the ramble: subtree, system config underneath experiment
		// config (experiment-specific keys win).
		merged := incDoc.Clone()
		merged.Merge(eff)
		eff = merged
	}
	w.raw = doc
	w.effective = eff
	w.Experiments = nil
	w.setupDone = false
	return nil
}

// Effective exposes the merged configuration (for inspection/tests).
func (w *Workspace) Effective() *yamlite.Map { return w.effective }

// SoftwareInstaller resolves and installs one named software
// environment with the given abstract spec strings — the hook through
// which Ramble drives Spack (Figure 1b arrow 6).
type SoftwareInstaller func(envName string, specs []string) error

// Setup generates all experiments and (optionally) installs software
// (`ramble workspace setup`). Passing a nil installer skips software
// installation.
func (w *Workspace) Setup(installSoftware SoftwareInstaller) error {
	if w.effective == nil {
		return fmt.Errorf("ramble: workspace %s not configured", w.Name)
	}
	experiments, err := w.generateExperiments()
	if err != nil {
		return err
	}
	w.Experiments = experiments

	// Download required input files (Section 3.2.3), verifying
	// checksums.
	if err := w.FetchInputs(nil); err != nil {
		return err
	}

	// Software environments (spack: section).
	if installSoftware != nil {
		envSpecs, err := w.SoftwareEnvironments()
		if err != nil {
			return err
		}
		for _, name := range sortedKeys(envSpecs) {
			if err := installSoftware(name, envSpecs[name]); err != nil {
				return fmt.Errorf("ramble: installing environment %s: %w", name, err)
			}
		}
	}

	for _, e := range w.Experiments {
		w.put(filepath.Join(e.relDir(), "execute_experiment.sh"), []byte(e.Script), 0o755)
	}
	w.setupDone = true
	return nil
}

// SoftwareEnvironments resolves the spack: section into environment
// name -> list of concrete-ready spec strings, dereferencing named
// package aliases (Figure 9/10: compiler "default-compiler" points at
// packages.default-compiler.spack_spec).
func (w *Workspace) SoftwareEnvironments() (map[string][]string, error) {
	spackSec := w.effective.GetMap("spack")
	if spackSec == nil {
		return map[string][]string{}, nil
	}
	pkgs := spackSec.GetMap("packages")
	resolvePkg := func(name string) (string, error) {
		if pkgs == nil || !pkgs.Has(name) {
			return "", fmt.Errorf("ramble: spack packages section has no entry %q", name)
		}
		entry := pkgs.GetMap(name)
		specStr := entry.GetString("spack_spec")
		if specStr == "" {
			return "", fmt.Errorf("ramble: package %q has no spack_spec", name)
		}
		if compAlias := entry.GetString("compiler"); compAlias != "" {
			comp := pkgs.GetMap(compAlias)
			if comp == nil {
				return "", fmt.Errorf("ramble: package %q references unknown compiler alias %q", name, compAlias)
			}
			specStr += " %" + comp.GetString("spack_spec")
		}
		return specStr, nil
	}
	out := map[string][]string{}
	envs := spackSec.GetMap("environments")
	if envs == nil {
		return out, nil
	}
	for _, envName := range envs.Keys() {
		var specs []string
		for _, pkgName := range envs.GetMap(envName).GetStrings("packages") {
			s, err := resolvePkg(pkgName)
			if err != nil {
				return nil, err
			}
			specs = append(specs, s)
		}
		out[envName] = specs
	}
	return out, nil
}

// generateExperiments walks applications → workloads → experiment
// templates, expanding vector variables and matrices into concrete
// experiments.
func (w *Workspace) generateExperiments() ([]*Experiment, error) {
	apps := w.effective.GetMap("applications")
	if apps == nil || apps.Len() == 0 {
		return nil, fmt.Errorf("ramble: no applications configured")
	}
	globalVars := mapFromYAML(w.effective.GetMap("variables"))

	var out []*Experiment
	for _, appName := range apps.Keys() {
		app, err := GetApplication(appName)
		if err != nil {
			return nil, err
		}
		appSec := apps.GetMap(appName)
		workloads := appSec.GetMap("workloads")
		if workloads == nil {
			return nil, fmt.Errorf("ramble: application %s has no workloads section", appName)
		}
		for _, wlName := range workloads.Keys() {
			if _, ok := app.Workloads[wlName]; !ok {
				return nil, fmt.Errorf("ramble: application %s has no workload %q", appName, wlName)
			}
			wlSec := workloads.GetMap(wlName)
			wlVars := mapFromYAML(wlSec.GetMap("variables"))
			wlMods := wlSec.GetStrings("modifiers")
			envVars := map[string]string{}
			if ev := wlSec.GetMap("env_vars"); ev != nil {
				for k, v := range mapFromYAML(ev.GetMap("set")) {
					envVars[k] = v
				}
			}
			exps := wlSec.GetMap("experiments")
			if exps == nil {
				return nil, fmt.Errorf("ramble: %s/%s has no experiments section", appName, wlName)
			}
			for _, nameTpl := range exps.Keys() {
				expSec := exps.GetMap(nameTpl)
				gen, err := w.expandTemplate(app, wlName, nameTpl, expSec, globalVars, wlVars, envVars, wlMods)
				if err != nil {
					return nil, fmt.Errorf("ramble: experiment %s: %w", nameTpl, err)
				}
				out = append(out, gen...)
			}
		}
	}
	// Reject duplicate experiment names (under-parameterized templates).
	seen := map[string]bool{}
	for _, e := range out {
		if seen[e.Name] {
			return nil, fmt.Errorf("ramble: duplicate experiment name %q (add distinguishing variables to the name template)", e.Name)
		}
		seen[e.Name] = true
	}
	return out, nil
}

// expandTemplate produces the concrete experiments for one experiment
// template: zip unmatrixed vector variables, cross matrices.
func (w *Workspace) expandTemplate(app *Application, workload, nameTpl string,
	expSec *yamlite.Map, globalVars, wlVars, envVars map[string]string,
	modifiers []string) ([]*Experiment, error) {

	if expSec != nil {
		modifiers = append(append([]string(nil), modifiers...), expSec.GetStrings("modifiers")...)
	}
	// Per-experiment template override (Figure 1a keeps an
	// exe_experiment.tpl next to each experiment definition).
	tpl := w.template
	if expSec != nil {
		if custom := expSec.GetString("template"); custom != "" {
			tpl = custom
		}
	}

	scalars := map[string]string{}
	vectors := map[string][]string{}
	order := []string{}
	if expSec != nil {
		if vs := expSec.GetMap("variables"); vs != nil {
			for _, k := range vs.Keys() {
				switch v := vs.Get(k).(type) {
				case []yamlite.Value:
					vals := make([]string, len(v))
					for i, e := range v {
						vals[i] = yamlite.ScalarString(e)
					}
					vectors[k] = vals
					order = append(order, k)
				default:
					scalars[k] = yamlite.ScalarString(v)
				}
			}
		}
	}

	// Matrices consume vector variables into cross products.
	type matrix struct {
		name string
		vars []string
	}
	var matrices []matrix
	if expSec != nil {
		for _, mv := range expSec.GetSlice("matrices") {
			mm, ok := mv.(*yamlite.Map)
			if !ok || mm.Len() != 1 {
				return nil, fmt.Errorf("bad matrices entry (want '- name: [vars]')")
			}
			mname := mm.Keys()[0]
			mvars := mm.GetStrings(mname)
			for _, v := range mvars {
				if _, ok := vectors[v]; !ok {
					return nil, fmt.Errorf("matrix %s references non-vector variable %q", mname, v)
				}
			}
			matrices = append(matrices, matrix{name: mname, vars: mvars})
		}
	}
	inMatrix := map[string]bool{}
	for _, m := range matrices {
		for _, v := range m.vars {
			inMatrix[v] = true
		}
	}

	// Exclusions: drop generated combinations matching every variable
	// of any exclusion entry (Ramble's exclude: construct; used to
	// prune infeasible corners like "1024 ranks on 1 node").
	var exclusions []map[string]string
	if expSec != nil {
		if ex := expSec.GetMap("exclude"); ex != nil {
			for _, ev := range ex.GetSlice("variables") {
				em, ok := ev.(*yamlite.Map)
				if !ok {
					return nil, fmt.Errorf("bad exclude entry (want '- var: value' mappings)")
				}
				entry := map[string]string{}
				for _, k := range em.Keys() {
					entry[k] = em.GetString(k)
				}
				exclusions = append(exclusions, entry)
			}
		}
	}
	excluded := func(vars map[string]string) bool {
		for _, entry := range exclusions {
			match := true
			for k, v := range entry {
				if vars[k] != v {
					match = false
					break
				}
			}
			if match {
				return true
			}
		}
		return false
	}

	// Zip the remaining vector variables: all must share a length.
	var zipVars []string
	zipLen := 1
	for _, k := range order {
		if inMatrix[k] {
			continue
		}
		zipVars = append(zipVars, k)
	}
	if len(zipVars) > 0 {
		zipLen = len(vectors[zipVars[0]])
		for _, k := range zipVars {
			if len(vectors[k]) != zipLen {
				return nil, fmt.Errorf("vector variables %v must have equal lengths to zip (%s has %d, %s has %d)",
					zipVars, zipVars[0], zipLen, k, len(vectors[k]))
			}
		}
	}

	// Enumerate: zip index × matrix cross products.
	matrixSizes := make([][]int, len(matrices))
	for mi, m := range matrices {
		sizes := make([]int, len(m.vars))
		for vi, v := range m.vars {
			sizes[vi] = len(vectors[v])
		}
		matrixSizes[mi] = sizes
	}
	var enumerate func(mi int, idx [][]int)
	var allIdx [][][]int
	enumerate = func(mi int, idx [][]int) {
		if mi == len(matrices) {
			cp := make([][]int, len(idx))
			for i := range idx {
				cp[i] = append([]int(nil), idx[i]...)
			}
			allIdx = append(allIdx, cp)
			return
		}
		var rec func(vi int, cur []int)
		rec = func(vi int, cur []int) {
			if vi == len(matrices[mi].vars) {
				enumerate(mi+1, append(idx, append([]int(nil), cur...)))
				return
			}
			for k := 0; k < matrixSizes[mi][vi]; k++ {
				rec(vi+1, append(cur, k))
			}
		}
		rec(0, nil)
	}
	enumerate(0, nil)

	var out []*Experiment
	for zi := 0; zi < zipLen; zi++ {
		for _, midx := range allIdx {
			vars := map[string]string{}
			// precedence: app defaults < global < workload < experiment
			for k, v := range app.DefaultVars(workload) {
				vars[k] = v
			}
			for k, v := range globalVars {
				vars[k] = v
			}
			for k, v := range wlVars {
				vars[k] = v
			}
			for k, v := range scalars {
				vars[k] = v
			}
			for _, k := range zipVars {
				vars[k] = vectors[k][zi]
			}
			for mi, m := range matrices {
				for vi, v := range m.vars {
					vars[v] = vectors[v][midx[mi][vi]]
				}
			}
			if excluded(vars) {
				continue
			}
			exp, err := w.buildExperiment(app, workload, nameTpl, vars, envVars, modifiers, tpl)
			if err != nil {
				return nil, err
			}
			out = append(out, exp)
		}
	}
	return out, nil
}

// buildExperiment finalizes one variable assignment into an
// Experiment: built-in variables, name expansion, script rendering.
func (w *Workspace) buildExperiment(app *Application, workload, nameTpl string,
	vars map[string]string, envVars map[string]string, modifiers []string,
	template string) (*Experiment, error) {

	setDefault := func(k, v string) {
		if _, ok := vars[k]; !ok {
			vars[k] = v
		}
	}
	// Modifiers contribute default variables and extra env vars.
	extraEnv := map[string]string{}
	for _, name := range modifiers {
		mod, err := GetModifier(name)
		if err != nil {
			return nil, err
		}
		for k, v := range mod.Variables {
			setDefault(k, v)
		}
		for k, v := range mod.EnvVars {
			extraEnv[k] = v
		}
	}
	setDefault("application_name", app.Name)
	setDefault("workload_name", workload)
	setDefault("n_nodes", "1")
	setDefault("processes_per_node", "1")
	setDefault("n_ranks", "{processes_per_node*n_nodes}")
	setDefault("n_threads", "1")
	setDefault("batch_time", "60")
	setDefault("spack_setup", ". $SPACK_ROOT/share/spack/setup-env.sh")
	setDefault("experiment_name", nameTpl)
	// Scheduler variables normally supplied by the system's
	// variables.yaml (Figure 12); generic fallbacks keep minimal
	// workspaces functional.
	setDefault("batch_nodes", "#SBATCH -N {n_nodes}")
	setDefault("batch_ranks", "#SBATCH -n {n_ranks}")
	setDefault("batch_timeout", "#SBATCH -t {batch_time}:00")
	setDefault("mpi_command", "mpirun -n {n_ranks}")
	setDefault("execute_experiment", "{experiment_run_dir}/execute_experiment.sh")
	setDefault("batch_submit", "sbatch {execute_experiment}")

	ex := NewExpander(vars)
	name, err := ex.Expand(nameTpl)
	if err != nil {
		return nil, err
	}
	ex.Set("experiment_name", name)
	dir := filepath.Join(w.Root, runDir(app.Name, workload, name))
	ex.Set("experiment_run_dir", dir)

	// Command: the workload's executables under the system launcher.
	mpiCmd := vars["mpi_command"]
	cmds, err := renderCommand(app, workload, ex, mpiCmd)
	if err != nil {
		return nil, err
	}
	ex.Set("command", strings.Join(cmds, "\n"))

	script, err := ex.Expand(template)
	if err != nil {
		return nil, err
	}

	env := map[string]string{}
	for _, src := range []map[string]string{extraEnv, envVars} {
		for k, v := range src {
			rendered, err := ex.Expand(v)
			if err != nil {
				return nil, err
			}
			env[k] = rendered
		}
	}

	e := &Experiment{
		Name:      name,
		App:       app,
		Workload:  workload,
		Vars:      vars,
		Expander:  ex,
		Env:       env,
		Script:    script,
		Dir:       dir,
		Modifiers: append([]string(nil), modifiers...),
		FOMs:      map[string]string{},
	}
	for _, g := range []struct {
		key string
		dst *int
	}{
		{"n_nodes", &e.NNodes},
		{"processes_per_node", &e.ProcsPerNode},
		{"n_ranks", &e.NRanks},
		{"n_threads", &e.NThreads},
	} {
		s, err := ex.Expand("{" + g.key + "}")
		if err != nil {
			return nil, err
		}
		n, err := strconv.Atoi(s)
		if err != nil {
			return nil, fmt.Errorf("ramble: %s=%q is not an integer", g.key, s)
		}
		*g.dst = n
	}
	s, err := ex.Expand("{batch_time}")
	if err != nil {
		return nil, err
	}
	if e.BatchTime, err = strconv.ParseFloat(s, 64); err != nil {
		return nil, fmt.Errorf("ramble: batch_time=%q is not a number", s)
	}
	return e, nil
}

// Executor runs one experiment and returns its textual output plus
// simulated elapsed seconds. The Benchpark core wires this to the
// batch scheduler and benchmark kernels.
type Executor func(e *Experiment) (output string, elapsed float64, err error)

// On executes every generated experiment (`ramble on`).
func (w *Workspace) On(exec Executor) error {
	if !w.setupDone {
		return fmt.Errorf("ramble: workspace %s: run Setup before On", w.Name)
	}
	if exec == nil {
		return fmt.Errorf("ramble: no executor")
	}
	for _, e := range w.Experiments {
		out, elapsed, err := exec(e)
		e.Output = out
		e.Elapsed = elapsed
		if err != nil {
			e.Status = Failed
			e.FailMsg = err.Error()
			continue
		}
		// Status is finalized by Analyze (success criteria).
		e.Status = Succeeded
		w.WriteOutput(e, ".out", out)
	}
	return nil
}

// AnalysisReport is the result of `ramble workspace analyze`.
type AnalysisReport struct {
	Total, Succeeded, Failed int
	Experiments              []*Experiment
}

// Analyze extracts figures of merit and applies success criteria
// (`ramble workspace analyze`).
func (w *Workspace) Analyze() (*AnalysisReport, error) {
	if !w.setupDone {
		return nil, fmt.Errorf("ramble: workspace %s: nothing to analyze", w.Name)
	}
	rep := &AnalysisReport{Experiments: w.Experiments}
	for _, e := range w.Experiments {
		rep.Total++
		if e.Status == Failed {
			rep.Failed++
			continue
		}
		if err := e.App.CheckSuccess(e.Output); err != nil {
			e.Status = Failed
			e.FailMsg = err.Error()
			rep.Failed++
			continue
		}
		e.FOMs = e.App.ExtractFOMs(e.Output)
		for _, name := range e.Modifiers {
			if mod, err := GetModifier(name); err == nil {
				for k, v := range mod.ExtractFOMs(e.Output) {
					e.FOMs[k] = v
				}
			}
		}
		e.Status = Succeeded
		rep.Succeeded++
	}
	return rep, nil
}

// mapFromYAML flattens a yamlite map of scalars into Go strings.
func mapFromYAML(m *yamlite.Map) map[string]string {
	out := map[string]string{}
	if m == nil {
		return out
	}
	for _, k := range m.Keys() {
		out[k] = m.GetString(k)
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
