package ramble

import (
	"cmp"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
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
	// the expansions remembered for the old value. Expander.ExpandVar
	// of each name is its rendered value, from the Expander's memo once
	// the experiment is built (core's run key reads them that way).
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

	// Execution results: whatever ran the experiment sets them, and
	// Analyze settles Status and FOMs.
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

	effective *yamlite.Map // ramble: subtree with includes merged

	Experiments []*Experiment
	setupDone   bool

	// files is everything written to the workspace since it was
	// opened, by workspace-relative path; nothing reaches Root before
	// Save. A directory is an entry with fs.ModeDir set and no data.
	files map[string]file
}

// file is one written file. Its text is a string, so the rendered
// scripts, configs and outputs handed in as strings are kept as they
// are, not copied.
type file struct {
	data string
	mode fs.FileMode
}

// NewWorkspace opens a workspace at root (`ramble workspace create`).
// It creates root itself, so an unwritable location fails here and not
// after the run; the skeleton under it exists in memory until Save.
func NewWorkspace(name, root string) (*Workspace, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("ramble: creating workspace: %w", err)
	}
	w := &Workspace{Name: name, Root: root, files: map[string]file{}}
	for _, d := range []string{"configs", "experiments", "logs"} {
		w.put(d, "", fs.ModeDir|0o755)
	}
	return w, nil
}

// put is the one way anything is written to a workspace.
func (w *Workspace) put(rel, data string, mode fs.FileMode) {
	w.files[rel] = file{data, mode}
}

// read returns a workspace file: what this process wrote if it wrote
// it, else what an earlier one saved under Root — which is how a
// reopened workspace finds its includes and cached inputs.
func (w *Workspace) read(rel string) (string, error) {
	if f, ok := w.files[rel]; ok && !f.mode.IsDir() {
		return f.data, nil
	}
	data, err := os.ReadFile(filepath.Join(w.Root, rel))
	return string(data), err
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
		if err := os.WriteFile(path, []byte(f.data), f.mode); err != nil {
			return fmt.Errorf("ramble: saving workspace: %w", err)
		}
	}
	return nil
}

// WriteConfig stores a named config file under configs/
// (spack.yaml, variables.yaml — the system-specific inputs).
func (w *Workspace) WriteConfig(name, content string) {
	w.put(filepath.Join("configs", name), content, 0o644)
}

// WriteLog stores an analysis artifact under logs/.
func (w *Workspace) WriteLog(name string, data []byte) {
	w.put(filepath.Join("logs", name), string(data), 0o644)
}

// WriteOutput stores <experiment><ext> in the experiment's run
// directory: the .out the kernel printed, the .cali it profiled.
func (w *Workspace) WriteOutput(e *Experiment, ext, content string) {
	w.put(filepath.Join(e.relDir(), e.Name+ext), content, 0o644)
}

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
	// Every tree merged here was parsed just now and is read by
	// nothing else, so Merge moves it rather than copying.
	eff := r
	for _, inc := range r.GetStrings("include") {
		base := filepath.Base(inc) // ./configs/spack.yaml -> spack.yaml
		data, err := w.read(filepath.Join("configs", base))
		if err != nil {
			return fmt.Errorf("ramble: include %q: %w", inc, err)
		}
		incDoc, err := yamlite.ParseMap(data)
		if err != nil {
			return fmt.Errorf("ramble: include %q: %w", inc, err)
		}
		// Included top-level sections (spack:, variables:) merge into
		// the ramble: subtree, system config underneath experiment
		// config (experiment-specific keys win).
		incDoc.Merge(eff)
		eff = incDoc
	}
	w.effective = eff
	w.Experiments = nil
	w.setupDone = false
	return nil
}

// Effective exposes the merged configuration (for inspection/tests).
func (w *Workspace) Effective() *yamlite.Map { return w.effective }

// Setup generates all experiments and fetches their inputs
// (`ramble workspace setup`). Installing the software environments
// (SoftwareEnvironments) is the driver's job.
func (w *Workspace) Setup() error {
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

	for _, e := range w.Experiments {
		w.put(filepath.Join(e.relDir(), "execute_experiment.sh"), e.Script, 0o755)
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
// templates, expanding each template into concrete experiments.
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
			envVars := mapFromYAML(wlSec.GetMap("env_vars").GetMap("set"))
			exps := wlSec.GetMap("experiments")
			if exps == nil {
				return nil, fmt.Errorf("ramble: %s/%s has no experiments section", appName, wlName)
			}
			for _, nameTpl := range exps.Keys() {
				expSec := exps.GetMap(nameTpl)
				// nil when none is listed: a run key encodes nil and empty apart.
				modifiers := slices.Concat(wlSec.GetStrings("modifiers"), expSec.GetStrings("modifiers"))
				gen, err := w.expandTemplate(app, wlName, nameTpl, expSec, globalVars, wlVars, envVars, modifiers)
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

// builtinVars is the lowest layer of every experiment's variables.
func builtinVars(app, workload, nameTpl string) map[string]string {
	return map[string]string{
		"application_name":   app,
		"workload_name":      workload,
		"experiment_name":    nameTpl,
		"n_nodes":            "1",
		"processes_per_node": "1",
		"n_ranks":            "{processes_per_node*n_nodes}",
		"n_threads":          "1",
		"batch_time":         "60",
		"spack_setup":        ". $SPACK_ROOT/share/spack/setup-env.sh",
		// Scheduler variables normally supplied by the system's
		// variables.yaml (Figure 12); generic fallbacks keep minimal
		// workspaces functional.
		"batch_nodes":        "#SBATCH -N {n_nodes}",
		"batch_ranks":        "#SBATCH -n {n_ranks}",
		"batch_timeout":      "#SBATCH -t {batch_time}:00",
		"mpi_command":        "mpirun -n {n_ranks}",
		"execute_experiment": "{experiment_run_dir}/execute_experiment.sh",
		"batch_submit":       "sbatch {execute_experiment}",
	}
}

// expandTemplate produces the concrete experiments of one experiment
// template. This is the whole expansion rule (Section 3.2):
//
//   - Axes. The template's vector variables that no matrix names are
//     zipped into one axis: they advance together and must have equal
//     lengths. Each variable of each matrix is one more axis, in matrix
//     order and then variable order. One odometer walks the axes, the
//     last fastest, so the zip index is outermost; an empty axis
//     yields no experiment.
//   - Precedence. A combination's variables are, lowest first: the
//     built-ins (builtinVars), each listed modifier's Variables (a
//     later modifier wins), the application's defaults for the
//     workload, the global variables, the workload's variables, the
//     template's scalar variables, and then its axis values. The
//     environment is each listed modifier's EnvVars beneath the
//     workload's env_vars.
//   - Exclusion. A combination is dropped when its variables, the
//     lower layers included, hold every value of one exclude: entry.
//
// Everything but the axis values is resolved once per template, so an
// unknown modifier fails even a template that yields no experiment.
func (w *Workspace) expandTemplate(app *Application, workload, nameTpl string,
	expSec *yamlite.Map, globalVars, wlVars, envVars map[string]string,
	modifiers []string) ([]*Experiment, error) {

	base := builtinVars(app.Name, workload, nameTpl)
	env := map[string]string{}
	for _, name := range modifiers {
		mod, err := GetModifier(name)
		if err != nil {
			return nil, err
		}
		maps.Copy(base, mod.Variables)
		maps.Copy(env, mod.EnvVars)
	}
	maps.Copy(env, envVars)
	for _, layer := range []map[string]string{app.DefaultVars(workload), globalVars, wlVars} {
		maps.Copy(base, layer)
	}
	vectors := map[string][]string{}
	var order []string
	vs := expSec.GetMap("variables")
	for _, k := range vs.Keys() {
		v, ok := vs.Get(k).([]yamlite.Value)
		if !ok {
			base[k] = vs.GetString(k)
			continue
		}
		vectors[k] = make([]string, len(v))
		for i, e := range v {
			vectors[k][i] = yamlite.ScalarString(e)
		}
		order = append(order, k)
	}

	var axes [][]string
	inMatrix := map[string]bool{}
	for _, mv := range expSec.GetSlice("matrices") {
		mm, ok := mv.(*yamlite.Map)
		if !ok || mm.Len() != 1 {
			return nil, fmt.Errorf("bad matrices entry (want '- name: [vars]')")
		}
		mname := mm.Keys()[0]
		for _, v := range mm.GetStrings(mname) {
			if _, ok := vectors[v]; !ok {
				return nil, fmt.Errorf("matrix %s references non-vector variable %q", mname, v)
			}
			axes = append(axes, []string{v})
			inMatrix[v] = true
		}
	}

	// Exclusions prune infeasible corners like "1024 ranks on 1 node"
	// (Ramble's exclude: construct).
	var exclusions []map[string]string
	for _, ev := range expSec.GetMap("exclude").GetSlice("variables") {
		em, ok := ev.(*yamlite.Map)
		if !ok {
			return nil, fmt.Errorf("bad exclude entry (want '- var: value' mappings)")
		}
		exclusions = append(exclusions, mapFromYAML(em))
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

	zipped := slices.DeleteFunc(order, func(k string) bool { return inMatrix[k] })
	for _, k := range zipped {
		if len(vectors[k]) != len(vectors[zipped[0]]) {
			return nil, fmt.Errorf("vector variables %v must have equal lengths to zip (%s has %d, %s has %d)",
				zipped, zipped[0], len(vectors[zipped[0]]), k, len(vectors[k]))
		}
	}
	if len(zipped) > 0 {
		axes = append([][]string{zipped}, axes...)
	}

	// Per-experiment template override (Figure 1a keeps an
	// exe_experiment.tpl next to each experiment definition).
	tpl := cmp.Or(expSec.GetString("template"), DefaultTemplate)
	combinations := 1
	for _, ax := range axes {
		combinations *= len(vectors[ax[0]])
	}
	idx := make([]int, len(axes))
	var out []*Experiment
	for ; combinations > 0; combinations-- {
		vars := maps.Clone(base)
		for a, ax := range axes {
			for _, k := range ax {
				vars[k] = vectors[k][idx[a]]
			}
		}
		// Advance the odometer: the last axis turns fastest.
		for a := len(axes) - 1; a >= 0; a-- {
			if idx[a]++; idx[a] < len(vectors[axes[a][0]]) {
				break
			}
			idx[a] = 0
		}
		if excluded(vars) {
			continue
		}
		exp, err := w.buildExperiment(app, workload, nameTpl, tpl, vars, env, modifiers)
		if err != nil {
			return nil, err
		}
		out = append(out, exp)
	}
	return out, nil
}

// buildExperiment finalizes one combination's variables into an
// Experiment: its name, run directory, command, script, environment
// and geometry.
func (w *Workspace) buildExperiment(app *Application, workload, nameTpl, template string,
	vars, env map[string]string, modifiers []string) (*Experiment, error) {

	ex := NewExpander(vars)
	name, err := ex.Expand(nameTpl)
	if err != nil {
		return nil, err
	}
	ex.Set("experiment_name", name)
	dir := filepath.Join(w.Root, runDir(app.Name, workload, name))
	ex.Set("experiment_run_dir", dir)

	// Command: the workload's executables under the system launcher.
	cmds, err := renderCommand(app, workload, ex, vars["mpi_command"])
	if err != nil {
		return nil, err
	}
	ex.Set("command", strings.Join(cmds, "\n"))

	script, err := ex.Expand(template)
	if err != nil {
		return nil, err
	}

	rendered := make(map[string]string, len(env))
	for k, v := range env {
		if rendered[k], err = ex.Expand(v); err != nil {
			return nil, err
		}
	}

	e := &Experiment{
		Name:      name,
		App:       app,
		Workload:  workload,
		Vars:      vars,
		Expander:  ex,
		Env:       rendered,
		Script:    script,
		Dir:       dir,
		Modifiers: modifiers,
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
		s, err := ex.ExpandVar(g.key)
		if err != nil {
			return nil, err
		}
		n, err := strconv.Atoi(s)
		if err != nil {
			return nil, fmt.Errorf("ramble: %s=%q is not an integer", g.key, s)
		}
		*g.dst = n
	}
	s, err := ex.ExpandVar("batch_time")
	if err != nil {
		return nil, err
	}
	if e.BatchTime, err = strconv.ParseFloat(s, 64); err != nil {
		return nil, fmt.Errorf("ramble: batch_time=%q is not a number", s)
	}
	return e, nil
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
