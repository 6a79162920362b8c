// Package env implements Spack environments (Section 3.1.1 of the
// Benchpark paper): a manifest of abstract specs combined with
// configuration, following the manifest-and-lock model of Bundler and
// friends. The manifest (spack.yaml, Figure 3) is user input; the
// concretizer's output is written to a lockfile, giving functional
// reproducibility of the build.
//
// The Figure 2 workflow maps to:
//
//	spack env create --dir .   ->  env.New / env.FromManifestYAML
//	spack env activate --dir . ->  (holding the *Environment)
//	spack add amg2023+caliper  ->  e.Add("amg2023+caliper")
//	spack concretize           ->  e.Concretize(concretizer)
//	spack install              ->  e.Install(ctx, installer)
package env

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"slices"

	"repro/internal/concretizer"
	"repro/internal/install"
	"repro/internal/spec"
	"repro/internal/yamlite"
)

// Environment is a self-contained set of abstract specs plus
// concretizer configuration.
type Environment struct {
	Name  string
	Specs []*spec.Spec // abstract roots, in addition order

	// Unify requests unified concretization (Figure 3's
	// "concretizer: unify: true").
	Unify bool
	// View requests a merged view directory (recorded; views are not
	// materialized in the simulation).
	View bool

	// Roots holds the concretized roots after Concretize, parallel to
	// Specs. Nil until concretized.
	Roots []*spec.Spec
}

// New returns an empty named environment.
func New(name string) *Environment {
	return &Environment{Name: name, Unify: true, View: true}
}

// Add appends an abstract spec to the manifest
// (the `spack add` of Figure 2). Duplicate roots are rejected.
func (e *Environment) Add(specStr string) error {
	s, err := spec.Parse(specStr)
	if err != nil {
		return err
	}
	for _, prev := range e.Specs {
		if prev.Name == s.Name {
			return fmt.Errorf("env: %q already has a root for package %s", e.Name, s.Name)
		}
	}
	e.Specs = append(e.Specs, s)
	e.Roots = nil // invalidate any previous concretization
	return nil
}

// Concretize resolves all roots (`spack concretize`). With Unify,
// shared packages resolve to identical nodes.
func (e *Environment) Concretize(c *concretizer.Concretizer) error {
	if len(e.Specs) == 0 {
		return fmt.Errorf("env: %q has no specs to concretize", e.Name)
	}
	saved := c.Config.ReuseFromContext
	c.Config.ReuseFromContext = e.Unify
	defer func() { c.Config.ReuseFromContext = saved }()

	roots, err := c.ConcretizeTogether(cloneAll(e.Specs))
	if err != nil {
		return err
	}
	e.Roots = roots
	return nil
}

// IsConcretized reports whether a lockfile-worthy solution exists.
func (e *Environment) IsConcretized() bool { return len(e.Roots) == len(e.Specs) && len(e.Specs) > 0 }

// Install installs every concretized root (`spack install`), checking
// the context between roots.
func (e *Environment) Install(ctx context.Context, inst *install.Installer) (*install.Report, error) {
	if !e.IsConcretized() {
		return nil, fmt.Errorf("env: %q is not concretized", e.Name)
	}
	return installRoots(ctx, e.Roots, inst)
}

// installRoots installs each root in turn and sums their reports.
func installRoots(ctx context.Context, roots []*spec.Spec, inst *install.Installer) (*install.Report, error) {
	total := &install.Report{}
	for _, root := range roots {
		rep, err := inst.Install(ctx, root)
		if err != nil {
			return nil, err
		}
		total.Results = append(total.Results, rep.Results...)
		total.TotalWork += rep.TotalWork
		total.Makespan += rep.Makespan
	}
	return total, nil
}

// DistinctInstalls counts the unique concrete nodes across all roots
// — the ablation metric for unify on/off.
func (e *Environment) DistinctInstalls() int {
	seen := map[string]bool{}
	hs := spec.Hasher{}
	for _, r := range e.Roots {
		r.Traverse(func(n *spec.Spec) { seen[hs.Hash(n)] = true })
	}
	return len(seen)
}

func cloneAll(in []*spec.Spec) []*spec.Spec {
	out := make([]*spec.Spec, len(in))
	for i, s := range in {
		out[i] = s.Clone()
	}
	return out
}

// ---------------------------------------------------------------------------
// Manifest (spack.yaml)
// ---------------------------------------------------------------------------

// FromManifestYAML parses a Figure 3 style manifest:
//
//	spack:
//	  specs: [amg2023+caliper]
//	  concretizer:
//	    unify: true
//	  view: true
func FromManifestYAML(name, src string) (*Environment, error) {
	doc, err := yamlite.ParseMap(src)
	if err != nil {
		return nil, err
	}
	sp := doc.GetMap("spack")
	if sp == nil {
		return nil, fmt.Errorf("env: manifest missing top-level 'spack' key")
	}
	e := New(name)
	for _, s := range sp.GetStrings("specs") {
		if err := e.Add(s); err != nil {
			return nil, err
		}
	}
	if conc := sp.GetMap("concretizer"); conc != nil {
		e.Unify = conc.GetBool("unify", true)
	}
	e.View = sp.GetBool("view", true)
	return e, nil
}

// ManifestYAML renders the environment back to a spack.yaml manifest.
func (e *Environment) ManifestYAML() string {
	specs := make([]yamlite.Value, 0, len(e.Specs))
	for _, s := range e.Specs {
		specs = append(specs, s.String())
	}
	m := yamlite.MapOf("spack", yamlite.MapOf(
		"specs", specs,
		"concretizer", yamlite.MapOf("unify", e.Unify),
		"view", e.View,
	))
	return yamlite.Marshal(m)
}

// ---------------------------------------------------------------------------
// Lockfile (spack.lock)
// ---------------------------------------------------------------------------

// Lock renders the current concretization as spack.lock: the roots'
// spec.DAG as deterministic, indented JSON.
func (e *Environment) Lock() ([]byte, error) {
	if !e.IsConcretized() {
		return nil, fmt.Errorf("env: %q is not concretized", e.Name)
	}
	return json.MarshalIndent(spec.EncodeDAG(e.Roots), "", "  ")
}

// InstallFromLock reproduces a lockfile's installation exactly — the
// other half of functional reproducibility: a collaborator who
// receives only spack.lock rebuilds its DAG, every hash re-derived and
// verified (a tampered or corrupted lockfile is rejected), and installs
// it without consulting the concretizer.
func InstallFromLock(ctx context.Context, lock []byte, inst *install.Installer) (*install.Report, error) {
	var dag spec.DAG
	if err := json.Unmarshal(lock, &dag); err != nil {
		return nil, fmt.Errorf("env: bad lockfile: %w", err)
	}
	roots, err := dag.Decode()
	if err != nil {
		return nil, fmt.Errorf("env: lockfile: %w", err)
	}
	return installRoots(ctx, roots, inst)
}

// PackageNames returns the distinct package names of the concretized
// DAG, sorted.
func (e *Environment) PackageNames() []string {
	seen := map[string]bool{}
	for _, r := range e.Roots {
		r.Traverse(func(n *spec.Spec) { seen[n.Name] = true })
	}
	return slices.Sorted(maps.Keys(seen))
}
