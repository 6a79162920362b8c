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

	// hashes is the DAG hash table of Roots' nodes, kept exactly as
	// long as Roots (see Hashes).
	hashes spec.Hasher
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
	e.Roots, e.hashes = nil, nil // invalidate any previous concretization
	return nil
}

// Hashes is the table of DAG hashes of e's concrete roots: the one
// the concretize layer filled as it decoded a cached solve or encoded
// a fresh one, so Install, Lock, DistinctInstalls and a caller that
// needs a root's hash read each node's hash without hashing it again.
// It lives as long as Roots, whose nodes nothing mutates (see
// spec.Hasher).
func (e *Environment) Hashes() spec.Hasher {
	if e.hashes == nil {
		e.hashes = spec.Hasher{}
	}
	return e.hashes
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

	hs := spec.Hasher{}
	roots, err := c.ConcretizeTogether(cloneAll(e.Specs), hs)
	if err != nil {
		return err
	}
	e.Roots, e.hashes = roots, hs
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
	return installRoots(ctx, e.Roots, e.Hashes(), inst)
}

// installRoots installs each root in turn, reading hashes from hs, and
// sums their reports.
func installRoots(ctx context.Context, roots []*spec.Spec, hs spec.Hasher, inst *install.Installer) (*install.Report, error) {
	total := &install.Report{}
	for _, root := range roots {
		rep, err := inst.Install(ctx, root, hs)
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
	hs := e.Hashes()
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
	return json.MarshalIndent(spec.EncodeDAG(e.Roots, e.Hashes()), "", "  ")
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
	hs := spec.Hasher{}
	roots, err := dag.Decode(hs)
	if err != nil {
		return nil, fmt.Errorf("env: lockfile: %w", err)
	}
	return installRoots(ctx, roots, hs, inst)
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
