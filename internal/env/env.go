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
//	spack install              ->  e.Install(installer)
package env

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

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

// Remove drops the root for a package name.
func (e *Environment) Remove(pkgName string) error {
	for i, s := range e.Specs {
		if s.Name == pkgName {
			e.Specs = append(e.Specs[:i], e.Specs[i+1:]...)
			e.Roots = nil
			return nil
		}
	}
	return fmt.Errorf("env: no root for package %q", pkgName)
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

// Install installs every concretized root (`spack install`).
// Cancellable callers use InstallContext.
//
//benchlint:compat
func (e *Environment) Install(inst *install.Installer) (*install.Report, error) {
	return e.InstallContext(context.Background(), inst)
}

// InstallContext is Install with cancellation between roots.
func (e *Environment) InstallContext(ctx context.Context, inst *install.Installer) (*install.Report, error) {
	if !e.IsConcretized() {
		return nil, fmt.Errorf("env: %q is not concretized", e.Name)
	}
	total := &install.Report{}
	for _, root := range e.Roots {
		rep, err := inst.InstallContext(ctx, root)
		if err != nil {
			return nil, err
		}
		total.Results = append(total.Results, rep.Results...)
		total.TotalWork += rep.TotalWork
		if rep.Makespan > 0 {
			total.Makespan += rep.Makespan
		}
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

// LockNode is one concrete node in the lockfile.
type LockNode struct {
	Name     string            `json:"name"`
	Version  string            `json:"version"`
	Spec     string            `json:"spec"`
	Hash     string            `json:"hash"`
	External string            `json:"external,omitempty"`
	Deps     map[string]string `json:"dependencies,omitempty"` // name -> hash
}

// Lockfile is the concretizer output written alongside the manifest.
type Lockfile struct {
	Roots []string            `json:"roots"` // hashes of root nodes in manifest order
	Nodes map[string]LockNode `json:"concrete_specs"`
}

// Lock captures the current concretization as a lockfile.
func (e *Environment) Lock() (*Lockfile, error) {
	if !e.IsConcretized() {
		return nil, fmt.Errorf("env: %q is not concretized", e.Name)
	}
	lf := &Lockfile{Nodes: map[string]LockNode{}}
	hs := spec.Hasher{}
	for _, root := range e.Roots {
		lf.Roots = append(lf.Roots, hs.Hash(root))
		root.Traverse(func(n *spec.Spec) {
			h := hs.Hash(n)
			if _, ok := lf.Nodes[h]; ok {
				return
			}
			ln := LockNode{
				Name:     n.Name,
				Version:  n.ConcreteVersion().String(),
				Spec:     n.String(),
				Hash:     h,
				External: n.External,
			}
			if len(n.Deps) > 0 {
				ln.Deps = map[string]string{}
				for dn, d := range n.Deps {
					ln.Deps[dn] = hs.Hash(d)
				}
			}
			lf.Nodes[h] = ln
		})
	}
	return lf, nil
}

// JSON renders the lockfile as deterministic, indented JSON.
func (lf *Lockfile) JSON() (string, error) {
	b, err := json.MarshalIndent(lf, "", "  ")
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// ParseLockfile reads a lockfile from JSON.
func ParseLockfile(src string) (*Lockfile, error) {
	var lf Lockfile
	if err := json.Unmarshal([]byte(src), &lf); err != nil {
		return nil, fmt.Errorf("env: bad lockfile: %w", err)
	}
	return &lf, nil
}

// Reconstruct rebuilds the concrete spec DAG from the lockfile —
// the other half of functional reproducibility: a collaborator who
// receives only the lockfile can reproduce the exact installation.
// Hashes are re-derived and verified against the recorded ones, so a
// tampered or corrupted lockfile is rejected.
func (lf *Lockfile) Reconstruct() ([]*spec.Spec, error) {
	nodes := map[string]spec.EncodedNode{}
	for hash, ln := range lf.Nodes {
		// The node's own rendering is everything before the first
		// " ^" dependency clause; the external annotation is metadata.
		text := ln.Spec
		if i := strings.Index(text, " ^"); i >= 0 {
			text = text[:i]
		}
		if i := strings.Index(text, " [external:"); i >= 0 {
			text = text[:i]
		}
		nodes[hash] = spec.EncodedNode{Node: text, External: ln.External, Deps: ln.Deps}
	}
	roots, err := spec.DecodeDAG(nodes, lf.Roots)
	if err != nil {
		return nil, fmt.Errorf("env: lockfile: %w", err)
	}
	return roots, nil
}

// InstallFromLock reproduces a lockfile's installation exactly: the
// DAG is reconstructed, verified, and installed without consulting
// the concretizer.
func InstallFromLock(lf *Lockfile, inst *install.Installer) (*install.Report, error) {
	roots, err := lf.Reconstruct()
	if err != nil {
		return nil, err
	}
	total := &install.Report{}
	for _, root := range roots {
		rep, err := inst.Install(root)
		if err != nil {
			return nil, err
		}
		total.Results = append(total.Results, rep.Results...)
		total.TotalWork += rep.TotalWork
		total.Makespan += rep.Makespan
	}
	return total, nil
}

// PackageNames returns the distinct package names in the lockfile,
// sorted.
func (lf *Lockfile) PackageNames() []string {
	seen := map[string]bool{}
	for _, n := range lf.Nodes {
		seen[n.Name] = true
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
