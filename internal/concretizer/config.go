// Package concretizer implements Spack's concretization algorithm
// (Section 3.1 of the Benchpark paper): it takes abstract specs with
// user constraints and fills in every remaining choice point of the
// build space — versions, variants, compilers, targets, virtual
// providers, and the full dependency DAG — producing concrete specs.
//
// Concretization is driven by system-specific configuration
// (compilers.yaml, packages.yaml; Figures 4 and 9 of the paper):
// available compilers, externally installed packages, provider
// preferences, and the default target of the machine.
package concretizer

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cachekey"
	"repro/internal/spec"
	"repro/internal/yamlite"
)

// External describes one externally installed package usable instead
// of building from source (packages.yaml "externals:" entries).
type External struct {
	Spec   *spec.Spec // pinned spec, e.g. mvapich2@2.3.7-gcc12.1.1-magic
	Prefix string     // installation prefix on the system
}

// CompilerDef is one entry of compilers.yaml.
type CompilerDef struct {
	Name    string
	Version spec.Version
	Prefix  string
}

// Config is the system-specific configuration scope consulted during
// concretization.
type Config struct {
	// Platform and Target identify the machine ("linux", "broadwell").
	Platform string
	Target   string

	// Compilers lists compilers available on the system; the first one
	// compatible with a request is used. DefaultCompiler (a spec like
	// "gcc@12.1.1") is used when a spec carries no %compiler.
	Compilers       []CompilerDef
	DefaultCompiler string

	// Externals maps package name to available system installations;
	// NotBuildable marks packages that MUST come from an external
	// (Figure 4's "buildable: false").
	Externals    map[string][]External
	NotBuildable map[string]bool

	// ProviderPrefs maps a virtual package to providers in preference
	// order (e.g. mpi -> [mvapich2]).
	ProviderPrefs map[string][]string

	// VersionPrefs maps package name to a preferred version constraint
	// applied before choosing (e.g. cmake -> "3.23.1").
	VersionPrefs map[string]string

	// VariantPrefs maps package name to extra constraint text applied
	// as a low-priority default (e.g. hypre -> "+openmp").
	VariantPrefs map[string]string

	// ReuseFromContext ("unify: true" in Figure 3) makes environment
	// concretization share one node per package name across all roots.
	ReuseFromContext bool

	// ReuseInstalled holds concrete specs already present in an
	// install database; when a constraint is satisfied by one of them,
	// the concretizer reuses it instead of re-deriving a (possibly
	// newer) configuration — Spack's `spack install --reuse`.
	ReuseInstalled []*spec.Spec
}

// Fingerprint returns the content key of everything in the
// configuration that can influence a concretization result: two
// configs with equal fingerprints concretize any spec identically.
// It anchors the cache key of every concretization (the "concretize"
// cache layer), so adding a compiler, changing a preference, or
// growing the reuse set invalidates exactly the solves it could
// affect.
func (c *Config) Fingerprint() cachekey.Key {
	type extFP struct {
		Spec   string
		Prefix string
	}
	fp := struct {
		Platform         string
		Target           string
		Compilers        []string
		DefaultCompiler  string
		Externals        map[string][]extFP
		NotBuildable     []string
		ProviderPrefs    map[string][]string
		VersionPrefs     map[string]string
		VariantPrefs     map[string]string
		ReuseFromContext bool
		ReuseInstalled   []string
	}{
		Platform:         c.Platform,
		Target:           c.Target,
		DefaultCompiler:  c.DefaultCompiler,
		ProviderPrefs:    c.ProviderPrefs,
		VersionPrefs:     c.VersionPrefs,
		VariantPrefs:     c.VariantPrefs,
		ReuseFromContext: c.ReuseFromContext,
	}
	for _, def := range c.Compilers {
		fp.Compilers = append(fp.Compilers, def.Name+"@"+def.Version.String()+" prefix="+def.Prefix)
	}
	if len(c.Externals) > 0 {
		fp.Externals = map[string][]extFP{}
		for name, exts := range c.Externals {
			for _, e := range exts {
				fp.Externals[name] = append(fp.Externals[name], extFP{Spec: e.Spec.String(), Prefix: e.Prefix})
			}
		}
	}
	for name, nb := range c.NotBuildable {
		if nb {
			fp.NotBuildable = append(fp.NotBuildable, name)
		}
	}
	sort.Strings(fp.NotBuildable)
	// Reuse order is load-bearing (the first compatible candidate wins
	// during seeding), so it is hashed in order, not sorted: a reordered
	// reuse set may miss, but can never hit a result it would not have
	// produced.
	for _, s := range c.ReuseInstalled {
		if s != nil {
			fp.ReuseInstalled = append(fp.ReuseInstalled, s.String())
		}
	}
	return cachekey.Hash(fp)
}

// NewConfig returns an empty configuration.
func NewConfig() *Config {
	return &Config{
		Externals:     map[string][]External{},
		NotBuildable:  map[string]bool{},
		ProviderPrefs: map[string][]string{},
		VersionPrefs:  map[string]string{},
		VariantPrefs:  map[string]string{},
	}
}

// AddCompiler registers an available compiler from its spec string.
func (c *Config) AddCompiler(specStr, prefix string) error {
	s, err := spec.Parse(specStr)
	if err != nil {
		return err
	}
	v, ok := s.Versions.Concrete()
	if !ok {
		return fmt.Errorf("concretizer: compiler %q must have an exact version", specStr)
	}
	c.Compilers = append(c.Compilers, CompilerDef{Name: s.Name, Version: v, Prefix: prefix})
	return nil
}

// AddExternal registers a system installation of a package.
func (c *Config) AddExternal(specStr, prefix string) error {
	s, err := spec.Parse(specStr)
	if err != nil {
		return err
	}
	if _, ok := s.Versions.Concrete(); !ok {
		return fmt.Errorf("concretizer: external %q must have an exact version", specStr)
	}
	c.Externals[s.Name] = append(c.Externals[s.Name], External{Spec: s, Prefix: prefix})
	return nil
}

// LoadPackagesYAML merges a packages.yaml document (Figure 4) into the
// configuration. Recognized keys per package: externals (spec/prefix),
// buildable, providers, version, variants. The special package "all"
// sets global compiler/target preferences.
func (c *Config) LoadPackagesYAML(src string) error {
	doc, err := yamlite.ParseMap(src)
	if err != nil {
		return err
	}
	pkgs := doc.GetMap("packages")
	if pkgs == nil {
		return fmt.Errorf("concretizer: packages.yaml missing top-level 'packages' key")
	}
	for _, name := range pkgs.Keys() {
		entry := pkgs.GetMap(name)
		if entry == nil {
			continue
		}
		if name == "all" {
			if comp := entry.GetStrings("compiler"); len(comp) > 0 {
				c.DefaultCompiler = comp[0]
			}
			if tgt := entry.GetStrings("target"); len(tgt) > 0 {
				c.Target = tgt[0]
			}
			continue
		}
		for _, ev := range entry.GetSlice("externals") {
			em, ok := ev.(*yamlite.Map)
			if !ok {
				return fmt.Errorf("concretizer: bad externals entry for %s", name)
			}
			if err := c.AddExternal(em.GetString("spec"), em.GetString("prefix")); err != nil {
				return err
			}
		}
		if entry.Has("buildable") && !entry.GetBool("buildable", true) {
			c.NotBuildable[name] = true
		}
		if provs := entry.GetStrings("providers"); len(provs) > 0 {
			c.ProviderPrefs[name] = provs
		}
		if v := entry.GetString("version"); v != "" {
			c.VersionPrefs[name] = v
		}
		if v := entry.GetString("variants"); v != "" {
			c.VariantPrefs[name] = v
		}
	}
	return nil
}

// LoadCompilersYAML merges a compilers.yaml document into the
// configuration.
//
//	compilers:
//	- compiler:
//	    spec: gcc@12.1.1
//	    prefix: /usr/tce
func (c *Config) LoadCompilersYAML(src string) error {
	doc, err := yamlite.ParseMap(src)
	if err != nil {
		return err
	}
	for _, cv := range doc.GetSlice("compilers") {
		cm, ok := cv.(*yamlite.Map)
		if !ok {
			return fmt.Errorf("concretizer: bad compilers.yaml entry")
		}
		inner := cm.GetMap("compiler")
		if inner == nil {
			return fmt.Errorf("concretizer: compilers.yaml entry missing 'compiler' key")
		}
		if err := c.AddCompiler(inner.GetString("spec"), inner.GetString("prefix")); err != nil {
			return err
		}
	}
	return nil
}

// FindCompiler returns the configured compiler matching the request
// (nil request = the default compiler).
func (c *Config) FindCompiler(req *spec.Compiler) (CompilerDef, error) {
	want := req
	if want == nil {
		if c.DefaultCompiler == "" {
			if len(c.Compilers) > 0 {
				return c.Compilers[0], nil
			}
			return CompilerDef{}, fmt.Errorf("concretizer: no compilers configured")
		}
		s, err := spec.Parse(c.DefaultCompiler)
		if err != nil {
			return CompilerDef{}, fmt.Errorf("concretizer: bad default compiler %q: %w", c.DefaultCompiler, err)
		}
		want = &spec.Compiler{Name: s.Name, Versions: s.Versions}
	}
	for _, def := range c.Compilers {
		if def.Name == want.Name && want.Versions.Contains(def.Version) {
			return def, nil
		}
	}
	var have []string
	for _, def := range c.Compilers {
		have = append(have, "%"+def.Name+"@"+def.Version.String())
	}
	return CompilerDef{}, fmt.Errorf("concretizer: no configured compiler satisfies %s (have: %s)",
		want, strings.Join(have, ", "))
}
