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
	"maps"
	"slices"
	"strconv"
	"strings"

	"repro/internal/cachekey"
	"repro/internal/metricsdb"
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
	return cachekey.HashJSON(c.appendFingerprint(nil))
}

// appendFingerprint appends the canonical JSON Fingerprint hashes: byte
// for byte what json.Marshal gives for the struct the tests keep
// (fingerprintOf in cache_test.go), written by hand member by member
// in its declaration order —
//
//	Platform, Target, Compilers, DefaultCompiler, Externals,
//	NotBuildable, ProviderPrefs, VersionPrefs, VariantPrefs,
//	ReuseFromContext, ReuseInstalled
//
// — with map keys sorted and a nil list or map as null. A compiler is
// "name@version prefix=path", an external {"Spec","Prefix"},
// NotBuildable the sorted names marked true, and ReuseInstalled the
// reuse set's renderings in order: reuse order is load-bearing (the first
// compatible candidate wins during seeding), so a reordered reuse set
// may miss, but can never hit a result it would not have produced.
func (c *Config) appendFingerprint(b []byte) []byte {
	// array writes n elements, each by elem, as a JSON array, or null
	// for a nil list.
	array := func(isNil bool, n int, elem func(i int)) {
		if isNil {
			b = append(b, "null"...)
			return
		}
		b = append(b, '[')
		for i := range n {
			if i > 0 {
				b = append(b, ',')
			}
			elem(i)
		}
		b = append(b, ']')
	}
	strs := func(l []string) {
		array(l == nil, len(l), func(i int) { b = metricsdb.AppendString(b, l[i]) })
	}
	// object writes the members of a map with the given keys, which
	// are sorted, each value by value, or null for a nil map.
	object := func(isNil bool, keys []string, value func(k string)) {
		if isNil {
			b = append(b, "null"...)
			return
		}
		b = append(b, '{')
		for i, k := range keys {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(metricsdb.AppendString(b, k), ':')
			value(k)
		}
		b = append(b, '}')
	}
	strMap := func(m map[string]string) {
		object(m == nil, slices.Sorted(maps.Keys(m)), func(k string) { b = metricsdb.AppendString(b, m[k]) })
	}

	b = metricsdb.AppendString(append(b, `{"Platform":`...), c.Platform)
	b = metricsdb.AppendString(append(b, `,"Target":`...), c.Target)
	b = append(b, `,"Compilers":`...)
	array(len(c.Compilers) == 0, len(c.Compilers), func(i int) {
		def := c.Compilers[i]
		b = metricsdb.AppendString(b, def.Name+"@"+def.Version.String()+" prefix="+def.Prefix)
	})
	b = metricsdb.AppendString(append(b, `,"DefaultCompiler":`...), c.DefaultCompiler)
	b = append(b, `,"Externals":`...)
	var listed []string // a name none of whose externals is listed is left out
	for name, exts := range c.Externals {
		if len(exts) > 0 {
			listed = append(listed, name)
		}
	}
	slices.Sort(listed)
	object(len(c.Externals) == 0, listed, func(name string) {
		exts := c.Externals[name]
		array(false, len(exts), func(i int) {
			b = metricsdb.AppendString(append(b, `{"Spec":`...), exts[i].Spec.String())
			b = metricsdb.AppendString(append(b, `,"Prefix":`...), exts[i].Prefix)
			b = append(b, '}')
		})
	})
	var notBuildable []string
	for name, nb := range c.NotBuildable {
		if nb {
			notBuildable = append(notBuildable, name)
		}
	}
	slices.Sort(notBuildable)
	b = append(b, `,"NotBuildable":`...)
	strs(notBuildable)
	b = append(b, `,"ProviderPrefs":`...)
	object(c.ProviderPrefs == nil, slices.Sorted(maps.Keys(c.ProviderPrefs)), func(k string) { strs(c.ProviderPrefs[k]) })
	b = append(b, `,"VersionPrefs":`...)
	strMap(c.VersionPrefs)
	b = append(b, `,"VariantPrefs":`...)
	strMap(c.VariantPrefs)
	b = strconv.AppendBool(append(b, `,"ReuseFromContext":`...), c.ReuseFromContext)
	var reuse []string
	for _, s := range c.ReuseInstalled {
		if s != nil {
			reuse = append(reuse, s.String())
		}
	}
	b = append(b, `,"ReuseInstalled":`...)
	strs(reuse)
	return append(b, '}')
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
