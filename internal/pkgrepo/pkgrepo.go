// Package pkgrepo holds package recipes — the Go analogue of Spack's
// package.py files (Figure 11 of the Benchpark paper). A recipe
// declares the build space of one package: its versions, variants,
// conditional dependencies, conflicts, virtual packages it provides,
// and a build-configuration function templatized by the concrete spec.
//
// A Repo holds recipes in scopes; the builtin repo is one scope of
// upstream recipes.
package pkgrepo

import (
	"fmt"
	"sort"

	"repro/internal/spec"
)

// DepType classifies a dependency edge.
type DepType int

const (
	// BuildDep is needed only while building (e.g. cmake).
	BuildDep DepType = iota
	// LinkDep is linked into the result (e.g. blas).
	LinkDep
	// RunDep is needed at run time (e.g. mpi launcher).
	RunDep
)

func (d DepType) String() string {
	switch d {
	case BuildDep:
		return "build"
	case LinkDep:
		return "link"
	case RunDep:
		return "run"
	}
	return "unknown"
}

// Dependency is a conditional dependency declaration:
// depends_on(Spec, when=When, type=Type).
type Dependency struct {
	Spec *spec.Spec // constraint on the dependency
	When *spec.Spec // condition on the depending package (nil = always)
	Type DepType
}

// Conflict declares that a spec constraint is unsatisfiable,
// optionally only under a condition: conflicts(Spec, when=When).
type Conflict struct {
	Spec *spec.Spec
	When *spec.Spec
	Msg  string
}

// Provide declares that the package provides a virtual package
// (e.g. mvapich2 provides mpi).
type Provide struct {
	Virtual string
}

// VariantDef declares one variant of the build space.
type VariantDef struct {
	Name        string
	Default     spec.VariantValue
	Description string
	Values      []string // allowed values for string variants (nil = any)
}

// PkgVersion is one available version of the package.
type PkgVersion struct {
	Version    spec.Version
	Deprecated bool
}

// Package is a complete recipe.
type Package struct {
	Name        string
	Description string

	Versions     []PkgVersion // sorted newest-first by Finalize
	Variants     map[string]VariantDef
	Dependencies []Dependency
	Conflicts    []Conflict
	Provides     []Provide

	// Virtual marks pure interface packages (mpi, blas, lapack) that
	// cannot be installed themselves.
	Virtual bool

	// BuildSystem names the build idiom ("cmake", "autotools",
	// "makefile", "bundle"); BuildCost scales the simulated build
	// duration in seconds at reference parallelism.
	BuildSystem string
	BuildCost   float64

	// ConfigArgs renders build-system arguments from the concrete
	// spec, mirroring package.py's cmake_args (Figure 11).
	ConfigArgs func(s *spec.Spec) []string

	// IsCompiler marks packages usable as compilers (%name).
	IsCompiler bool
}

// NewPackage returns a recipe with the given name ready for the
// builder methods below.
func NewPackage(name string) *Package {
	return &Package{Name: name, Variants: map[string]VariantDef{}, BuildSystem: "makefile", BuildCost: 10}
}

// AddVersion registers an available version.
func (p *Package) AddVersion(v string) *Package {
	p.Versions = append(p.Versions, PkgVersion{Version: spec.NewVersion(v)})
	return p
}

// AddDeprecatedVersion registers a version only selectable when
// explicitly requested.
func (p *Package) AddDeprecatedVersion(v string) *Package {
	p.Versions = append(p.Versions, PkgVersion{Version: spec.NewVersion(v), Deprecated: true})
	return p
}

// BoolVariant declares a boolean variant with a default.
func (p *Package) BoolVariant(name string, def bool, desc string) *Package {
	p.Variants[name] = VariantDef{Name: name, Default: spec.BoolVariant(def), Description: desc}
	return p
}

// DependsOn declares an unconditional dependency.
func (p *Package) DependsOn(constraint string, typ DepType) *Package {
	p.Dependencies = append(p.Dependencies, Dependency{Spec: spec.MustParse(constraint), Type: typ})
	return p
}

// DependsOnWhen declares a conditional dependency; the when string is
// an anonymous constraint on this package (e.g. "+cuda").
func (p *Package) DependsOnWhen(constraint, when string, typ DepType) *Package {
	p.Dependencies = append(p.Dependencies, Dependency{
		Spec: spec.MustParse(constraint),
		When: spec.MustParse(p.Name + when),
		Type: typ,
	})
	return p
}

// ConflictsWith declares a conflict, e.g. ("+cuda", "+rocm", "pick one GPU runtime").
func (p *Package) ConflictsWith(constraint, when, msg string) *Package {
	c := Conflict{Spec: spec.MustParse(p.Name + constraint), Msg: msg}
	if when != "" {
		c.When = spec.MustParse(p.Name + when)
	}
	p.Conflicts = append(p.Conflicts, c)
	return p
}

// ProvidesVirtual declares a virtual package this recipe provides.
func (p *Package) ProvidesVirtual(virtual string) *Package {
	p.Provides = append(p.Provides, Provide{Virtual: virtual})
	return p
}

// Compiler marks the package as usable in %compiler position.
func (p *Package) Compiler() *Package {
	p.IsCompiler = true
	return p
}

// WithBuild sets the build system and simulated cost.
func (p *Package) WithBuild(system string, cost float64) *Package {
	p.BuildSystem = system
	p.BuildCost = cost
	return p
}

// Finalize sorts versions newest-first and validates the recipe.
func (p *Package) Finalize() error {
	if p.Name == "" {
		return fmt.Errorf("pkgrepo: package with empty name")
	}
	if !p.Virtual && len(p.Versions) == 0 {
		return fmt.Errorf("pkgrepo: package %s has no versions", p.Name)
	}
	sort.SliceStable(p.Versions, func(i, j int) bool {
		return p.Versions[i].Version.Compare(p.Versions[j].Version) > 0
	})
	for _, d := range p.Dependencies {
		if d.Spec.Name == "" {
			return fmt.Errorf("pkgrepo: package %s has anonymous dependency", p.Name)
		}
	}
	return nil
}

// BestVersion returns the version the concretizer should pick under
// the constraint: the newest non-deprecated admitted version, else the
// newest deprecated one.
func (p *Package) BestVersion(constraint spec.VersionList) (spec.Version, error) {
	for _, pv := range p.Versions {
		if !pv.Deprecated && constraint.Contains(pv.Version) {
			return pv.Version, nil
		}
	}
	for _, pv := range p.Versions {
		if constraint.Contains(pv.Version) {
			return pv.Version, nil
		}
	}
	return spec.Version{}, fmt.Errorf("pkgrepo: no version of %s satisfies @%s", p.Name, constraint)
}

// Repo is an ordered collection of package recipe scopes: earlier
// scopes shadow later ones.
type Repo struct {
	scopes []map[string]*Package
}

// NewRepo returns an empty repository.
func NewRepo() *Repo { return &Repo{} }

// AddScope appends a recipe scope at lower precedence than all
// existing scopes.
func (r *Repo) AddScope(name string, pkgs ...*Package) error {
	scope := map[string]*Package{}
	for _, p := range pkgs {
		if err := p.Finalize(); err != nil {
			return err
		}
		if _, dup := scope[p.Name]; dup {
			return fmt.Errorf("pkgrepo: duplicate package %s in scope %s", p.Name, name)
		}
		scope[p.Name] = p
	}
	r.scopes = append(r.scopes, scope)
	return nil
}

// Get returns the recipe for name from the first scope that has it.
func (r *Repo) Get(name string) (*Package, error) {
	for _, scope := range r.scopes {
		if p, ok := scope[name]; ok {
			return p, nil
		}
	}
	return nil, fmt.Errorf("pkgrepo: package %q not found", name)
}

// Names returns all package names visible in the repo, sorted.
func (r *Repo) Names() []string {
	seen := map[string]bool{}
	for _, scope := range r.scopes {
		for n := range scope {
			seen[n] = true
		}
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// IsVirtual reports whether name is a virtual package.
func (r *Repo) IsVirtual(name string) bool {
	p, err := r.Get(name)
	return err == nil && p.Virtual
}

// Providers returns the names of packages providing the virtual
// package, sorted for determinism.
func (r *Repo) Providers(virtual string) []string {
	var out []string
	for _, name := range r.Names() {
		p, _ := r.Get(name)
		for _, prov := range p.Provides {
			if prov.Virtual == virtual {
				out = append(out, name)
				break
			}
		}
	}
	return out
}
