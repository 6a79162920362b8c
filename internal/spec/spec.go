package spec

import (
	"crypto/sha256"
	"encoding/base32"
	"fmt"
	"sort"
	"strings"
)

// VariantValue is the value of one variant: a boolean ("+openmp",
// "~debug") or one or more strings ("build_type=Release",
// "cuda_arch=70,80").
type VariantValue struct {
	IsBool bool
	Bool   bool
	Values []string // sorted, for multi-valued variants
}

// BoolVariant returns a boolean variant value.
func BoolVariant(b bool) VariantValue { return VariantValue{IsBool: true, Bool: b} }

// StringVariant returns a single- or multi-valued variant value.
func StringVariant(vals ...string) VariantValue {
	sorted := append([]string(nil), vals...)
	sort.Strings(sorted)
	return VariantValue{Values: sorted}
}

// Equal reports deep equality of two variant values.
func (v VariantValue) Equal(o VariantValue) bool {
	if v.IsBool != o.IsBool {
		return false
	}
	if v.IsBool {
		return v.Bool == o.Bool
	}
	if len(v.Values) != len(o.Values) {
		return false
	}
	for i := range v.Values {
		if v.Values[i] != o.Values[i] {
			return false
		}
	}
	return true
}

// Render returns the spec-syntax form of the variant, e.g. "+openmp"
// or "build_type=Release".
func (v VariantValue) Render(name string) string {
	if v.IsBool {
		if v.Bool {
			return "+" + name
		}
		return "~" + name
	}
	return name + "=" + strings.Join(v.Values, ",")
}

// Compiler identifies the compiler used for a node, e.g. "gcc@12.1.1".
type Compiler struct {
	Name     string
	Versions VersionList
}

func (c *Compiler) String() string {
	if c == nil {
		return ""
	}
	if c.Versions.Any() {
		return "%" + c.Name
	}
	return "%" + c.Name + "@" + c.Versions.String()
}

// Spec is a node in a spec DAG. Abstract specs carry partial
// constraints; concrete specs (after concretization) have exactly one
// version, a full variant assignment, a compiler, a target, and fully
// concrete dependencies.
type Spec struct {
	Name     string
	Versions VersionList
	Variants map[string]VariantValue
	Compiler *Compiler
	Target   string // archspec microarchitecture name
	Platform string // e.g. "linux"

	// Deps maps dependency package name to its spec node. In an
	// abstract spec these are constraints (the "^dep" clauses); in a
	// concrete spec they are resolved concrete nodes shared across the
	// DAG when unified.
	Deps map[string]*Spec

	// External is the installation prefix when the package is used
	// from the system rather than built (packages.yaml externals).
	External string

	concrete bool
}

// New returns an empty abstract spec for the named package.
func New(name string) *Spec {
	return &Spec{Name: name, Variants: map[string]VariantValue{}, Deps: map[string]*Spec{}}
}

// IsConcrete reports whether the spec has been marked concrete by the
// concretizer.
func (s *Spec) IsConcrete() bool { return s != nil && s.concrete }

// MarkConcrete marks this node concrete. It returns an error if the
// node is missing required concrete attributes.
func (s *Spec) MarkConcrete() error {
	if _, ok := s.Versions.Concrete(); !ok {
		return fmt.Errorf("spec: cannot mark %s concrete: version %q is not exact", s.Name, s.Versions)
	}
	if s.Name == "" {
		return fmt.Errorf("spec: cannot mark anonymous spec concrete")
	}
	s.concrete = true
	return nil
}

// ConcreteVersion returns the pinned version of a concrete spec.
func (s *Spec) ConcreteVersion() Version {
	v, _ := s.Versions.Concrete()
	return v
}

// SetVariant sets a variant value.
func (s *Spec) SetVariant(name string, v VariantValue) {
	if s.Variants == nil {
		s.Variants = map[string]VariantValue{}
	}
	s.Variants[name] = v
}

// AddDep attaches (or constrains) a direct dependency.
func (s *Spec) AddDep(d *Spec) error {
	if s.Deps == nil {
		s.Deps = map[string]*Spec{}
	}
	if prev, ok := s.Deps[d.Name]; ok {
		return prev.Constrain(d)
	}
	s.Deps[d.Name] = d
	return nil
}

// Clone returns a deep copy of the spec DAG rooted at s. Shared
// dependency nodes remain shared in the copy.
func (s *Spec) Clone() *Spec {
	if s == nil {
		return nil
	}
	seen := map[*Spec]*Spec{}
	return s.cloneInto(seen)
}

func (s *Spec) cloneInto(seen map[*Spec]*Spec) *Spec {
	if c, ok := seen[s]; ok {
		return c
	}
	c := &Spec{
		Name:     s.Name,
		Versions: s.Versions,
		Target:   s.Target,
		Platform: s.Platform,
		External: s.External,
		concrete: s.concrete,
	}
	seen[s] = c
	if s.Compiler != nil {
		cc := *s.Compiler
		c.Compiler = &cc
	}
	c.Variants = make(map[string]VariantValue, len(s.Variants))
	for k, v := range s.Variants {
		vv := v
		vv.Values = append([]string(nil), v.Values...)
		c.Variants[k] = vv
	}
	c.Deps = make(map[string]*Spec, len(s.Deps))
	for k, d := range s.Deps {
		c.Deps[k] = d.cloneInto(seen)
	}
	return c
}

// WithoutDeps returns a copy of this node with no dependency
// constraints attached — useful when a constraint should apply to a
// single node rather than its DAG.
func (s *Spec) WithoutDeps() *Spec {
	c := s.Clone()
	c.Deps = map[string]*Spec{}
	return c
}

// Traverse visits every node in the DAG rooted at s exactly once,
// depth-first with dependencies in sorted name order, calling fn.
func (s *Spec) Traverse(fn func(*Spec)) {
	seen := map[*Spec]bool{}
	var walk func(*Spec)
	walk = func(n *Spec) {
		if n == nil || seen[n] {
			return
		}
		seen[n] = true
		fn(n)
		for _, name := range sortedDepNames(n) {
			walk(n.Deps[name])
		}
	}
	walk(s)
}

// FindDep searches the DAG (excluding the root itself) for a node with
// the given package name.
func (s *Spec) FindDep(name string) *Spec {
	var found *Spec
	s.Traverse(func(n *Spec) {
		if n != s && n.Name == name && found == nil {
			found = n
		}
	})
	return found
}

func sortedDepNames(s *Spec) []string {
	names := make([]string, 0, len(s.Deps))
	for n := range s.Deps {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func sortedVariantNames(s *Spec) []string {
	names := make([]string, 0, len(s.Variants))
	for n := range s.Variants {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// String renders the root node and its direct constraints followed by
// "^dep" clauses for all transitive dependencies, in canonical
// (sorted) order.
func (s *Spec) String() string {
	if s == nil {
		return ""
	}
	var b strings.Builder
	b.WriteString(s.renderNode())
	var deps []*Spec
	s.Traverse(func(n *Spec) {
		if n != s {
			deps = append(deps, n)
		}
	})
	sort.Slice(deps, func(i, j int) bool { return deps[i].Name < deps[j].Name })
	for _, d := range deps {
		b.WriteString(" ^")
		b.WriteString(d.renderNode())
	}
	return b.String()
}

// renderNode renders one node without its ^dependencies.
func (s *Spec) renderNode() string {
	var b strings.Builder
	b.WriteString(s.Name)
	if !s.Versions.Any() {
		b.WriteString("@" + s.Versions.String())
	}
	if s.Compiler != nil {
		b.WriteString(s.Compiler.String())
	}
	for _, name := range sortedVariantNames(s) {
		v := s.Variants[name]
		if v.IsBool {
			b.WriteString(v.Render(name))
		} else {
			b.WriteString(" " + v.Render(name))
		}
	}
	if s.Target != "" {
		b.WriteString(" target=" + s.Target)
	}
	if s.Platform != "" {
		b.WriteString(" platform=" + s.Platform)
	}
	if s.External != "" {
		b.WriteString(" [external:" + s.External + "]")
	}
	return b.String()
}

// ShortString renders just "name@version" for display.
func (s *Spec) ShortString() string {
	if s.Versions.Any() {
		return s.Name
	}
	return s.Name + "@" + s.Versions.String()
}

// ---------------------------------------------------------------------------
// The spec algebra: Satisfies, Intersects, Constrain
// ---------------------------------------------------------------------------

// Satisfies reports whether s (typically concrete) satisfies every
// constraint expressed by other (typically abstract): same name,
// versions within other's ranges, all of other's variants present with
// equal values, compiler compatible, target/platform equal if
// constrained, and every "^dep" constraint satisfied by some node in
// s's DAG.
func (s *Spec) Satisfies(other *Spec) bool {
	if other == nil {
		return true
	}
	if other.Name != "" && s.Name != other.Name {
		return false
	}
	if !s.Versions.SatisfiedBy(other.Versions) {
		return false
	}
	for name, want := range other.Variants {
		got, ok := s.Variants[name]
		if !ok || !got.Equal(want) {
			return false
		}
	}
	if other.Compiler != nil {
		if s.Compiler == nil || s.Compiler.Name != other.Compiler.Name {
			return false
		}
		if !s.Compiler.Versions.SatisfiedBy(other.Compiler.Versions) {
			return false
		}
	}
	if other.Target != "" && s.Target != other.Target {
		return false
	}
	if other.Platform != "" && s.Platform != other.Platform {
		return false
	}
	for name, want := range other.Deps {
		var node *Spec
		if s.Name == name {
			node = s
		} else {
			node = s.FindDep(name)
		}
		if node == nil || !node.Satisfies(want) {
			return false
		}
	}
	return true
}

// Intersects reports whether some concrete spec could satisfy both s
// and other: no contradicting constraints.
func (s *Spec) Intersects(other *Spec) bool {
	if s == nil || other == nil {
		return true
	}
	if s.Name != "" && other.Name != "" && s.Name != other.Name {
		return false
	}
	if !s.Versions.Intersects(other.Versions) {
		return false
	}
	for name, want := range other.Variants {
		if got, ok := s.Variants[name]; ok && !got.Equal(want) {
			return false
		}
	}
	if s.Compiler != nil && other.Compiler != nil {
		if s.Compiler.Name != other.Compiler.Name {
			return false
		}
		if !s.Compiler.Versions.Intersects(other.Compiler.Versions) {
			return false
		}
	}
	if s.Target != "" && other.Target != "" && s.Target != other.Target {
		return false
	}
	if s.Platform != "" && other.Platform != "" && s.Platform != other.Platform {
		return false
	}
	for name, want := range other.Deps {
		if got, ok := s.Deps[name]; ok && !got.Intersects(want) {
			return false
		}
	}
	return true
}

// Constrain merges other's constraints into s, returning an error when
// they contradict. Dependencies are merged recursively.
func (s *Spec) Constrain(other *Spec) error {
	if other == nil {
		return nil
	}
	if s.concrete {
		if !s.Satisfies(other) {
			return fmt.Errorf("spec: concrete spec %s does not satisfy %s", s.ShortString(), other)
		}
		return nil
	}
	if other.Name != "" {
		if s.Name != "" && s.Name != other.Name {
			return fmt.Errorf("spec: cannot constrain %q with %q: different packages", s.Name, other.Name)
		}
		s.Name = other.Name
	}
	vs, err := s.Versions.Constrain(other.Versions)
	if err != nil {
		return fmt.Errorf("spec: %s: %w", s.Name, err)
	}
	s.Versions = vs
	for name, want := range other.Variants {
		if got, ok := s.Variants[name]; ok {
			if !got.Equal(want) {
				return fmt.Errorf("spec: %s: conflicting values for variant %q: %s vs %s",
					s.Name, name, got.Render(name), want.Render(name))
			}
			continue
		}
		s.SetVariant(name, want)
	}
	if other.Compiler != nil {
		if s.Compiler == nil {
			cc := *other.Compiler
			s.Compiler = &cc
		} else {
			if s.Compiler.Name != other.Compiler.Name {
				return fmt.Errorf("spec: %s: conflicting compilers %%%s vs %%%s",
					s.Name, s.Compiler.Name, other.Compiler.Name)
			}
			cv, err := s.Compiler.Versions.Constrain(other.Compiler.Versions)
			if err != nil {
				return fmt.Errorf("spec: %s compiler: %w", s.Name, err)
			}
			s.Compiler.Versions = cv
		}
	}
	if other.Target != "" {
		if s.Target != "" && s.Target != other.Target {
			return fmt.Errorf("spec: %s: conflicting targets %q vs %q", s.Name, s.Target, other.Target)
		}
		s.Target = other.Target
	}
	if other.Platform != "" {
		if s.Platform != "" && s.Platform != other.Platform {
			return fmt.Errorf("spec: %s: conflicting platforms %q vs %q", s.Name, s.Platform, other.Platform)
		}
		s.Platform = other.Platform
	}
	if other.External != "" {
		if s.External != "" && s.External != other.External {
			return fmt.Errorf("spec: %s: conflicting external prefixes", s.Name)
		}
		s.External = other.External
	}
	for name, want := range other.Deps {
		if err := s.AddDep(want.Clone()); err != nil {
			return err
		}
		_ = name
	}
	return nil
}

// ---------------------------------------------------------------------------
// Hashing
// ---------------------------------------------------------------------------

// DAGHash returns the content hash of a concrete spec, covering the
// node's full assignment and the hashes of all dependencies. It is the
// identity used by the install database and binary cache. A walk that
// hashes more than one node of a DAG uses one Hasher instead.
func (s *Spec) DAGHash() string { return Hasher{}.Hash(s) }

// Hasher computes DAG hashes for one walk over a DAG, hashing each node
// once however many parents reach it. Specs are mutable, so no hash is
// kept on a Spec: a Hasher lives for one walk and is dropped before
// anything it has seen changes.
type Hasher map[*Spec]string

// Hash returns s.DAGHash(), remembering it and every hash below it.
func (hs Hasher) Hash(s *Spec) string {
	if h, ok := hs[s]; ok {
		return h
	}
	var b strings.Builder
	b.WriteString(s.renderNode())
	for _, name := range sortedDepNames(s) {
		b.WriteString("|")
		b.WriteString(name)
		b.WriteString(":")
		b.WriteString(hs.Hash(s.Deps[name]))
	}
	sum := sha256.Sum256([]byte(b.String()))
	h := strings.ToLower(base32.StdEncoding.EncodeToString(sum[:]))[:32]
	hs[s] = h
	return h
}

// ShortHash returns the 7-character abbreviated DAG hash, as printed
// by `spack find`.
func (s *Spec) ShortHash() string { return s.DAGHash()[:7] }
