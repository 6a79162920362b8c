package concretizer

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"

	"repro/internal/archspec"
	"repro/internal/cachekey"
	"repro/internal/metricsdb"
	"repro/internal/pkgrepo"
	"repro/internal/spec"
)

// Concretizer resolves abstract specs against a package repository
// and a system configuration.
type Concretizer struct {
	Repo   *pkgrepo.Repo
	Config *Config

	// Cache, when set, is the "concretize" layer of the incremental
	// pipeline: ConcretizeTogether replays the solves it holds and
	// stores the ones it makes. Hits and Misses count this
	// concretizer's lookups in it.
	Cache        *cachekey.Layer
	Hits, Misses int

	dec metricsdb.Decoder // reads this concretizer's cache hits
}

// New returns a concretizer.
func New(repo *pkgrepo.Repo, cfg *Config) *Concretizer {
	if cfg == nil {
		cfg = NewConfig()
	}
	return &Concretizer{Repo: repo, Config: cfg}
}

// Concretize resolves one abstract spec into a fully concrete DAG.
func (c *Concretizer) Concretize(abstract *spec.Spec) (*spec.Spec, error) {
	out, err := c.ConcretizeTogether([]*spec.Spec{abstract}, spec.Hasher{})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// ConcretizeTogether resolves a set of roots. With
// Config.ReuseFromContext (unify: true), all roots share one concrete
// node per package name; otherwise each root is solved independently.
//
// With a Cache attached, the solve is keyed by the configuration
// fingerprint derived with the abstract root renderings
// (Config.Fingerprint().Derive("concretize", ...)), so any change to
// the system configuration, the reuse set or the requested specs is a
// miss. The key is computed here — not at construction — because
// callers (internal/env) toggle Config fields around the call. An
// entry is the solve's spec.DAG. A hit is decoded fresh, so callers
// never share mutable nodes with the cache — the install database
// holds spec pointers — and bytes that fail decodeEntry or DAG.Decode
// are a miss. A failed cache write never fails the solve.
//
// hs is the hash table the caller keeps for the roots returned (see
// spec.Hasher): a hit's DAG.Decode and a stored miss's EncodeDAG hash
// every node into it, so nothing downstream hashes them again.
func (c *Concretizer) ConcretizeTogether(roots []*spec.Spec, hs spec.Hasher) ([]*spec.Spec, error) {
	if c.Cache == nil {
		return c.concretizeTogether(roots)
	}
	b := c.Config.appendFingerprint(make([]byte, 0, 1024))
	fingerprint := cachekey.HashJSON(b)
	b = append(b[:0], '[') // the roots' renderings, as json.Marshal writes a []string
	for i, r := range roots {
		if i > 0 {
			b = append(b, ',')
		}
		b = metricsdb.AppendString(b, r.String())
	}
	key := fingerprint.Derive("concretize", cachekey.HashJSON(append(b, ']')))
	var out []*spec.Spec
	if c.Cache.Read(key, func(data []byte) bool {
		var dag spec.DAG
		if decodeEntry(&c.dec, data, &dag) != nil {
			return false
		}
		var err error
		out, err = dag.Decode(hs)
		return err == nil
	}) {
		c.Hits++
		return out, nil
	}
	c.Misses++
	out, err := c.concretizeTogether(roots)
	if err != nil {
		return nil, err
	}
	if data, err := json.Marshal(spec.EncodeDAG(out, hs)); err == nil {
		c.Cache.Put(key, data) //nolint:errcheck // cache write failure must not fail the solve
	}
	return out, nil
}

// decodeEntry reads a concretize entry — json.Marshal of a spec.DAG —
// into *dag with d: the DAG encoding/json gives for the same bytes,
// except that what the entry's writer never emits is refused — a
// member name other than the DAG's and its nodes' own (encoding/json
// would match it case-folded or skip it), or a second "roots" member.
// A refused entry is only a miss. Every string is a copy: data is the
// layer's, borrowed.
func decodeEntry(d *metricsdb.Decoder, data []byte, dag *spec.DAG) error {
	rootsSeen := false
	return d.Document(data, func(name []byte) {
		switch string(name) {
		case "nodes":
			metricsdb.DecodeMap(d, &dag.Nodes, 0, func(en *spec.EncodedNode) {
				d.Object(func(name []byte) {
					switch string(name) {
					case "node":
						d.String(&en.Node)
					case "external":
						d.String(&en.External)
					case "deps":
						metricsdb.DecodeMap(d, &en.Deps, 0, d.String)
					default:
						unknownMember(d, name)
					}
				})
			})
		case "roots":
			if rootsSeen {
				d.Fail(fmt.Errorf("concretizer: a second \"roots\" in a concretize entry"))
				return
			}
			rootsSeen = true
			if d.Null() {
				return
			}
			dag.Roots = []string{}
			d.Array(func() {
				dag.Roots = append(dag.Roots, "")
				d.String(&dag.Roots[len(dag.Roots)-1])
			})
		default:
			unknownMember(d, name)
		}
	})
}

// unknownMember refuses a member no writer of a concretize entry emits.
func unknownMember(d *metricsdb.Decoder, name []byte) {
	d.Fail(fmt.Errorf("concretizer: unknown member %q in a concretize entry", name))
}

func (c *Concretizer) concretizeTogether(roots []*spec.Spec) ([]*spec.Spec, error) {
	out := make([]*spec.Spec, len(roots))
	var shared *solve
	if c.Config.ReuseFromContext {
		shared = c.newSolve()
		// Collect DAG-wide ^constraints from every root up front so
		// unified nodes honor all of them regardless of solve order.
		for _, r := range roots {
			if err := shared.collectUserConstraints(r); err != nil {
				return nil, err
			}
		}
		shared.seedReuse()
	}
	for i, r := range roots {
		sv := shared
		if sv == nil {
			sv = c.newSolve()
			if err := sv.collectUserConstraints(r); err != nil {
				return nil, err
			}
			sv.seedReuse()
		}
		node, err := sv.resolve(r.Clone())
		if err != nil {
			return nil, fmt.Errorf("concretize %q: %w", r.String(), err)
		}
		out[i] = node
	}
	return out, nil
}

type solve struct {
	c     *Concretizer
	nodes map[string]*spec.Spec // package name -> concrete node
	stack map[string]bool       // in-progress, for cycle detection
	// userConstraints are DAG-wide ^dep constraints gathered from the
	// roots: in Spack, "app ^cmake@3.23.1" constrains cmake wherever it
	// appears in the DAG.
	userConstraints map[string]*spec.Spec
}

func (c *Concretizer) newSolve() *solve {
	return &solve{
		c:               c,
		nodes:           map[string]*spec.Spec{},
		stack:           map[string]bool{},
		userConstraints: map[string]*spec.Spec{},
	}
}

func (sv *solve) collectUserConstraints(root *spec.Spec) error {
	for name, d := range root.Deps {
		if prev, ok := sv.userConstraints[name]; ok {
			if err := prev.Constrain(d); err != nil {
				return err
			}
			continue
		}
		sv.userConstraints[name] = d.Clone()
	}
	return nil
}

// seedReuse pre-registers already-installed concrete specs (Spack's
// `--reuse`) in the solve context so every resolution unifies against
// them. A candidate node is skipped when it contradicts a DAG-wide
// user constraint — an explicit pin always beats reuse. Call after
// collectUserConstraints.
func (sv *solve) seedReuse() {
	for _, cand := range sv.c.Config.ReuseInstalled {
		if cand == nil || !cand.IsConcrete() {
			continue
		}
		cand.Clone().Traverse(func(n *spec.Spec) {
			if _, ok := sv.nodes[n.Name]; ok {
				return
			}
			if uc, has := sv.userConstraints[n.Name]; has && !n.Satisfies(uc.WithoutDeps()) {
				return
			}
			sv.nodes[n.Name] = n
		})
	}
}

// resolve turns one abstract constraint into a concrete node,
// registering it in the solve context.
func (sv *solve) resolve(constraint *spec.Spec) (*spec.Spec, error) {
	if constraint.Name == "" {
		return nil, fmt.Errorf("cannot concretize anonymous spec %q", constraint.String())
	}

	// Virtual package: choose a provider, then resolve the provider.
	if sv.c.Repo.IsVirtual(constraint.Name) {
		return sv.resolveVirtual(constraint)
	}

	name := constraint.Name
	if sv.stack[name] {
		return nil, fmt.Errorf("circular dependency through %s", name)
	}

	// Fold in DAG-wide user constraints for this package.
	if uc, ok := sv.userConstraints[name]; ok {
		if err := constraint.Constrain(uc); err != nil {
			return nil, err
		}
	}

	// Unification: reuse an existing node when compatible. Externals
	// are compiler-agnostic, so a propagated %compiler constraint does
	// not apply to them.
	if node, ok := sv.nodes[name]; ok {
		cons := constraint.WithoutDeps()
		if node.External != "" {
			cons.Compiler = nil
		}
		if err := node.Constrain(cons); err != nil {
			return nil, fmt.Errorf("unifying %s: %w", name, err)
		}
		return node, nil
	}

	pkg, err := sv.c.Repo.Get(name)
	if err != nil {
		return nil, err
	}
	if pkg.Virtual {
		return nil, fmt.Errorf("package %s is virtual and cannot be resolved directly", name)
	}

	// Externals take precedence; buildable:false requires one.
	if node, ok, err := sv.tryExternal(pkg, constraint); err != nil {
		return nil, err
	} else if ok {
		sv.nodes[name] = node
		return node, nil
	}
	if sv.c.Config.NotBuildable[name] {
		return nil, fmt.Errorf("package %s is not buildable and no external satisfies %q",
			name, constraint.String())
	}

	node := spec.New(name)

	// --- version ---------------------------------------------------------
	vcons := constraint.Versions
	if prefText, ok := sv.c.Config.VersionPrefs[name]; ok {
		pref, perr := spec.ParseVersionList(prefText)
		if perr != nil {
			return nil, fmt.Errorf("bad version preference for %s: %w", name, perr)
		}
		if merged, merr := vcons.Constrain(pref); merr == nil {
			vcons = merged // preference applies only when compatible
		}
	}
	version, err := pkg.BestVersion(vcons)
	if err != nil {
		return nil, err
	}
	node.Versions, _ = spec.ParseVersionList(version.String())

	// --- variants ----------------------------------------------------------
	for vname, vdef := range pkg.Variants {
		node.SetVariant(vname, vdef.Default)
	}
	if prefText, ok := sv.c.Config.VariantPrefs[name]; ok {
		pref, perr := spec.Parse(name + " " + prefText)
		if perr != nil {
			return nil, fmt.Errorf("bad variant preference for %s: %w", name, perr)
		}
		for vname, vv := range pref.Variants {
			node.SetVariant(vname, vv)
		}
	}
	for vname, vv := range constraint.Variants {
		vdef, known := pkg.Variants[vname]
		if !known {
			return nil, fmt.Errorf("package %s has no variant %q", name, vname)
		}
		if len(vdef.Values) > 0 && !vv.IsBool {
			for _, val := range vv.Values {
				if !slices.Contains(vdef.Values, val) {
					return nil, fmt.Errorf("package %s variant %s: invalid value %q (allowed: %v)",
						name, vname, val, vdef.Values)
				}
			}
		}
		node.SetVariant(vname, vv)
	}

	// --- compiler -------------------------------------------------------------
	def, err := sv.c.Config.FindCompiler(constraint.Compiler)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	cvl, _ := spec.ParseVersionList(def.Version.String())
	node.Compiler = &spec.Compiler{Name: def.Name, Versions: cvl}

	// --- target & platform ------------------------------------------------------
	node.Target = constraint.Target
	if node.Target == "" {
		node.Target = sv.c.Config.Target
	}
	if node.Target != "" {
		if _, err := archspec.Lookup(node.Target); err != nil {
			return nil, err
		}
	}
	node.Platform = constraint.Platform
	if node.Platform == "" {
		node.Platform = sv.c.Config.Platform
	}

	// Register before dependencies so diamonds unify and cycles fail.
	sv.nodes[name] = node
	sv.stack[name] = true
	defer delete(sv.stack, name)

	// --- dependencies -------------------------------------------------------------
	// Merge all active constraints per dependency name first: a
	// package may declare both "hypre@2.25:" and "hypre+cuda when
	// +cuda", which must concretize as one node.
	merged := map[string]*spec.Spec{}
	var depOrder []string
	for _, d := range pkg.Dependencies {
		if d.When != nil && !node.Satisfies(d.When) {
			continue
		}
		if prev, ok := merged[d.Spec.Name]; ok {
			if err := prev.Constrain(d.Spec.Clone()); err != nil {
				return nil, fmt.Errorf("%s: dependency constraints on %s conflict: %w",
					name, d.Spec.Name, err)
			}
			continue
		}
		merged[d.Spec.Name] = d.Spec.Clone()
		depOrder = append(depOrder, d.Spec.Name)
	}
	for _, depName := range depOrder {
		depCons := merged[depName]
		// Merge any matching user ^constraint early so virtual provider
		// choice can see it.
		if uc, ok := sv.userConstraints[depCons.Name]; ok && !sv.c.Repo.IsVirtual(depCons.Name) {
			if err := depCons.Constrain(uc); err != nil {
				return nil, err
			}
		}
		// Compiler propagation: dependencies default to the parent's
		// compiler unless they constrain their own.
		if depCons.Compiler == nil {
			cc := *node.Compiler
			depCons.Compiler = &cc
		}
		if depCons.Target == "" {
			depCons.Target = node.Target
		}
		if depCons.Platform == "" {
			depCons.Platform = node.Platform
		}
		depNode, err := sv.resolve(depCons)
		if err != nil {
			return nil, fmt.Errorf("%s depends on %s: %w", name, depName, err)
		}
		node.Deps[depNode.Name] = depNode
	}

	// User ^constraints that name direct deps not in the recipe are an
	// error only if they are not resolvable packages at all; Spack
	// attaches extra user deps to the root. Here: attach to root only.
	for depName, depCons := range constraint.Deps {
		if _, ok := node.Deps[depName]; ok {
			continue // already resolved via recipe
		}
		if node.FindDep(depName) != nil {
			continue // appears transitively; DAG-wide constraint already applied
		}
		if sv.c.Repo.IsVirtual(depName) {
			// A ^mpi style constraint with no recipe edge: resolve via provider.
			depNode, err := sv.resolveVirtual(depCons.Clone())
			if err != nil {
				return nil, err
			}
			node.Deps[depNode.Name] = depNode
			continue
		}
		depNode, err := sv.resolve(depCons.Clone())
		if err != nil {
			return nil, err
		}
		node.Deps[depName] = depNode
	}

	// --- conflicts -----------------------------------------------------------------
	for _, cf := range pkg.Conflicts {
		whenOK := cf.When == nil || node.Satisfies(cf.When)
		if whenOK && node.Satisfies(cf.Spec) {
			return nil, fmt.Errorf("package %s: conflict %q: %s", name, cf.Spec.String(), cf.Msg)
		}
	}

	if err := node.MarkConcrete(); err != nil {
		return nil, err
	}
	return node, nil
}

// resolveVirtual picks a provider for a virtual constraint and
// resolves it.
func (sv *solve) resolveVirtual(constraint *spec.Spec) (*spec.Spec, error) {
	virtual := constraint.Name
	providers := sv.c.Repo.Providers(virtual)
	if len(providers) == 0 {
		return nil, fmt.Errorf("no providers for virtual package %s", virtual)
	}

	// 1. A node already in the context that provides the virtual wins
	//    (unification).
	for _, p := range providers {
		if _, ok := sv.nodes[p]; ok {
			return sv.resolve(mapVirtualConstraint(constraint, p))
		}
	}

	ordered := orderProviders(providers, sv.c.Config.ProviderPrefs[virtual], sv.c.Config)

	// "buildable: false" on the virtual name (Figure 4) restricts the
	// choice to providers available as externals.
	if sv.c.Config.NotBuildable[virtual] {
		var withExt []string
		for _, p := range ordered {
			if len(sv.c.Config.Externals[p]) > 0 {
				withExt = append(withExt, p)
			}
		}
		if len(withExt) == 0 {
			return nil, fmt.Errorf("virtual %s is not buildable and no provider has an external", virtual)
		}
		ordered = withExt
	}

	var firstErr error
	for _, p := range ordered {
		node, err := sv.resolve(mapVirtualConstraint(constraint, p))
		if err == nil {
			return node, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return nil, fmt.Errorf("no provider of %s satisfies %q: %w", virtual, constraint.String(), firstErr)
}

// mapVirtualConstraint rewrites a constraint on a virtual package into
// a constraint on a chosen provider. Version constraints on the
// virtual interface do not transfer (interface versions are not
// implementation versions); variants, compiler, target and deps do.
func mapVirtualConstraint(c *spec.Spec, provider string) *spec.Spec {
	out := c.Clone()
	out.Name = provider
	out.Versions = spec.VersionList{}
	return out
}

// orderProviders sorts candidate providers: configured preferences
// first, then providers with a configured external, then the rest
// alphabetically.
func orderProviders(providers, prefs []string, cfg *Config) []string {
	rank := func(p string) int {
		for i, pref := range prefs {
			if p == pref {
				return i
			}
		}
		if len(cfg.Externals[p]) > 0 {
			return len(prefs)
		}
		return len(prefs) + 1
	}
	out := append([]string(nil), providers...)
	sort.SliceStable(out, func(i, j int) bool {
		ri, rj := rank(out[i]), rank(out[j])
		if ri != rj {
			return ri < rj
		}
		return out[i] < out[j]
	})
	return out
}

// tryExternal returns a concrete node built from a configured
// external if one satisfies the constraint.
func (sv *solve) tryExternal(pkg *pkgrepo.Package, constraint *spec.Spec) (*spec.Spec, bool, error) {
	for _, ext := range sv.c.Config.Externals[pkg.Name] {
		if !ext.Spec.Intersects(constraint.WithoutDeps()) {
			continue
		}
		node := ext.Spec.Clone()
		node.External = ext.Prefix
		// Record requested variants so downstream conditions see them.
		for vname, vv := range constraint.Variants {
			if _, ok := node.Variants[vname]; !ok {
				node.SetVariant(vname, vv)
			}
		}
		if node.Target == "" {
			node.Target = sv.c.Config.Target
		}
		if node.Platform == "" {
			node.Platform = sv.c.Config.Platform
		}
		if err := node.MarkConcrete(); err != nil {
			return nil, false, err
		}
		return node, true, nil
	}
	return nil, false, nil
}
