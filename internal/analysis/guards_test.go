package analysis

import (
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestEveryGuardResolves holds each row of the guards table to
// something that exists in the module: a retired row's package (and
// the receiver type of a "Type.Member" name), a confined row's objects
// and every package, file and tree it lists. A renamed target then
// fails here instead of leaving its row checking nothing.
func TestEveryGuardResolves(t *testing.T) {
	const root = "../.."
	var mod string
	pkgs := map[string]*types.Package{} // module-relative paths, and the standard packages they import
	probe := &Analyzer{Name: "probe", Run: func(p *Pass) {
		mod = p.mod.Path + "/"
		pkgs[strings.TrimPrefix(p.Pkg.ImportPath, mod)] = p.Pkg.Types
		for _, imp := range p.Pkg.Types.Imports() {
			if !strings.HasPrefix(imp.Path(), mod) {
				pkgs[imp.Path()] = imp
			}
		}
	}}
	if _, err := RunModule(root, []*Analyzer{probe}); err != nil {
		t.Fatal(err)
	}

	for _, g := range guardTable {
		retired, confined := g.pkg != "" && len(g.retired) > 0, len(g.uses) > 0
		if g.pr == 0 || g.why == "" || retired == confined || confined && (g.pkg != "" || (g.only == nil) == (g.not == nil)) {
			t.Errorf("row %+v: want a PR, a reason, and either pkg+retired or uses with exactly one of only/not", g)
			continue
		}
		for _, name := range g.retired {
			pkg := pkgs[g.pkg]
			if pkg == nil {
				t.Errorf("retired %s.%s: no package %s in the module", g.pkg, name, g.pkg)
				continue
			}
			if typ, _, isMember := strings.Cut(name, "."); isMember && !strings.HasPrefix(name, `"`) {
				if _, ok := pkg.Scope().Lookup(typ).(*types.TypeName); !ok {
					t.Errorf("retired %s.%s: %s declares no type %s", g.pkg, name, g.pkg, typ)
				}
			}
		}
		for _, use := range g.uses {
			if key := resolveUse(pkgs, mod, use); key != use {
				t.Errorf("confined %s resolves to %q in the module", use, key)
			}
		}
		for _, place := range append(g.only, g.not...) {
			if !placeExists(pkgs, filepath.Join(root, place), place) {
				t.Errorf("row of PR %d lists %s: no such package, file or tree in the module", g.pr, place)
			}
		}
	}
}

// resolveUse looks a confined row's object up in the loaded packages
// and returns the key the analyzer gives its uses ("" when it does not
// resolve), so a row the analyzer can never match fails too.
func resolveUse(pkgs map[string]*types.Package, mod, use string) string {
	if typ, ok := strings.CutPrefix(use, "make("); ok {
		elem := strings.TrimPrefix(strings.TrimSuffix(typ, ")"), "[]")
		if _, isType := types.Universe.Lookup(elem).(*types.TypeName); isType {
			return use
		}
		return ""
	}
	name, lit := strings.CutSuffix(use, "{}")
	slash := strings.LastIndex(name, "/") + 1
	path, rest, _ := strings.Cut(name[slash:], ".")
	pkg := pkgs[name[:slash]+path]
	if pkg == nil {
		return ""
	}
	if rest == "" {
		return name
	}
	first, member, isMember := strings.Cut(rest, ".")
	obj := pkg.Scope().Lookup(first)
	if isMember && obj != nil {
		obj, _, _ = types.LookupFieldOrMethod(obj.Type(), true, pkg, member)
	}
	if _, isType := obj.(*types.TypeName); lit && !isType {
		return ""
	}
	key := useKey(mod, obj)
	if lit {
		key += "{}"
	}
	return key
}

// placeExists reports whether a row's place is a file of the module, or
// a package or tree holding at least one of its packages.
func placeExists(pkgs map[string]*types.Package, disk, place string) bool {
	info, err := os.Stat(disk)
	if err != nil {
		return false
	}
	if strings.HasSuffix(place, ".go") {
		return info.Mode().IsRegular()
	}
	for path := range pkgs {
		if path == place || strings.HasSuffix(place, "/") && strings.HasPrefix(path, place) {
			return true
		}
	}
	return false
}
