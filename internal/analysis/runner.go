package analysis

import (
	"fmt"
	"go/token"
	"sort"
)

// ModuleResult is one analysis run's outcome.
type ModuleResult struct {
	Module   Module
	Packages []string // analyzed import paths, sorted
	Findings []Finding
}

// RunModule applies analyzers (e.g. Suite()) to the module found at
// or above dir: every package of it is loaded, fact-computed and
// analyzed, in import order so each package sees the facts of its
// in-module dependencies.
func RunModule(dir string, analyzers []*Analyzer) (*ModuleResult, error) {
	listed, err := goList(dir, []string{"./..."})
	if err != nil {
		return nil, err
	}

	mod := Module{}
	exports := map[string]string{}
	byPath := map[string]*listPackage{}
	var paths []string
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if p.Standard || p.Module == nil {
			continue
		}
		if mod.Path == "" {
			mod.Path = p.Module.Path
		}
		if p.Module.Path == mod.Path {
			byPath[p.ImportPath] = p
			paths = append(paths, p.ImportPath)
		}
	}
	if mod.Path == "" {
		return nil, fmt.Errorf("analysis: no module packages under %s", dir)
	}
	mod.Root = moduleRoot(dir)

	closure := moduleDeps(paths, func(p string) []string { return byPath[p].Imports })
	order := append([]string(nil), paths...)
	sort.Slice(order, func(i, j int) bool {
		if ni, nj := len(closure[order[i]]), len(closure[order[j]]); ni != nj {
			return ni < nj
		}
		return order[i] < order[j]
	})

	fset := token.NewFileSet()
	imp := newExportImporter(fset, exports)

	res := &ModuleResult{Module: mod}
	facts := map[string]*PackageFacts{}
	for _, path := range order {
		pkg, err := loadPackage(fset, imp, byPath[path])
		if err != nil {
			return nil, err
		}
		pf := computePackageFacts(pkg, mod.Path, mod.Root, facts)
		facts[path] = pf

		visible := map[string]*PackageFacts{path: pf}
		for _, dep := range closure[path] {
			visible[dep] = facts[dep]
		}
		res.Findings = append(res.Findings, runPackage(pkg, analyzers, mod.Path, mod.Root, pf, visible)...)
	}

	res.Packages = append(res.Packages, paths...)
	sort.Strings(res.Packages)
	SortFindings(res.Findings)
	return res, nil
}
