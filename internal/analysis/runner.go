package analysis

import (
	"fmt"
	"go/token"
	"sort"
)

// RunOptions configures an incremental module analysis.
type RunOptions struct {
	// Dir is where go list runs; the module is found at or above it.
	Dir string
	// Patterns defaults to ./...
	Patterns []string
	// Analyzers is the set to apply (e.g. Suite()).
	Analyzers []*Analyzer
	// Jobs bounds the loader's worker pool; <=0 means GOMAXPROCS.
	Jobs int
	// CacheDir enables the incremental cache when non-empty: packages
	// whose files and dependency facts are unchanged replay their
	// findings and facts without being re-parsed or re-type-checked.
	CacheDir string
}

// ModuleResult is one incremental analysis run's outcome.
type ModuleResult struct {
	Module   Module
	Packages []string // analyzed import paths, sorted
	Findings []Finding
	// CacheHits/CacheMisses count packages replayed from the cache vs
	// analyzed cold. Without a cache dir every package is a miss.
	CacheHits   int
	CacheMisses int
}

// RunModule analyzes a module incrementally: packages are processed
// in import order, each keyed by the hash of its files plus its
// transitive in-module dependencies' fact hashes; a matching cache
// entry replays findings and facts, anything else is loaded, fact-
// computed, and analyzed cold. Behavior (findings and facts) is
// identical with and without the cache — only the work differs.
func RunModule(opts RunOptions) (*ModuleResult, error) {
	patterns := opts.Patterns
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	//benchlint:ignore purity go list only selects the file set; every selected file's contents are hashed into each package's cache key, so the cached result cannot drift from what the subprocess saw
	listed, err := goList(opts.Dir, patterns)
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
		return nil, fmt.Errorf("analysis: no module packages match %v", patterns)
	}
	mod.Root = moduleRoot(opts.Dir)

	closure := moduleDeps(paths, func(p string) []string { return byPath[p].Imports })
	order := append([]string(nil), paths...)
	sort.Slice(order, func(i, j int) bool {
		if ni, nj := len(closure[order[i]]), len(closure[order[j]]); ni != nj {
			return ni < nj
		}
		return order[i] < order[j]
	})

	loader := &Loader{Jobs: opts.Jobs}
	fset := token.NewFileSet()
	imp := newExportImporter(fset, exports)
	fingerprint := analyzerFingerprint(opts.Analyzers)

	res := &ModuleResult{Module: mod}
	facts := map[string]*PackageFacts{}
	factHash := map[string]string{}
	for _, path := range order {
		target := byPath[path]
		depHashes := map[string]string{}
		for _, dep := range closure[path] {
			depHashes[dep] = factHash[dep]
		}
		key := ""
		if opts.CacheDir != "" {
			key, err = cacheKey(target, fingerprint, depHashes)
			if err != nil {
				return nil, err
			}
			if e, ok := loadCacheEntry(opts.CacheDir, path, key); ok {
				facts[path] = e.Facts
				factHash[path] = FactsHash(e.Facts)
				res.Findings = append(res.Findings, e.Findings...)
				res.CacheHits++
				continue
			}
		}

		pkg, err := loader.loadPackage(fset, imp, target)
		if err != nil {
			return nil, err
		}
		pf := computePackageFacts(pkg, mod.Path, mod.Root, facts)
		facts[path] = pf
		factHash[path] = FactsHash(pf)

		visible := map[string]*PackageFacts{path: pf}
		for _, dep := range closure[path] {
			visible[dep] = facts[dep]
		}
		findings := runPackage(pkg, opts.Analyzers, mod.Path, mod.Root, pf, visible)
		res.Findings = append(res.Findings, findings...)
		res.CacheMisses++

		if opts.CacheDir != "" {
			// Replay must be byte-identical to cold analysis, so the
			// entry stores the suppression-resolved findings. A failed
			// store only costs the next run time.
			entry := &cacheEntry{Schema: CacheSchema, Key: key, Facts: pf, Findings: findings}
			if entry.Findings == nil {
				entry.Findings = []Finding{}
			}
			_ = storeCacheEntry(opts.CacheDir, path, entry)
		}
	}

	res.Packages = append(res.Packages, paths...)
	sort.Strings(res.Packages)
	SortFindings(res.Findings)
	return res, nil
}
