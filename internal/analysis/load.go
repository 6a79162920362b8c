package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Package is one loaded, parsed, type-checked module package.
type Package struct {
	ImportPath string
	Dir        string
	Name       string
	// Imports are the package's direct imports as go list reports
	// them; the fact computation orders packages with it.
	Imports    []string
	Fset       *token.FileSet
	FileNames  []string
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
	Directives []Directive
}

// Module identifies the module under analysis.
type Module struct {
	Path string // module path from go.mod
	Root string // absolute directory of go.mod
}

// listPackage is the subset of `go list -json` output the loader uses.
type listPackage struct {
	ImportPath string
	Dir        string
	Name       string
	Export     string
	Standard   bool
	GoFiles    []string
	Imports    []string
	Module     *struct{ Path string }
}

// goList runs `go list -export -deps -json` for the patterns in dir
// and decodes the package stream: package metadata plus dependency
// export data, so dependencies resolve from the build cache exactly as
// the compiler sees them while the analyzed packages themselves are
// parsed and type-checked from source for full ASTs and type
// information.
func goList(dir string, patterns []string) ([]*listPackage, error) {
	args := append([]string{"list", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("analysis: go list %s: %v\n%s",
			strings.Join(patterns, " "), err, strings.TrimSpace(stderr.String()))
	}
	var pkgs []*listPackage
	dec := json.NewDecoder(&stdout)
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %v", err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// LoadDir parses and type-checks the single package in dir (test
// fixtures under testdata/, which go list refuses to enumerate).
// Imports must resolve via go list from the enclosing module.
func LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(abs)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			files = append(files, e.Name())
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no .go files in %s", dir)
	}
	target := &listPackage{ImportPath: filepath.ToSlash(abs), Dir: abs, GoFiles: files}

	// Resolve the fixtures' imports (stdlib, typically) to export data.
	fset := token.NewFileSet()
	imports := map[string]bool{}
	for _, name := range files {
		f, err := parser.ParseFile(fset, filepath.Join(abs, name), nil, parser.ImportsOnly)
		if err != nil {
			return nil, err
		}
		for _, imp := range f.Imports {
			imports[strings.Trim(imp.Path.Value, `"`)] = true
		}
	}
	exports := map[string]string{}
	if len(imports) > 0 {
		paths := make([]string, 0, len(imports))
		for p := range imports {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		target.Imports = paths
		listed, err := goList(abs, paths)
		if err != nil {
			return nil, err
		}
		for _, p := range listed {
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
		}
	}
	return loadPackage(fset, newExportImporter(fset, exports), target)
}

// loadPackage parses the target package's files on a GOMAXPROCS-wide
// worker pool (which is why internal/analysis is on the verify gate's
// -race list) and type-checks it, resolving imports through imp —
// caller-owned, so the runner shares one importer (and its loaded-
// dependency map) across the module's packages.
func loadPackage(fset *token.FileSet, imp types.Importer, t *listPackage) (*Package, error) {
	pkg := &Package{
		ImportPath: t.ImportPath,
		Dir:        t.Dir,
		Name:       t.Name,
		Imports:    t.Imports,
		Fset:       fset,
		FileNames:  t.GoFiles,
		Files:      make([]*ast.File, len(t.GoFiles)),
	}
	// token.FileSet and parser.ParseFile are safe for concurrent use;
	// each worker writes only its own file's slots.
	var wg sync.WaitGroup
	errs := make([]error, len(t.GoFiles))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, name := range t.GoFiles {
		wg.Add(1)
		go func(i int, path string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			pkg.Files[i], errs[i] = parser.ParseFile(fset, path, nil, parser.ParseComments)
		}(i, filepath.Join(t.Dir, name))
	}
	wg.Wait()
	if err := joinErrors("parsing", errs); err != nil {
		return nil, err
	}
	if err := typeCheck(pkg, imp); err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", pkg.ImportPath, err)
	}
	return pkg, nil
}

// typeCheck runs go/types over one parsed package and collects its
// directives.
func typeCheck(pkg *Package, imp types.Importer) error {
	pkg.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(pkg.ImportPath, pkg.Fset, pkg.Files, pkg.Info)
	if err != nil {
		return err
	}
	pkg.Types = tpkg
	if pkg.Name == "" {
		pkg.Name = tpkg.Name()
	}
	for _, f := range pkg.Files {
		pkg.Directives = append(pkg.Directives, collectDirectives(pkg.Fset, f)...)
	}
	return nil
}

// newExportImporter resolves import paths to the compiler export data
// files `go list -export` produced.
func newExportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("analysis: no export data for %q", path)
		}
		return os.Open(file)
	})
}

// moduleRoot walks up from dir to the directory containing go.mod.
func moduleRoot(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return dir
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d
		}
		parent := filepath.Dir(d)
		if parent == d {
			return abs
		}
		d = parent
	}
}

// joinErrors folds the non-nil errors into one, sorted for stable
// output; nil when there are none.
func joinErrors(stage string, errs []error) error {
	var msgs []string
	for _, e := range errs {
		if e != nil {
			msgs = append(msgs, e.Error())
		}
	}
	if len(msgs) == 0 {
		return nil
	}
	sort.Strings(msgs)
	return fmt.Errorf("analysis: %s failed:\n  %s", stage, strings.Join(msgs, "\n  "))
}
