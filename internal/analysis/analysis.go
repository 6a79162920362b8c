// Package analysis is benchlint's analyzer framework: a stdlib-only
// (go/ast + go/parser + go/types) harness for the project-invariant
// static checks that keep the continuous-benchmarking engine honest.
//
// The paper's premise — and Omnibenchmark's and exaCB's before it —
// is that collaborative benchmarking only stays reproducible when the
// contribution rules are enforced by infrastructure rather than
// convention. PR 1 introduced an execution engine whose correctness
// rests on exactly such rules: contexts flow through every execution
// path, the commit path is deterministic, stage failures are typed,
// and buildcache locking is disciplined. This package makes those
// rules machine-checked; cmd/benchlint runs them in the verify gate.
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis
// in miniature (Analyzer / Pass / Reportf) but depends only on the
// standard library, because the module carries no external
// dependencies.
//
// Two directives tune the checks in source:
//
//	//benchlint:ignore <analyzer> <reason>
//	    placed on the offending line, or alone on the line above it,
//	    suppresses that analyzer's finding there. The reason is
//	    mandatory and findings stay visible in -json output, marked
//	    suppressed.
//	//benchlint:compat
//	    placed in a function's doc comment, marks a documented
//	    compatibility wrapper (e.g. core.Session.InstallSoftware)
//	    that is allowed to mint a fresh context.Background() for its
//	    context-taking implementation.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name identifies the analyzer in findings and directives.
	Name string
	// Doc is the one-line description `benchlint -list` prints.
	Doc string
	// Scope lists the module-relative package paths the analyzer is
	// confined to (e.g. "internal/engine"). Empty means every package.
	Scope []string
	// EmitsFixes marks analyzers that attach machine-applicable fixes
	// to (some of) their findings; `benchlint -list` surfaces it.
	EmitsFixes bool
	// Run inspects one package and reports findings on the pass.
	Run func(*Pass)
}

// AppliesTo reports whether the analyzer covers the given package of
// the given module.
func (a *Analyzer) AppliesTo(modPath, pkgPath string) bool {
	if len(a.Scope) == 0 {
		return true
	}
	for _, s := range a.Scope {
		if pkgPath == modPath+"/"+s || pkgPath == s {
			return true
		}
	}
	return false
}

// Pass couples one analyzer with one loaded, type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	// Facts holds this package's exported facts; AllFacts maps import
	// path → facts for every package analyzed so far (dependencies
	// first — packages are processed in import order), including this
	// one. Interprocedural analyzers read callee behavior from here.
	Facts    *PackageFacts
	AllFacts map[string]*PackageFacts

	findings []Finding
}

// Files returns the package's parsed files.
func (p *Pass) Files() []*ast.File { return p.Pkg.Files }

// TypesInfo returns the package's type information.
func (p *Pass) TypesInfo() *types.Info { return p.Pkg.Info }

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.ReportFix(pos, nil, format, args...)
}

// ReportFix records a finding at pos carrying suggested fixes.
func (p *Pass) ReportFix(pos token.Pos, fixes []Fix, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	p.findings = append(p.findings, Finding{
		Analyzer: p.Analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		StmtLine: p.stmtLine(pos),
		Message:  fmt.Sprintf(format, args...),
		Fixes:    fixes,
	})
}

// ReportAt records a finding at an explicit file position, for
// analyzers (lockorder) whose evidence comes from facts rather than
// this package's AST. The file is module-relative as
// stored in the fact.
func (p *Pass) ReportAt(file string, line, col int, format string, args ...any) {
	p.findings = append(p.findings, Finding{
		Analyzer: p.Analyzer.Name,
		File:     file,
		Line:     line,
		Col:      col,
		Message:  fmt.Sprintf(format, args...),
	})
}

// stmtLine is the first line of the innermost statement enclosing
// pos, or 0 when pos sits outside any statement (e.g. a declaration).
// Suppression directives anchor to it, so an ignore comment above a
// multi-line statement covers findings on the statement's inner lines.
func (p *Pass) stmtLine(pos token.Pos) int {
	for _, file := range p.Pkg.Files {
		if pos < file.Pos() || pos > file.End() {
			continue
		}
		var innermost ast.Stmt
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil || pos < n.Pos() || pos >= n.End() {
				return false
			}
			if s, ok := n.(ast.Stmt); ok {
				innermost = s
			}
			return true
		})
		if innermost != nil {
			return p.Pkg.Fset.Position(innermost.Pos()).Line
		}
		return 0
	}
	return 0
}

// editReplace builds a TextEdit replacing the source range
// [start, end) with newText; use start == end for a pure insertion.
func (p *Pass) editReplace(start, end token.Pos, newText string) TextEdit {
	s := p.Pkg.Fset.Position(start)
	e := p.Pkg.Fset.Position(end)
	return TextEdit{File: s.Filename, Start: s.Offset, End: e.Offset, NewText: newText}
}

// IsCompat reports whether the function declaration carries a
// //benchlint:compat marker in its doc comment (or between the doc
// comment and the opening brace).
func (p *Pass) IsCompat(decl *ast.FuncDecl) bool {
	fset := p.Pkg.Fset
	start := fset.Position(decl.Pos())
	if decl.Doc != nil {
		start = fset.Position(decl.Doc.Pos())
	}
	end := fset.Position(decl.Pos())
	for _, d := range p.Pkg.Directives {
		if d.Kind != DirectiveCompat || d.File != start.Filename {
			continue
		}
		if d.Line >= start.Line && d.Line <= end.Line {
			return true
		}
	}
	return false
}

// Finding is one reported invariant violation.
type Finding struct {
	Analyzer string `json:"analyzer"`
	// File is the source file, relative to the module root once the
	// runner has normalized it.
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
	// Suppressed marks findings silenced by a //benchlint:ignore
	// directive; Reason carries the directive's justification.
	Suppressed bool   `json:"suppressed,omitempty"`
	Reason     string `json:"reason,omitempty"`
	// Fixes are the machine-applicable repairs, when the analyzer has
	// one for this finding.
	Fixes []Fix `json:"fixes,omitempty"`

	// StmtLine is the first line of the statement the finding sits in
	// (0 if none) — the anchor suppression directives match against.
	// Internal: not part of the JSON schema.
	StmtLine int `json:"-"`
}

// String renders the canonical file:line:col: analyzer: message form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// runPackage applies the matching analyzers to one package and
// returns its suppression-resolved, path-normalized findings.
func runPackage(pkg *Package, analyzers []*Analyzer, modPath, modRoot string, facts *PackageFacts, allFacts map[string]*PackageFacts) []Finding {
	var out []Finding
	// A mistyped directive must not silently disable a check.
	for _, d := range pkg.Directives {
		if d.Malformed != "" {
			out = append(out, Finding{
				Analyzer: "directive",
				File:     relPath(modRoot, d.File),
				Line:     d.Line,
				Col:      1,
				Message:  d.Malformed,
			})
		}
	}
	for _, a := range analyzers {
		if !a.AppliesTo(modPath, pkg.ImportPath) {
			continue
		}
		pass := &Pass{Analyzer: a, Pkg: pkg, Facts: facts, AllFacts: allFacts}
		a.Run(pass)
		for _, f := range pass.findings {
			if d, ok := suppressedBy(pkg, f); ok {
				f.Suppressed = true
				f.Reason = d.Reason
			}
			f.File = relPath(modRoot, f.File)
			for i := range f.Fixes {
				for j := range f.Fixes[i].Edits {
					f.Fixes[i].Edits[j].File = relPath(modRoot, f.Fixes[i].Edits[j].File)
				}
			}
			out = append(out, f)
		}
	}
	return out
}

// SortFindings orders findings by file, line, column, analyzer — the
// canonical output order.
func SortFindings(all []Finding) {
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
}

// suppressedBy finds an ignore directive covering the finding: same
// analyzer, same file, on the finding's line, on the first line of
// the finding's enclosing statement, or alone on the line directly
// above either — so an ignore above a multi-line composite literal or
// chained call still matches a finding on an inner line.
func suppressedBy(pkg *Package, f Finding) (Directive, bool) {
	for _, d := range pkg.Directives {
		if d.Kind != DirectiveIgnore || d.Analyzer != f.Analyzer || !sameFile(d.File, f.File) {
			continue
		}
		if d.Line == f.Line || d.Line == f.Line-1 {
			return d, true
		}
		if f.StmtLine > 0 && (d.Line == f.StmtLine || d.Line == f.StmtLine-1) {
			return d, true
		}
	}
	return Directive{}, false
}

// sameFile tolerates one side being module-relative (ReportAt
// findings carry fact-recorded relative paths; directives carry the
// loader's absolute paths).
func sameFile(a, b string) bool {
	if a == b {
		return true
	}
	return strings.HasSuffix(filepath.ToSlash(a), "/"+filepath.ToSlash(b)) ||
		strings.HasSuffix(filepath.ToSlash(b), "/"+filepath.ToSlash(a))
}

func relPath(root, file string) string {
	if root == "" {
		return file
	}
	if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return file
}

// calleeFunc resolves a call's static callee — a package-level
// function or a method — or nil for dynamic calls, conversions and
// builtins.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.Ident:
		id = fun
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}
