package analysis

import (
	"go/ast"
	"go/types"
)

// CtxFlow enforces the engine's cancellation invariant: execution
// paths (experiment runs, software installs, pipeline syncs) must
// receive their caller's context.Context as the first parameter and
// pass it down. Minting a fresh context with context.Background() or
// context.TODO() severs the cancellation chain, so both are allowed
// only in package main, in tests (benchlint does not load test
// files), and in documented compatibility wrappers whose doc comment
// carries //benchlint:compat.
var CtxFlow = &Analyzer{
	Name:       "ctxflow",
	Doc:        "contexts must flow from callers; Background/TODO only in main, tests, and //benchlint:compat wrappers",
	EmitsFixes: true,
	Run:        runCtxFlow,
}

func runCtxFlow(pass *Pass) {
	for _, file := range pass.Files() {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				// Package-level initializers can also mint contexts.
				if pass.Pkg.Name != "main" {
					reportFreshContexts(pass, decl, "")
				}
				continue
			}
			checkCtxParamFirst(pass, fn)
			if pass.Pkg.Name == "main" || pass.IsCompat(fn) {
				continue
			}
			if fn.Body != nil {
				reportFreshContexts(pass, fn.Body, ctxParamName(pass, fn))
			}
		}
	}
}

// reportFreshContexts flags every context.Background()/context.TODO()
// call under n. When the enclosing function already has a named
// context parameter (ctxParam), the mechanical repair — use it — is
// attached as a fix.
func reportFreshContexts(pass *Pass, n ast.Node, ctxParam string) {
	ast.Inspect(n, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name, ok := contextPackageFunc(pass, call)
		if !ok || (name != "Background" && name != "TODO") {
			return true
		}
		var fixes []Fix
		if ctxParam != "" {
			fixes = []Fix{{
				Message: "use the caller's context " + ctxParam,
				Edits:   []TextEdit{pass.editReplace(call.Pos(), call.End(), ctxParam)},
			}}
		}
		pass.ReportFix(call.Pos(), fixes,
			"context.%s() severs the cancellation chain; take a context.Context from the caller (or mark a documented wrapper //benchlint:compat)",
			name)
		return true
	})
}

// ctxParamName returns the name of the function's first named
// context.Context parameter, or "" when there is none to route the
// fix through.
func ctxParamName(pass *Pass, fn *ast.FuncDecl) string {
	if fn.Type.Params == nil {
		return ""
	}
	for _, field := range fn.Type.Params.List {
		if !isContextType(pass.TypesInfo().TypeOf(field.Type)) {
			continue
		}
		for _, name := range field.Names {
			if name.Name != "_" {
				return name.Name
			}
		}
	}
	return ""
}

// contextPackageFunc resolves a call to a function of package context.
func contextPackageFunc(pass *Pass, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(pass.TypesInfo(), call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return "", false
	}
	return fn.Name(), true
}

// checkCtxParamFirst reports functions that take a context.Context
// anywhere but first, which hides the cancellation dependency from
// callers.
func checkCtxParamFirst(pass *Pass, fn *ast.FuncDecl) {
	if fn.Type.Params == nil {
		return
	}
	pos := 0
	for _, field := range fn.Type.Params.List {
		t := pass.TypesInfo().TypeOf(field.Type)
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		if isContextType(t) && pos > 0 {
			pass.Reportf(field.Pos(),
				"context.Context must be the first parameter of %s", fn.Name.Name)
			return
		}
		pos += n
	}
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
