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
// only in package main and in tests (benchlint does not load test
// files); a deliberate severing elsewhere carries a
// //benchlint:ignore ctxflow directive that says why.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Run:  runCtxFlow,
}

func runCtxFlow(pass *Pass) {
	for _, file := range pass.Files() {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				// Package-level initializers can also mint contexts.
				if pass.Pkg.Name != "main" {
					reportFreshContexts(pass, decl)
				}
				continue
			}
			checkCtxParamFirst(pass, fn)
			if pass.Pkg.Name == "main" {
				continue
			}
			if fn.Body != nil {
				reportFreshContexts(pass, fn.Body)
			}
		}
	}
}

// reportFreshContexts flags every context.Background()/context.TODO()
// call under n.
func reportFreshContexts(pass *Pass, n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name, ok := contextPackageFunc(pass, call)
		if !ok || (name != "Background" && name != "TODO") {
			return true
		}
		pass.Reportf(call.Pos(),
			"context.%s() severs the cancellation chain; take a context.Context from the caller",
			name)
		return true
	})
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
