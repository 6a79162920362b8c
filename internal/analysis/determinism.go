package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Determinism guards the byte-identical-results guarantee of the
// deterministic packages (the engine's commit path, the concretizer,
// the spec model, and the yamlite renderer): no wall-clock reads, no
// draws from the process-global math/rand generator, and no map
// iteration feeding an output or an accumulated slice that is never
// sorted. A run with Jobs=N must stay byte-identical to Jobs=1, and a
// re-run must stay byte-identical to the first run; each of these
// constructs breaks one of those properties.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "no time.Now, unseeded math/rand, or order-sensitive map iteration in the deterministic packages",
	Scope: []string{
		"internal/engine",
		"internal/concretizer",
		"internal/spec",
		"internal/yamlite",
		// The cache-key layer must derive identical keys run to run, or
		// every warm re-run silently goes cold.
		"internal/cachekey",
		// benchlint checks itself: findings and facts must be
		// identical run to run.
		"internal/analysis",
	},
	Run: runDeterminism,
}

// seededConstructors are the math/rand functions that build explicit,
// seedable sources (the engine's SeededRNG pattern) rather than
// drawing from the shared global generator.
var seededConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

func runDeterminism(pass *Pass) {
	for _, file := range pass.Files() {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo().Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "time":
				if fn.Name() == "Now" || fn.Name() == "Since" {
					pass.Reportf(sel.Pos(),
						"time.%s reads the wall clock; deterministic packages must not let real time into committed results", fn.Name())
				}
			case "math/rand", "math/rand/v2":
				// Package-scope draws use the shared global generator;
				// methods on an explicit *rand.Rand are fine.
				if fn.Type().(*types.Signature).Recv() == nil && !seededConstructors[fn.Name()] {
					pass.Reportf(sel.Pos(),
						"%s.%s draws from the unseeded global generator; use a per-experiment seeded source (engine.SeededRNG)", fn.Pkg().Path(), fn.Name())
				}
			}
			return true
		})
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				checkMapOrder(pass, fn.Body)
			}
		}
	}
}

// checkMapOrder flags map-range loops whose iteration order leaks
// into output: a direct write/print/send inside the body, or an
// append to an outer slice that is never sorted after the loop. The
// writes and prints are determinism's rows of the shared sink table
// (orderSinks), over the shared map-range walker (forEachMapRangeSink),
// both in maporder.go.
func checkMapOrder(pass *Pass, body *ast.BlockStmt) {
	// Sort calls anywhere in the function clear appends they cover.
	type sortCall struct {
		pos token.Pos
		arg types.Object
	}
	var sorts []sortCall
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass.TypesInfo(), call)
		if fn == nil || fn.Pkg() == nil || len(call.Args) == 0 {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		if id, ok := call.Args[0].(*ast.Ident); ok && pass.TypesInfo().Uses[id] != nil {
			sorts = append(sorts, sortCall{pos: call.Pos(), arg: pass.TypesInfo().Uses[id]})
		}
		return true
	})

	forEachMapRangeSink(pass, body, func(rng *ast.RangeStmt, n ast.Node) string {
		switch n := n.(type) {
		case *ast.SendStmt:
			return "map iteration order reaches a channel send; iterate sorted keys instead"
		case *ast.CallExpr:
			if sink := tableSink(pass, n); sink != "" {
				return "map iteration order reaches " + sink + "; iterate sorted keys instead"
			}
			if target, ok := appendTarget(pass, n); ok {
				for _, s := range sorts {
					if s.arg == target && s.pos > rng.End() {
						return ""
					}
				}
				return "map iteration appends to " + target.Name() + " which is never sorted afterwards; sort it (or collect sorted keys first)"
			}
		}
		return ""
	}, func(rng *ast.RangeStmt, _ *types.Map, finding string) {
		pass.Reportf(rng.For, "%s", finding)
	})
}

// appendTarget matches `x = append(x, ...)` and returns x's object.
func appendTarget(pass *Pass, call *ast.CallExpr) (types.Object, bool) {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" || len(call.Args) == 0 {
		return nil, false
	}
	if b, ok := pass.TypesInfo().Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
		return nil, false
	}
	arg, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return nil, false
	}
	obj := pass.TypesInfo().Uses[arg]
	if obj == nil {
		return nil, false
	}
	return obj, true
}
