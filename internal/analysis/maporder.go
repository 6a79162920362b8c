package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"slices"
	"strings"
)

// MapOrder extends determinism's intra-package map-iteration check
// module-wide along the taint the facts carry: a `range` over a map
// whose per-iteration values reach bytes that are hashed, streamed
// through an encoder, written by a module function (FuncFact.Writes),
// or handed to a commit/merge path produces different bytes on every
// run — Go randomizes map iteration order deliberately. Content-
// addressed caching (DESIGN §10) turns that from cosmetic into
// corrupting: a key or cached payload derived through such a loop
// never matches itself, so warm replay silently goes cold, and a
// sorted-merge commit fed in map order loses its determinism
// guarantee.
//
// The repair is to collect the keys, sort them, and range over the
// sorted slice. determinism keeps owning direct fmt/io writes,
// slice appends, and channel sends in its scoped packages; this
// analyzer owns the hashing/serialization/commit sinks everywhere.
var MapOrder = &Analyzer{
	Name: "maporder",
	Run:  runMapOrder,
}

func runMapOrder(pass *Pass) {
	for _, file := range pass.Files() {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			forEachMapRangeSink(pass, fn.Body, func(_ *ast.RangeStmt, n ast.Node) string {
				if call, ok := n.(*ast.CallExpr); ok {
					return orderSink(pass, call)
				}
				return ""
			}, func(rng *ast.RangeStmt, sink string) {
				pass.Reportf(rng.For,
					"map iteration order reaches %s; the bytes differ run to run — range over sorted keys", sink)
			})
		}
	}
}

// forEachMapRangeSink is the one map-range walker, shared with
// determinism: for every `range` over a map in body it asks sink — the
// calling analyzer's row of order-sensitive effects — about each node
// of the loop body in source order, and hands the first non-empty
// answer to report.
func forEachMapRangeSink(pass *Pass, body *ast.BlockStmt, sink func(rng *ast.RangeStmt, n ast.Node) string, report func(rng *ast.RangeStmt, hit string)) {
	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.TypesInfo().TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		hit := ""
		ast.Inspect(rng.Body, func(n ast.Node) bool {
			if hit == "" && n != nil {
				hit = sink(rng, n)
			}
			return hit == ""
		})
		if hit != "" {
			report(rng, hit)
		}
		return true
	})
}

// orderSinks is the one table of calls that put their arguments' bytes
// somewhere iteration order shows, shared by maporder and determinism.
// A row is keyed by the callee — a bare method name, or a
// package-qualified function — and by the package of the value the
// bytes go into: the method's receiver, the function's first argument.
// maporder owns the rows whose destination is a hash or an encoder and
// reports them in every package; determinism owns the rows that match
// any destination (fmt.Print* has none) and reports them in its scoped
// packages. label is formatted with the callee and the destination's
// package.
var orderSinks = []struct {
	owner   string
	callees []string
	dest    string // "hash" (hash, hash/*, crypto/*), "encoding" (encoding/*), or "" for any
	label   string
}{
	{"maporder", []string{"Write", "WriteString", "Sum"}, "hash", "a hash-state update (%[2]s.%[1]s)"},
	{"maporder", []string{"Encode", "EncodeElement"}, "encoding", "a streaming %[2]s encoder"},
	{"maporder", writerFuncs, "hash", "a hash-state update (%[1]s into %[2]s)"},
	{"maporder", writerFuncs, "encoding", "a streaming %[2]s encoder (through %[1]s)"},
	{"determinism", []string{"fmt.Print", "fmt.Printf", "fmt.Println", "fmt.Fprint", "fmt.Fprintf", "fmt.Fprintln"}, "", "%[1]s"},
	{"determinism", []string{"Write", "WriteString", "WriteByte", "WriteRune"}, "", "a %[1]s call"},
}

// writerFuncs are the standard-library functions that format or copy
// their arguments into their first one.
var writerFuncs = []string{"fmt.Fprint", "fmt.Fprintf", "fmt.Fprintln", "io.WriteString"}

// tableSink looks a call up in the running analyzer's rows of
// orderSinks and returns the matching row's label, or "".
func tableSink(pass *Pass, call *ast.CallExpr) string {
	fn := calleeFunc(pass.TypesInfo(), call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	callee, destPkg := fn.Name(), ""
	if fn.Type().(*types.Signature).Recv() != nil {
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			destPkg = recvPkgPath(pass, sel.X)
		}
	} else {
		callee = fn.Pkg().Path() + "." + callee
		if len(call.Args) > 0 {
			destPkg = recvPkgPath(pass, call.Args[0])
		}
	}
	destClass := ""
	switch {
	case destPkg == "hash" || strings.HasPrefix(destPkg, "hash/") || strings.HasPrefix(destPkg, "crypto/"):
		destClass = "hash"
	case strings.HasPrefix(destPkg, "encoding/"):
		destClass = "encoding"
	}
	for _, row := range orderSinks {
		if row.owner == pass.Analyzer.Name && slices.Contains(row.callees, callee) && (row.dest == "" || row.dest == destClass) {
			return fmt.Sprintf(row.label, callee, destPkg)
		}
	}
	return ""
}

// orderSink classifies a call inside a map-range body as an
// order-sensitive byte sink: a hash write or a streaming encoder
// (orderSinks), a module function that writes output (via facts), or
// a commit/merge path. Whole-value encodings like json.Marshal(m) are
// NOT sinks — encoding/json sorts map keys itself.
func orderSink(pass *Pass, call *ast.CallExpr) string {
	if sink := tableSink(pass, call); sink != "" {
		return sink
	}
	fn := calleeFunc(pass.TypesInfo(), call)
	if fn == nil {
		return ""
	}
	if f := calleeFact(pass, call); f != nil && f.Writes {
		return fmt.Sprintf("%s, which writes output (via facts)", fn.Name())
	}
	// Module commit/merge paths build sorted, deterministic results;
	// feeding them in map order defeats the sort the engine's commit
	// contract depends on.
	if fn.Pkg() != nil && fn.Pkg() != types.Unsafe && inModule(pass, fn.Pkg()) &&
		(strings.Contains(fn.Name(), "Commit") || strings.Contains(fn.Name(), "Merge")) {
		return fmt.Sprintf("the %s commit/merge path", fn.Name())
	}
	return ""
}

// recvPkgPath resolves the defining package of a receiver (or
// destination argument) expression's named (or pointer-to-named)
// static type; interfaces count — a hash.Hash receiver resolves to
// "hash".
func recvPkgPath(pass *Pass, recv ast.Expr) string {
	t := deref(pass.TypesInfo().TypeOf(recv))
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path()
}

// inModule reports whether the package is this package or an in-module
// dependency (anything whose facts are visible).
func inModule(pass *Pass, pkg *types.Package) bool {
	if pkg == pass.Pkg.Types {
		return true
	}
	_, ok := pass.AllFacts[pkg.Path()]
	return ok
}
