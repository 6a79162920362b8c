package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
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
// Where the loop's key type is string and the shape is simple, the
// fix is mechanical and attached: collect the keys, sort them, range
// over the sorted slice (adding a `v := m[k]` binding when the loop
// bound a value). determinism keeps owning direct fmt/io writes,
// slice appends, and channel sends in its scoped packages; this
// analyzer owns the hashing/serialization/commit sinks everywhere.
var MapOrder = &Analyzer{
	Name:       "maporder",
	Doc:        "map iteration feeding hashing, serialization, or commit/merge paths must range over sorted keys",
	EmitsFixes: true,
	Run:        runMapOrder,
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
			}, func(rng *ast.RangeStmt, mt *types.Map, sink string) {
				pass.ReportFix(rng.For, sortKeysFix(pass, file, fn, rng, mt),
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
func forEachMapRangeSink(pass *Pass, body *ast.BlockStmt, sink func(rng *ast.RangeStmt, n ast.Node) string, report func(rng *ast.RangeStmt, mt *types.Map, hit string)) {
	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.TypesInfo().TypeOf(rng.X)
		if t == nil {
			return true
		}
		mt, isMap := t.Underlying().(*types.Map)
		if !isMap {
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
			report(rng, mt, hit)
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

// sortKeysFix builds the sort-keys rewrite when it is mechanical:
//
//	for k, v := range m {        for _, k := range ks {   // ks sorted
//	    sink(k, v)          =>       v := m[k]
//	}                                sink(k, v)
//	                             }
//
// Conditions: the key type is string (sort.Strings suffices), the
// range expression is a plain identifier or selector (re-evaluating it
// for the collect loop and the `m[k]` load is effect-free), and the
// loop binds a named key with `:=`. Anything else gets the finding
// without a fix.
func sortKeysFix(pass *Pass, file *ast.File, fn *ast.FuncDecl, rng *ast.RangeStmt, mt *types.Map) []Fix {
	basic, ok := mt.Key().Underlying().(*types.Basic)
	if !ok || basic.Kind() != types.String {
		return nil
	}
	switch rng.X.(type) {
	case *ast.Ident, *ast.SelectorExpr:
	default:
		return nil
	}
	if rng.Tok != token.DEFINE {
		return nil
	}
	key, ok := rng.Key.(*ast.Ident)
	if !ok || key.Name == "_" {
		return nil
	}
	var val *ast.Ident
	if rng.Value != nil {
		v, ok := rng.Value.(*ast.Ident)
		if !ok {
			return nil
		}
		if v.Name != "_" {
			val = v
		}
	}

	keysName := freshName(fn, key.Name)
	if keysName == "" {
		return nil
	}
	m := types.ExprString(rng.X)

	var b strings.Builder
	fmt.Fprintf(&b, "%s := make([]string, 0, len(%s))\n", keysName, m)
	fmt.Fprintf(&b, "for %s := range %s {\n", key.Name, m)
	fmt.Fprintf(&b, "%s = append(%s, %s)\n", keysName, keysName, key.Name)
	fmt.Fprintf(&b, "}\n")
	fmt.Fprintf(&b, "sort.Strings(%s)\n", keysName)
	fmt.Fprintf(&b, "for _, %s := range %s {\n", key.Name, keysName)
	if val != nil {
		fmt.Fprintf(&b, "%s := %s[%s]\n", val.Name, m, key.Name)
	}

	edits := []TextEdit{pass.editReplace(rng.For, rng.Body.Lbrace+1, b.String())}
	if imp := sortImportEdit(pass, file); imp != nil {
		edits = append(edits, *imp)
	} else if !importsPath(file, "sort") {
		return nil
	}
	return []Fix{{
		Message: fmt.Sprintf("collect the keys, sort.Strings them, and range over %s", keysName),
		Edits:   edits,
	}}
}

// freshName picks a name for the sorted-keys slice that no identifier
// in the function already uses; empty when every candidate collides.
func freshName(fn *ast.FuncDecl, key string) string {
	used := map[string]bool{}
	ast.Inspect(fn, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			used[id.Name] = true
		}
		return true
	})
	for _, cand := range []string{key + "s", key + "Keys", "sorted" + strings.Title(key)} {
		if !used[cand] {
			return cand
		}
	}
	return ""
}

// sortImportEdit inserts "sort" into the file's grouped import block
// when missing; nil when already imported or when there is no grouped
// block to extend (the applied file is gofmt-validated, which also
// re-sorts the import block around the insertion).
func sortImportEdit(pass *Pass, file *ast.File) *TextEdit {
	if importsPath(file, "sort") {
		return nil
	}
	for _, decl := range file.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.IMPORT || !gd.Lparen.IsValid() {
			continue
		}
		e := pass.editReplace(gd.Lparen+1, gd.Lparen+1, "\n\t\"sort\"")
		return &e
	}
	return nil
}

func importsPath(file *ast.File, path string) bool {
	for _, imp := range file.Imports {
		if imp.Path.Value == `"`+path+`"` {
			return true
		}
	}
	return false
}
