package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
)

// KeyCover enforces the keycover↔cachekey contract (DESIGN §7):
// every value handed to a Hash-shaped key derivation — cachekey.Hash
// and anything with its one-empty-interface-parameter signature —
// must be fully visible to the canonical-JSON encoder that turns it
// into key material. A field the encoder cannot see is a field the
// key does not cover: two inputs differing only there collide on the
// same key, and the cache replays one as the other. That is the
// "someone added a field but not to the key" drift bug, caught at
// lint time instead of as a stale-replay mystery.
//
// The analyzer walks the hashed argument's static type transitively
// and flags: unexported struct fields (invisible to encoding/json),
// exported fields tagged `json:"-"` (explicitly excluded), fields of
// unencodable type (func/chan make Marshal fail at runtime, after the
// cold run already happened), and map key types canonical JSON cannot
// order (not string-kinded, integer-kinded, or a TextMarshaler). Types
// with their own MarshalJSON/MarshalText are trusted to cover
// themselves.
var KeyCover = &Analyzer{
	Name: "keycover",
	Run:  runKeyCover,
}

func runKeyCover(pass *Pass) {
	for _, file := range pass.Files() {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			if !isHashShaped(pass, call) {
				return true
			}
			t := pass.TypesInfo().TypeOf(call.Args[0])
			if t == nil {
				return true
			}
			w := &keyWalker{pass: pass, call: call, visited: map[types.Type]bool{}}
			w.walk(t, "", 0)
			return true
		})
	}
}

// isHashShaped matches a call to a module function named Hash taking
// exactly one empty-interface (any) parameter — cachekey.Hash's
// signature, which is what makes the argument key material.
func isHashShaped(pass *Pass, call *ast.CallExpr) bool {
	fn := calleeFunc(pass.TypesInfo(), call)
	if fn == nil || fn.Name() != "Hash" || fn.Pkg() == nil || !inModule(pass, fn.Pkg()) {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Params().Len() != 1 {
		return false
	}
	iface, ok := sig.Params().At(0).Type().Underlying().(*types.Interface)
	return ok && iface.NumMethods() == 0 && !sig.Variadic()
}

// keyWalker carries one Hash call's traversal state.
type keyWalker struct {
	pass    *Pass
	call    *ast.CallExpr
	visited map[types.Type]bool
}

const maxKeyDepth = 8

// walk recurses through the hashed value's type the way encoding/json
// will at Marshal time, reporting every blind spot. path names the
// field chain for diagnostics anchored at the call site.
func (w *keyWalker) walk(t types.Type, path string, depth int) {
	if t == nil || depth > maxKeyDepth || w.visited[t] {
		return
	}
	w.visited[t] = true
	defer delete(w.visited, t)

	// A type that marshals itself covers itself; its fields are its
	// own business.
	if hasMarshaler(t) {
		return
	}

	switch u := t.Underlying().(type) {
	case *types.Pointer:
		w.walk(u.Elem(), path, depth)
	case *types.Slice:
		w.walk(u.Elem(), path, depth+1)
	case *types.Array:
		w.walk(u.Elem(), path, depth+1)
	case *types.Map:
		if !encodableMapKey(u.Key()) {
			w.report(token.NoPos,
				"map key type %s cannot be canonically JSON-encoded (not string-kinded, integer-kinded, or a TextMarshaler); the Hash call fails at runtime", u.Key())
		}
		w.walk(u.Elem(), path, depth+1)
	case *types.Struct:
		w.walkStruct(u, path, depth)
	}
}

func (w *keyWalker) walkStruct(st *types.Struct, path string, depth int) {
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		fpath := f.Name()
		if path != "" {
			fpath = path + "." + f.Name()
		}
		jsonTag := reflect.StructTag(st.Tag(i)).Get("json")
		switch {
		case !f.Exported():
			w.report(f.Pos(),
				"unexported field %s is invisible to the canonical-JSON encoder; its value never reaches the cache key — export it or drop it from the hashed struct", fpath)
			continue
		case jsonTag == "-":
			w.report(f.Pos(),
				`field %s is tagged json:"-" so the key encoder skips it; two inputs differing only there hash to the same key — remove the tag or remove the field`, fpath)
			continue
		}
		switch f.Type().Underlying().(type) {
		case *types.Signature, *types.Chan:
			w.report(f.Pos(),
				"field %s has unencodable type %s; the Hash call fails at runtime — derive a stable representation instead", fpath, f.Type())
			continue
		case *types.Interface:
			// Dynamic content; coverage depends on the runtime value.
			continue
		}
		if f.Embedded() {
			w.walk(f.Type(), path, depth)
			continue
		}
		w.walk(f.Type(), fpath, depth+1)
	}
}

// encodableMapKey mirrors encoding/json's map-key rules: string kind,
// integer kinds, or an encoding.TextMarshaler.
func encodableMapKey(t types.Type) bool {
	if basic, ok := t.Underlying().(*types.Basic); ok {
		switch {
		case basic.Info()&types.IsString != 0,
			basic.Info()&types.IsInteger != 0:
			return true
		}
		return false
	}
	return hasMethod(t, "MarshalText")
}

// hasMarshaler reports whether the type controls its own JSON
// encoding.
func hasMarshaler(t types.Type) bool {
	return hasMethod(t, "MarshalJSON") || hasMethod(t, "MarshalText")
}

func hasMethod(t types.Type, name string) bool {
	for _, typ := range []types.Type{t, types.NewPointer(t)} {
		ms := types.NewMethodSet(typ)
		for i := 0; i < ms.Len(); i++ {
			if fn, ok := ms.At(i).Obj().(*types.Func); ok && fn.Name() == name && fn.Exported() {
				return true
			}
		}
	}
	return false
}

// report anchors the finding at the field's declaration when it
// lives in the package under analysis, else at the Hash call site (the
// message's field path names the blind spot either way).
func (w *keyWalker) report(pos token.Pos, format string, args ...any) {
	if w.posInPackage(pos) {
		w.pass.Reportf(pos, format, args...)
		return
	}
	w.pass.Reportf(w.call.Pos(), "hashed value: %s", fmt.Sprintf(format, args...))
}

func (w *keyWalker) posInPackage(pos token.Pos) bool {
	if !pos.IsValid() {
		return false
	}
	for _, file := range w.pass.Files() {
		if pos >= file.Pos() && pos <= file.End() {
			return true
		}
	}
	return false
}
