package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Purity proves the incremental pipeline's central assumption (DESIGN
// §10): every cached computation is a pure function of what its cache
// key hashes. The content-addressed layers — the concretize layer,
// the buildcache and the engine run-cache — replay stored results
// whenever the key matches, so any ambient state a keyed computation
// reads (wall clock, RNG, environment, mutable globals) silently
// breaks byte-identical warm replay: the cold run saw a value the key
// never captured.
//
// The check is taint-style and interprocedural through facts: the
// fact computation marks every function with the classes of ambient
// state it reads, transitively (FuncFact.Reads*), and this analyzer
// flags the two path shapes the caches rest on:
//
//   - memoized roots — functions bracketing a compute with a
//     cache/memo lookup and store (Layer.Read/Put around the
//     concretizer's solve, ExperimentCache.Read/Put).
//     Calls reachable from the bracket must not read the clock, an
//     unseeded RNG, or the process environment. Filesystem reads are
//     allowed here: content-addressed keys legitimately hash file
//     bytes.
//   - key derivations — functions shaped like key/fingerprint/hash
//     producers. These must read no ambient state at all (including
//     files and module globals): equal inputs must yield equal keys
//     in every process, or warm runs silently go cold — and worse, a
//     key that *does* vary with ambient state can replay a stale
//     entry as current.
//
// Fixture-provable false positives (a read whose value demonstrably
// is the key material, like a key hashing the files it opens) are
// suppressed in source with a justification.
var Purity = &Analyzer{
	Name: "purity",
	Run:  runPurity,
}

// impureBits is the purity fact lattice as a bitmask; the lattice is
// a powerset ordered by inclusion, with join = union — exactly what
// the facts fixpoint computes transitively.
type impureBits uint

const (
	impureTime impureBits = 1 << iota
	impureRand
	impureEnv
	impureFS
	impureGlobal
)

// impureLabels renders a bitmask for diagnostics, most severe first.
var impureLabels = []struct {
	bit   impureBits
	label string
}{
	{impureTime, "the wall clock"},
	{impureRand, "a nondeterministic RNG"},
	{impureEnv, "ambient process state (env/exec)"},
	{impureFS, "the filesystem"},
	{impureGlobal, "package-level mutable state"},
}

func (b impureBits) describe() string {
	var parts []string
	for _, l := range impureLabels {
		if b&l.bit != 0 {
			parts = append(parts, l.label)
		}
	}
	return strings.Join(parts, " and ")
}

// ambientCallBits classifies a call to a standard-library function by
// the ambient state it reads. This is the ground truth the facts
// fixpoint propagates.
func ambientCallBits(fn *types.Func) impureBits {
	if fn == nil || fn.Pkg() == nil {
		return 0
	}
	switch fn.Pkg().Path() {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			return impureTime
		}
	case "math/rand", "math/rand/v2":
		// Package-scope draws use the shared, unseeded global
		// generator; explicit sources (a rand.New source seeded
		// from the experiment) are deterministic and carry a receiver.
		if fn.Type().(*types.Signature).Recv() == nil && !seededConstructors[fn.Name()] {
			return impureRand
		}
	case "crypto/rand":
		return impureRand
	case "os":
		switch fn.Name() {
		case "Getenv", "LookupEnv", "Environ", "ExpandEnv", "Hostname",
			"Getpid", "Getppid", "Getuid", "Geteuid", "Getgid",
			"Getwd", "TempDir", "UserHomeDir", "UserCacheDir", "UserConfigDir":
			return impureEnv
		case "Open", "OpenFile", "ReadFile", "ReadDir", "Stat", "Lstat", "ReadLink":
			return impureFS
		}
	case "os/exec":
		// Spawning a subprocess consults PATH, the environment, and
		// whatever the child reads: ambient by construction.
		return impureEnv
	case "path/filepath":
		switch fn.Name() {
		case "Walk", "WalkDir", "Glob":
			return impureFS
		}
	}
	return 0
}

// rootFlagged is the sub-lattice that gates memoized compute roots:
// time, RNG and environment can never be folded into a content key.
// FS reads are advisory there (keys hash file contents), and global
// reads are too coarse to gate an arbitrary compute; both stay hard
// requirements for key derivations.
const rootFlagged = impureTime | impureRand | impureEnv

func runPurity(pass *Pass) {
	for _, file := range pass.Files() {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if isKeyFunc(pass, fn) {
				checkPurePath(pass, fn, ^impureBits(0),
					"key derivation %s reads %s%s; equal inputs must yield equal keys — fold the value into the key's inputs or inject it")
			}
			if isMemoBracket(pass, fn) {
				checkPurePath(pass, fn, rootFlagged,
					"memoized path %s reads %s%s; the cached result is not a pure function of its key — inject the value or fold it into the key")
			}
		}
	}
}

// isKeyFunc matches the key-derivation shape: a function whose name
// marks it as producing a key, fingerprint, or content hash and whose
// first result is a string or a string-kinded named type
// (cachekey.Key). Slice-returning inventory helpers (Hashes, Keys)
// fall outside the shape.
func isKeyFunc(pass *Pass, fn *ast.FuncDecl) bool {
	name := fn.Name.Name
	if !strings.Contains(name, "Key") && !strings.Contains(name, "Fingerprint") && !strings.Contains(name, "Hash") {
		return false
	}
	if fn.Type.Results == nil || len(fn.Type.Results.List) == 0 {
		return false
	}
	t := pass.TypesInfo().TypeOf(fn.Type.Results.List[0].Type)
	if t == nil {
		return false
	}
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Kind() == types.String
}

// isMemoBracket matches the memoized-root shape: one function body
// containing both a read-shaped and a write-shaped call against a
// cache-like target (receiver type or function name mentioning
// cache/memo/layer/store). This is how every caching layer in the
// module brackets its compute: Layer.Read/Put around the concretizer
// solve, ExperimentCache.Read/Put around Execute.
func isMemoBracket(pass *Pass, fn *ast.FuncDecl) bool {
	var reads, writes bool
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch cacheCallShape(pass, call) {
		case cacheRead:
			reads = true
		case cacheWrite:
			writes = true
		}
		return true
	})
	return reads && writes
}

type cacheShape int

const (
	cacheOther cacheShape = iota
	cacheRead
	cacheWrite
)

// cacheCallShape classifies one call as a cache lookup, a cache
// store, or neither. The cache-ness comes from the receiver type's
// name (Layer, ExperimentCache, ...) or, for plain functions,
// the function name itself (loadCacheEntry).
func cacheCallShape(pass *Pass, call *ast.CallExpr) cacheShape {
	fn := calleeFunc(pass.TypesInfo(), call)
	if fn == nil {
		return cacheOther
	}
	cacheish := false
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if t := deref(pass.TypesInfo().TypeOf(sel.X)); t != nil {
			if named, ok := t.(*types.Named); ok {
				cacheish = cacheNoun(named.Obj().Name())
			}
		}
	}
	if !cacheish && !cacheNoun(fn.Name()) {
		return cacheOther
	}
	name := strings.ToLower(fn.Name())
	switch {
	case strings.Contains(name, "get") || strings.Contains(name, "lookup") ||
		strings.Contains(name, "load") || strings.Contains(name, "fetch") ||
		strings.Contains(name, "read"):
		return cacheRead
	case strings.Contains(name, "put") || strings.Contains(name, "store") ||
		strings.Contains(name, "save"):
		return cacheWrite
	}
	return cacheOther
}

func cacheNoun(name string) bool {
	l := strings.ToLower(name)
	return strings.Contains(l, "cache") || strings.Contains(l, "memo") ||
		strings.Contains(l, "layer") || strings.Contains(l, "store")
}

// checkPurePath walks one function body and reports every ambient
// read visible on the path: direct standard-library reads, reads of
// module globals, and calls to module functions whose facts carry an
// impurity bit (which folds in everything transitively reachable).
// Goroutine bodies are skipped — a spawned goroutine's effects are
// not the cached computation's. The format has three verbs: the
// offender (call or read), what it reads, and the transitivity note.
func checkPurePath(pass *Pass, fn *ast.FuncDecl, flagged impureBits, format string) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.CallExpr:
			callee := calleeFunc(pass.TypesInfo(), n)
			if bits := ambientCallBits(callee) & flagged; bits != 0 {
				pass.Reportf(n.Pos(), format,
					fnLabel(fn), bits.describe(), "")
				return true
			}
			if f := calleeFact(pass, n); f != nil {
				if bits := f.ambient() & flagged; bits != 0 {
					pass.Reportf(n.Pos(), format,
						fnLabel(fn)+" via "+callee.Name(), bits.describe(), " (transitively)")
				}
			}
		case *ast.Ident:
			if flagged&impureGlobal != 0 && isMutableGlobalRead(pass.Pkg, "", n) {
				pass.Reportf(n.Pos(), format, fnLabel(fn), "package-level mutable state", "")
			}
		}
		return true
	})
}

// fnLabel names a function for diagnostics, including the receiver.
func fnLabel(fn *ast.FuncDecl) string {
	if fn.Recv != nil && len(fn.Recv.List) > 0 {
		if t := fn.Recv.List[0].Type; t != nil {
			return types.ExprString(t) + "." + fn.Name.Name
		}
	}
	return fn.Name.Name
}
