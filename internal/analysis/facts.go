package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// The fact system makes benchlint interprocedural without importing
// x/tools: every package analysis exports a small set of typed facts
// about its functions — "fsyncs a file on some path", "acquires lock
// class L", "returns when its context/done channel closes" — and
// packages that depend on it import those facts instead of re-reading
// its source. Facts are computed in import-graph order (Go imports
// are acyclic) and live only for the run that computed them.
//
// Facts are deliberately approximate in the safe direction for each
// consumer (see the analyzer docs): function literals are folded into
// their enclosing function except goroutine bodies, dynamic calls
// through interfaces contribute nothing, and lock identity is the
// lock *class* (owning named type + field) rather than the instance —
// the standard choice for order-based deadlock detection.

// LockEdge is one observed "acquired To while holding From" pair, the
// unit the lockorder analyzer builds its whole-module graph from.
type LockEdge struct {
	From string
	To   string
	// File/Line locate the acquisition (or the call that transitively
	// acquires), relative to the module root.
	File string
	Line int
}

// FuncFact is what one function exports to its callers. All boolean
// facts are transitive: a function calling a helper with the fact has
// the fact itself.
type FuncFact struct {
	// Syncs: the function calls (*os.File).Sync on some path,
	// directly or through a callee. walack treats a call to a Syncs
	// function as flushing the WAL.
	Syncs bool
	// Writes: the function writes bytes to an *os.File or io.Writer,
	// directly or through a callee. walack treats a call to a Writes
	// function as dirtying the WAL (any prior sync no longer covers
	// the ack).
	Writes bool
	// CtxBound: the function's body blocks on channel state — a
	// select, a receive, or a range over a channel — directly or
	// through a callee, so a goroutine running it terminates when its
	// context/done channel is closed.
	CtxBound bool
	// CallsDone: the function calls (*sync.WaitGroup).Done, directly
	// or through a callee, so a goroutine running it is joinable via
	// the WaitGroup.
	CallsDone bool
	// BareSend: the function performs a channel send that is neither
	// select-guarded (a select with a receive case or a default
	// alongside it) nor aimed at a provably buffered channel (every
	// make() reaching the channel has constant cap >= 1), directly or
	// through a callee. A goroutine running such a function can wedge
	// forever on a dead receiver; sendblock consumes this bit.
	BareSend bool
	// The purity lattice (DESIGN §7): which classes of ambient state
	// the function reads, directly or through a callee. A cached
	// computation is a pure function of its key only when every
	// function reachable from it carries none of these bits (or the
	// read is provably folded into the key). The purity analyzer
	// consumes them; keycover and maporder share the same fact flow.
	//
	// ReadsTime: reads the wall clock (time.Now/Since/Until).
	ReadsTime bool
	// ReadsRand: draws from a nondeterministic RNG — the global
	// math/rand generator or crypto/rand.
	ReadsRand bool
	// ReadsEnv: reads ambient process state — environment variables,
	// hostname, pids/uids, working directory, or spawns a subprocess
	// (os/exec), whose behavior is ambient by construction.
	ReadsEnv bool
	// ReadsFS: reads file contents or metadata (os.Open/ReadFile/
	// Stat/ReadDir, filepath.Walk/Glob). Advisory on memoized paths —
	// content-addressed keys legitimately hash file bytes — but hard
	// on key derivations that do not.
	ReadsFS bool
	// ReadsGlobal: reads a package-level mutable variable of this
	// module (error sentinels and sync primitives excluded) — state a
	// cache key cannot see.
	ReadsGlobal bool
	// Acquires lists the lock classes the function may take,
	// transitively.
	Acquires []string
	// Edges are the held-while-acquiring pairs observed in this
	// function's body (including pairs completed through callees).
	Edges []LockEdge
}

// reads lists the purity-lattice fields in impureBits order: entry i
// is the field for bit 1<<i.
func (f *FuncFact) reads() []*bool {
	return []*bool{&f.ReadsTime, &f.ReadsRand, &f.ReadsEnv, &f.ReadsFS, &f.ReadsGlobal}
}

// flags lists every boolean fact — all transitive, so this is what the
// fixpoint ORs from callee into caller.
func (f *FuncFact) flags() []*bool {
	return append([]*bool{&f.Syncs, &f.Writes, &f.CtxBound, &f.CallsDone, &f.BareSend}, f.reads()...)
}

func (f *FuncFact) empty() bool {
	for _, p := range f.flags() {
		if *p {
			return false
		}
	}
	return len(f.Acquires) == 0 && len(f.Edges) == 0
}

// ambient returns the purity-lattice bits as a bitmask (see the
// impure* constants); zero means the function reads no ambient state.
func (f *FuncFact) ambient() impureBits {
	if f == nil {
		return 0
	}
	var b impureBits
	for i, p := range f.reads() {
		if *p {
			b |= 1 << i
		}
	}
	return b
}

// PackageFacts is every non-empty FuncFact of one package, keyed by
// the function's fully-qualified name (types.Func.FullName).
type PackageFacts struct {
	Funcs map[string]*FuncFact
}

// Fact returns the fact exported for a fully-qualified function name,
// or nil. Nil-safe.
func (pf *PackageFacts) Fact(key string) *FuncFact {
	if pf == nil {
		return nil
	}
	return pf.Funcs[key]
}

// sortedKeys returns m's keys sorted, so map iteration order never
// leaks into facts or findings.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// moduleDeps computes each path's transitive dependency closure,
// restricted to the given path set, sorted. Interprocedural analyzers
// see exactly this closure's facts. A package's closure strictly
// contains each of its dependencies' closures, so ordering paths by
// closure size (ties by path) is a deterministic import order.
func moduleDeps(paths []string, imports func(string) []string) map[string][]string {
	in := map[string]bool{}
	for _, p := range paths {
		in[p] = true
	}
	memo := map[string]map[string]bool{}
	var visit func(path string) map[string]bool
	visit = func(path string) map[string]bool {
		if got, ok := memo[path]; ok {
			return got
		}
		set := map[string]bool{}
		memo[path] = set // break unexpected cycles
		for _, imp := range imports(path) {
			if !in[imp] || imp == path {
				continue
			}
			set[imp] = true
			for dep := range visit(imp) {
				set[dep] = true
			}
		}
		return set
	}
	out := make(map[string][]string, len(paths))
	for _, p := range paths {
		out[p] = sortedKeys(visit(p))
	}
	return out
}

// callRef is one statically-resolved call to a module (or
// same-package) function.
type callRef struct {
	pkg string // callee's package path
	key string // callee's fully-qualified name
	pos token.Pos
}

// lockRegion is the span of one acquisition: from just after the Lock
// call to the matching straight-line unlock, or to the end of the
// enclosing statement list for deferred (or missing) unlocks.
type lockRegion struct {
	class      string
	start, end token.Pos
}

// rawFunc is the per-function collection the fixpoint runs over.
type rawFunc struct {
	fact    *FuncFact
	calls   []callRef
	regions []lockRegion
	acqs    []acqSite
}

// acqSite is one direct lock acquisition.
type acqSite struct {
	class string
	pos   token.Pos
}

// computePackageFacts derives one package's facts from its AST plus
// the facts of already-computed dependencies. A fixpoint over the
// package-local call graph propagates the transitive facts (Go
// packages are acyclic, but functions within one package are not).
func computePackageFacts(pkg *Package, modPath, modRoot string, deps map[string]*PackageFacts) *PackageFacts {
	caps := chanCaps(pkg)
	raws := map[string]*rawFunc{}
	var order []string
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			obj, ok := pkg.Info.Defs[fn.Name].(*types.Func)
			if !ok {
				continue
			}
			rf := collectRawFunc(pkg, modPath, fn.Body, caps)
			raws[obj.FullName()] = rf
			order = append(order, obj.FullName())
		}
	}
	sort.Strings(order)

	lookup := func(c callRef) *FuncFact {
		if rf, ok := raws[c.key]; ok && c.pkg == pkg.ImportPath {
			return rf.fact
		}
		return deps[c.pkg].Fact(c.key)
	}

	// Seed each function's Acquires with its direct acquisitions; the
	// fixpoint below adds the transitive ones.
	for _, key := range order {
		rf := raws[key]
		for _, a := range rf.acqs {
			if !slices.Contains(rf.fact.Acquires, a.class) {
				rf.fact.Acquires = append(rf.fact.Acquires, a.class)
			}
		}
	}

	// Propagate transitive facts to a fixpoint.
	for changed := true; changed; {
		changed = false
		for _, key := range order {
			rf := raws[key]
			f := rf.fact
			flags := f.flags()
			for _, c := range rf.calls {
				cf := lookup(c)
				if cf == nil {
					continue
				}
				for i, p := range cf.flags() {
					if *p && !*flags[i] {
						*flags[i], changed = true, true
					}
				}
				for _, a := range cf.Acquires {
					if !slices.Contains(f.Acquires, a) {
						f.Acquires = append(f.Acquires, a)
						changed = true
					}
				}
			}
		}
	}

	// With transitive Acquires settled, materialize the lock edges:
	// anything acquired (directly or via a call) inside a held region
	// is ordered after that region's lock.
	for _, key := range order {
		rf := raws[key]
		f := rf.fact
		seen := map[string]bool{}
		addEdge := func(from, to string, pos token.Pos) {
			ek := from + "\x00" + to
			if seen[ek] {
				return
			}
			seen[ek] = true
			p := pkg.Fset.Position(pos)
			f.Edges = append(f.Edges, LockEdge{
				From: from, To: to,
				File: relPath(modRoot, p.Filename), Line: p.Line,
			})
		}
		for _, reg := range rf.regions {
			for _, a := range rf.acqs {
				if a.class != reg.class && reg.start < a.pos && a.pos <= reg.end {
					addEdge(reg.class, a.class, a.pos)
				}
			}
			for _, c := range rf.calls {
				if !(reg.start < c.pos && c.pos <= reg.end) {
					continue
				}
				cf := lookup(c)
				if cf == nil {
					continue
				}
				for _, a := range cf.Acquires {
					addEdge(reg.class, a, c.pos)
				}
			}
		}
	}

	pf := &PackageFacts{Funcs: map[string]*FuncFact{}}
	for _, key := range order {
		if f := raws[key].fact; !f.empty() {
			pf.Funcs[key] = f
		}
	}
	return pf
}

// collectRawFunc gathers one function body's direct facts: calls,
// lock regions and acquisitions, and the sync/write/channel markers.
// Function literals are folded in (they run on the same goroutine
// when invoked inline) except goroutine bodies — a `go func(){…}()`
// neither syncs nor holds locks on the spawner's behalf; goroleak
// analyzes those bodies itself.
func collectRawFunc(pkg *Package, modPath string, body *ast.BlockStmt, caps map[*types.Var]int) *rawFunc {
	rf := &rawFunc{fact: &FuncFact{}}
	scanLockRegions(pkg, body, rf)
	collectFuncEvents(pkg, modPath, body, rf)
	rf.fact.BareSend = len(bareSends(pkg, body, caps)) > 0
	return rf
}

// collectFuncEvents walks the body (skipping goroutine literals)
// recording calls and boolean markers.
func collectFuncEvents(pkg *Package, modPath string, n ast.Node, rf *rawFunc) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			// The spawned body runs concurrently; its effects are not
			// the spawner's. Arguments to the call are still evaluated
			// here, but benchlint's targets never hide effects there.
			return false
		case *ast.SelectStmt:
			rf.fact.CtxBound = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				rf.fact.CtxBound = true
			}
		case *ast.RangeStmt:
			if t := pkg.Info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					rf.fact.CtxBound = true
				}
			}
		case *ast.CallExpr:
			classifyCall(pkg, modPath, n, rf)
		case *ast.Ident:
			if isMutableGlobalRead(pkg, modPath, n) {
				rf.fact.ReadsGlobal = true
			}
		}
		return true
	})
}

// moduleLocal reports whether tp is the package under analysis or
// another package of its module (fixtures have no module: modPath "").
func moduleLocal(pkg *Package, modPath string, tp *types.Package) bool {
	return tp == pkg.Types || modPath != "" && (tp.Path() == modPath || strings.HasPrefix(tp.Path(), modPath+"/"))
}

// isMutableGlobalRead reports whether the identifier uses a
// package-level mutable variable of this module — ambient state a
// cache key cannot capture. Error sentinels (write-once by
// convention) and sync primitives (coordination, not data) are
// excluded to keep the fact meaningful.
func isMutableGlobalRead(pkg *Package, modPath string, id *ast.Ident) bool {
	v, ok := pkg.Info.Uses[id].(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return false
	}
	if !moduleLocal(pkg, modPath, v.Pkg()) {
		return false
	}
	t := deref(v.Type())
	if t == nil {
		return false
	}
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Name() == "error" || (obj.Pkg() != nil && obj.Pkg().Path() == "sync") {
			return false
		}
	}
	if types.Implements(v.Type(), types.Universe.Lookup("error").Type().Underlying().(*types.Interface)) {
		return false
	}
	return true
}

// fileEffect classifies a direct standard-library call as writing
// bytes to an *os.File/io.Writer or fsyncing a file: the ground truth
// behind the Writes and Syncs facts, shared with walack.
func fileEffect(fn *types.Func) (writes, syncs bool) {
	switch fn.Pkg().Path() {
	case "os":
		switch fn.Name() {
		case "Sync":
			return false, true
		case "Write", "WriteString", "WriteAt":
			return true, false
		}
	case "io":
		return fn.Name() == "Write" || fn.Name() == "WriteString", false
	}
	return false, false
}

// classifyCall records one call expression's contribution: a direct
// sync/write marker, a WaitGroup.Done, or a statically-resolved
// module call for the fixpoint.
func classifyCall(pkg *Package, modPath string, call *ast.CallExpr, rf *rawFunc) {
	fn := calleeFunc(pkg.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	writes, syncs := fileEffect(fn)
	rf.fact.Writes = rf.fact.Writes || writes
	rf.fact.Syncs = rf.fact.Syncs || syncs
	switch fn.Pkg().Path() {
	case "io":
		return
	case "sync":
		if fn.Name() == "Done" {
			rf.fact.CallsDone = true
		}
		return
	}
	if bits := ambientCallBits(fn); bits != 0 {
		for i, p := range rf.fact.reads() {
			if bits&(1<<i) != 0 {
				*p = true
			}
		}
		return
	}
	if fn.Pkg().Path() == "os" {
		return
	}
	if moduleLocal(pkg, modPath, fn.Pkg()) {
		rf.calls = append(rf.calls, callRef{pkg: fn.Pkg().Path(), key: fn.FullName(), pos: call.Pos()})
	}
}

// scanLockRegions finds every Lock/RLock with a resolvable lock class
// in the body's statement lists (blocks and case/comm clause bodies)
// and records the region it is held over: up to the straight-line
// unlock in the same list, or to the end of that list for deferred (or
// missing) unlocks. Function literals are skipped (their locks are
// their own). The class is the owning named type plus field name
// (`pkg.Type.field`), or the package path plus variable name for
// package-level locks; locals have no class — their ordering is
// instance-specific, which a class graph cannot judge.
func scanLockRegions(pkg *Package, body *ast.BlockStmt, rf *rawFunc) {
	ownFuncNodes(body, func(n ast.Node) bool {
		var stmts []ast.Stmt
		switch n := n.(type) {
		case *ast.BlockStmt:
			stmts = n.List
		case *ast.CaseClause:
			stmts = n.Body
		case *ast.CommClause:
			stmts = n.Body
		}
		for i, stmt := range stmts {
			recv, method := syncLockStmt(pkg.Info, stmt)
			if method != "Lock" && method != "RLock" {
				continue
			}
			class := lockClass(pkg, recv)
			if class == "" {
				continue
			}
			rf.acqs = append(rf.acqs, acqSite{class: class, pos: stmt.Pos()})
			end := n.End()
			for _, next := range stmts[i+1:] {
				if r2, m2 := syncLockStmt(pkg.Info, next); m2 == unlockFor(method) && types.ExprString(r2) == types.ExprString(recv) {
					end = next.Pos()
					break
				}
			}
			rf.regions = append(rf.regions, lockRegion{class: class, start: stmt.End(), end: end})
		}
		return true
	})
}

// lockClass names the lock class of the expression the Lock method is
// called on.
func lockClass(pkg *Package, e ast.Expr) string {
	switch e := e.(type) {
	case *ast.SelectorExpr:
		// s.mu, c.r.mu: class = owning named type + field.
		if t := deref(pkg.Info.TypeOf(e.X)); t != nil {
			if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
				return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + e.Sel.Name
			}
		}
	case *ast.Ident:
		// A package-level lock var; locals have no class.
		if obj := pkg.Info.Uses[e]; obj != nil && obj.Pkg() != nil {
			if obj.Parent() == obj.Pkg().Scope() {
				return obj.Pkg().Path() + "." + obj.Name()
			}
		}
	}
	return ""
}

func deref(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}
