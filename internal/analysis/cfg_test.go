package analysis

import (
	"go/ast"
	"path/filepath"
	"testing"
)

// loadCFGFixture loads the labelled control-flow shapes once per
// test; each helper below digs a function or probe tag out of it.
func loadCFGFixture(t *testing.T) *Package {
	t.Helper()
	pkg, err := LoadDir(filepath.Join("testdata", "cfg"))
	if err != nil {
		t.Fatalf("loading cfg fixture: %v", err)
	}
	return pkg
}

func fixtureFunc(t *testing.T, pkg *Package, name string) *ast.FuncDecl {
	t.Helper()
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Name.Name == name {
				return fn
			}
		}
	}
	t.Fatalf("function %s not in fixture", name)
	return nil
}

// probeCall finds the probe("<tag>") call inside fn.
func probeCall(t *testing.T, fn *ast.FuncDecl, tag string) ast.Node {
	t.Helper()
	var found ast.Node
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if isProbeCall(n, tag) {
			found = n
			return false
		}
		return true
	})
	if found == nil {
		t.Fatalf("probe(%q) not in %s", tag, fn.Name.Name)
	}
	return found
}

func isProbeCall(n ast.Node, tag string) bool {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "probe" || len(call.Args) != 1 {
		return false
	}
	lit, ok := call.Args[0].(*ast.BasicLit)
	return ok && lit.Value == `"`+tag+`"`
}

// nodeHasProbe matches any CFG node containing probe(tag) (header
// nodes do not "contain" their bodies; see nodeContains).
func nodeHasProbe(tag string) func(ast.Node) bool {
	return func(n ast.Node) bool {
		return nodeContains(n, func(m ast.Node) bool { return isProbeCall(m, tag) })
	}
}

// The goto/labeled-break/select/fallthrough shapes are pinned through
// the two queries analyzers call. With `first` the function's first
// statement, "a dominates b" is !ReachesWithout(first, b, a) — no path
// gets to b around a — and "a postdominates b" is MustReachOnAllPaths
// from b with a as the satisfying node.

func TestCFGGotoDominance(t *testing.T) {
	pkg := loadCFGFixture(t)
	fn := fixtureFunc(t, pkg, "gotoLoop")
	c := BuildCFG(pkg.Info, fn.Body)
	entry := probeCall(t, fn, "entry")
	header := probeCall(t, fn, "header")
	done := probeCall(t, fn, "done")

	if c.ReachesWithout(entry, done, nodeHasProbe("header")) {
		t.Error("the goto target sits on every path to done, back edge included")
	}
	if !c.ReachesWithout(entry, header, nodeHasProbe("done")) {
		t.Error("done must not sit between entry and the goto loop header")
	}
	if !c.ReachesWithout(header, header, nodeHasProbe("done")) {
		t.Error("the goto back edge re-enters the header without passing done")
	}
	if !c.MustReachOnAllPaths(entry, PathQuery{Satisfied: nodeHasProbe("done")}) {
		t.Error("every path from entry must reach done")
	}
	if !c.MustReachOnAllPaths(nil, PathQuery{Satisfied: nodeHasProbe("header")}) {
		t.Error("every path from function entry passes the goto target")
	}
}

func TestCFGLabeledBreak(t *testing.T) {
	pkg := loadCFGFixture(t)
	fn := fixtureFunc(t, pkg, "labeledBreak")
	c := BuildCFG(pkg.Info, fn.Body)
	start := probeCall(t, fn, "start")
	hit := probeCall(t, fn, "hit")
	after := probeCall(t, fn, "after")

	if !c.MustReachOnAllPaths(start, PathQuery{Satisfied: nodeHasProbe("after")}) {
		t.Error("every exit path passes after: both loop exit and break outer land there")
	}
	if !c.ReachesWithout(start, after, nodeHasProbe("hit")) {
		t.Error("the normal loop exit reaches after around hit")
	}
	if !c.ReachesWithout(hit, after, nodeHasProbe("inner")) {
		t.Error("break outer leaves both loops: hit reaches after without another inner iteration")
	}
	if c.MustReachOnAllPaths(start, PathQuery{Satisfied: nodeHasProbe("hit")}) {
		t.Error("hit is not on every path")
	}
}

func TestCFGSelect(t *testing.T) {
	pkg := loadCFGFixture(t)
	fn := fixtureFunc(t, pkg, "selectShape")
	c := BuildCFG(pkg.Info, fn.Body)
	before := probeCall(t, fn, "before")
	recv := probeCall(t, fn, "recv")
	dcase := probeCall(t, fn, "dcase")
	joined := probeCall(t, fn, "joined")

	if !c.ReachesWithout(before, recv, nodeHasProbe("dcase")) || !c.ReachesWithout(before, dcase, nodeHasProbe("recv")) {
		t.Error("the select head branches to each comm clause independently")
	}
	if c.ReachesWithout(before, joined, nodeHasProbe("dcase")) {
		t.Error("with recv returning early, dcase is the only way into the join")
	}
	if c.ReachesWithout(recv, joined, func(ast.Node) bool { return false }) {
		t.Error("the early-return clause must not reach the join")
	}
	if c.MustReachOnAllPaths(before, PathQuery{Satisfied: nodeHasProbe("joined")}) {
		t.Error("the early-return clause bypasses joined")
	}
}

func TestCFGSwitchFallthrough(t *testing.T) {
	pkg := loadCFGFixture(t)
	fn := fixtureFunc(t, pkg, "switchFall")
	c := BuildCFG(pkg.Info, fn.Body)
	sw := probeCall(t, fn, "sw")
	one := probeCall(t, fn, "one")
	two := probeCall(t, fn, "two")

	if !c.MustReachOnAllPaths(sw, PathQuery{Satisfied: nodeHasProbe("end")}) {
		t.Error("every arm of the switch (default present) lands on end")
	}
	if !c.ReachesWithout(sw, two, nodeHasProbe("one")) {
		t.Error("case 2 is reachable directly, around one")
	}
	if !c.MustReachOnAllPaths(one, PathQuery{Satisfied: nodeHasProbe("two")}) {
		t.Error("fallthrough forces every path from one through two")
	}
	if c.MustReachOnAllPaths(sw, PathQuery{Satisfied: nodeHasProbe("two")}) {
		t.Error("the default arm bypasses two")
	}
}

func TestCFGNoreturnExemptsPath(t *testing.T) {
	pkg := loadCFGFixture(t)
	fn := fixtureFunc(t, pkg, "panicPath")
	c := BuildCFG(pkg.Info, fn.Body)
	p0 := probeCall(t, fn, "p0")

	if !c.MustReachOnAllPaths(p0, PathQuery{Satisfied: nodeHasProbe("p1")}) {
		t.Error("the panic arm is exempt, the surviving path reaches p1")
	}
}

func TestCFGDeferSatisfiesPath(t *testing.T) {
	pkg := loadCFGFixture(t)
	fn := fixtureFunc(t, pkg, "deferShape")
	c := BuildCFG(pkg.Info, fn.Body)
	d0 := probeCall(t, fn, "d0")

	if !c.MustReachOnAllPaths(d0, PathQuery{Satisfied: nodeHasProbe("cleanup")}) {
		t.Error("a defer satisfies every path from its registration point")
	}
}

func TestCFGErrGuardPruning(t *testing.T) {
	pkg := loadCFGFixture(t)
	fn := fixtureFunc(t, pkg, "guardShape")
	c := BuildCFG(pkg.Info, fn.Body)

	var acq *ast.AssignStmt
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == 2 {
			acq = as
		}
		return true
	})
	if acq == nil {
		t.Fatal("no 2-LHS acquisition in guardShape")
	}
	errObj := pkg.Info.ObjectOf(acq.Lhs[1].(*ast.Ident))
	closeMatch := func(n ast.Node) bool {
		return nodeContainsCall(n, func(call *ast.CallExpr) bool {
			sel, ok := call.Fun.(*ast.SelectorExpr)
			return ok && sel.Sel.Name == "close"
		})
	}
	if c.MustReachOnAllPaths(acq, PathQuery{Satisfied: closeMatch}) {
		t.Error("without pruning, the err-return arm skips close")
	}
	if !c.MustReachOnAllPaths(acq, PathQuery{
		Satisfied: closeMatch,
		PruneEdge: errGuardPruner(pkg.Info, errObj),
	}) {
		t.Error("with the err != nil arm pruned, all surviving paths close")
	}
}

func TestCFGReachesWithout(t *testing.T) {
	pkg := loadCFGFixture(t)

	fn := fixtureFunc(t, pkg, "reachShape")
	c := BuildCFG(pkg.Info, fn.Body)
	if !c.ReachesWithout(probeCall(t, fn, "w"), probeCall(t, fn, "ret"), nodeHasProbe("sync")) {
		t.Error("the else arm reaches ret with no sync barrier")
	}

	fn2 := fixtureFunc(t, pkg, "reachBlocked")
	c2 := BuildCFG(pkg.Info, fn2.Body)
	if c2.ReachesWithout(probeCall(t, fn2, "w2"), probeCall(t, fn2, "ret2"), nodeHasProbe("sync2")) {
		t.Error("the straight-line sync blocks every path to ret2")
	}
}

func TestCFGEveryCycleContains(t *testing.T) {
	pkg := loadCFGFixture(t)

	isSelect := func(n ast.Node) bool {
		_, ok := n.(*ast.SelectStmt)
		return ok
	}

	fn := fixtureFunc(t, pkg, "cycles")
	c := BuildCFG(pkg.Info, fn.Body)
	if !c.EveryCycleContains(isSelect) {
		t.Error("the only cycle runs through the select")
	}

	fn2 := fixtureFunc(t, pkg, "spin")
	c2 := BuildCFG(pkg.Info, fn2.Body)
	if c2.EveryCycleContains(isSelect) {
		t.Error("the spin loop has a cycle with no blocking node")
	}
}
