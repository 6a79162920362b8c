package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoroLeak enforces the goroutine-lifetime discipline: every
// goroutine the module spawns must be joinable or bounded — it calls
// (*sync.WaitGroup).Done (the spawner Waits), or it blocks on channel
// state (a select, a receive, or a range over a channel, which is how
// context cancellation and done-channel shutdown reach it). A goroutine with neither runs until process
// exit: a leak under the engine's bounded-concurrency contract and a
// shutdown hazard for the resultsd service.
//
// The check is interprocedural through facts: `go s.compactor()` is
// fine because compactor's fact says it selects on the store's done
// channel, wherever that function lives.
//
// Goroutine literals are checked on their CFG (DESIGN §7): bounded
// means every loop in the body passes a blocking channel operation
// (so cancellation can always reach it), or WaitGroup.Done runs on
// every exit path. The old any-marker-anywhere scan accepted a
// receive on one branch while another branch span forever; the cycle
// check closes that false negative.
var GoroLeak = &Analyzer{
	Name: "goroleak",
	Run:  runGoroLeak,
}

func runGoroLeak(pass *Pass) {
	for _, file := range pass.Files() {
		ast.Inspect(file, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if !goroutineBounded(pass, g.Call) {
				pass.Reportf(g.Pos(),
					"goroutine is neither joined via a WaitGroup nor bounded by a ctx/done channel; it can outlive its spawner")
			}
			return true
		})
	}
}

// goroutineBounded reports whether the spawned call is provably
// joined or bounded: a function literal whose body (or a callee, via
// facts) waits on channel state or calls WaitGroup.Done, or a named
// function whose fact says the same.
func goroutineBounded(pass *Pass, call *ast.CallExpr) bool {
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		return funcLitBounded(pass, lit)
	}
	if f := calleeFact(pass, call); f != nil {
		return f.CtxBound || f.CallsDone
	}
	return false
}

// funcLitBounded checks a goroutine literal on its CFG. Bounded
// means either WaitGroup.Done runs on every exit path (the spawner
// Waits, so the goroutine cannot outlive it — counter-bounded worker
// loops included), or the body blocks on channel state: every cycle
// passes a blocking channel operation (a select, a receive, a range
// over a channel, or a call to a CtxBound callee), so no spin path
// can escape cancellation.
func funcLitBounded(pass *Pass, lit *ast.FuncLit) bool {
	c := BuildCFG(pass.TypesInfo(), lit.Body)
	isDone := func(n ast.Node) bool {
		return nodeContainsCall(n, func(call *ast.CallExpr) bool {
			if isWaitGroupDone(pass, call) {
				return true
			}
			f := calleeFact(pass, call)
			return f != nil && f.CallsDone
		})
	}
	// ContainsNode guards the vacuous case: a body that never exits
	// satisfies any all-paths query, but without a real Done call it
	// is not joined.
	if c.ContainsNode(isDone) && c.MustReachOnAllPaths(nil, PathQuery{Satisfied: isDone}) {
		return true
	}
	blocking := func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectStmt:
			return true
		case *ast.RangeStmt:
			if t := pass.TypesInfo().TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					return true
				}
			}
		}
		return nodeContains(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.UnaryExpr:
				return m.Op == token.ARROW
			case *ast.CallExpr:
				f := calleeFact(pass, m)
				return f != nil && f.CtxBound
			}
			return false
		})
	}
	// Not joined: channel-bounded only if a blocking node exists and
	// no cycle can spin past one.
	return c.ContainsNode(blocking) && c.EveryCycleContains(blocking)
}

// isWaitGroupDone matches a (*sync.WaitGroup).Done call.
func isWaitGroupDone(pass *Pass, call *ast.CallExpr) bool {
	fn := calleeFunc(pass.TypesInfo(), call)
	return fn != nil && fn.Name() == "Done" && fn.Pkg() != nil && fn.Pkg().Path() == "sync"
}

// calleeFact resolves a static call to its exported fact, looking in
// this package's facts first and then the imported fact sets.
func calleeFact(pass *Pass, call *ast.CallExpr) *FuncFact {
	fn := calleeFunc(pass.TypesInfo(), call)
	if fn == nil || fn.Pkg() == nil {
		return nil
	}
	if fn.Pkg() == pass.Pkg.Types {
		return pass.Facts.Fact(fn.FullName())
	}
	return pass.AllFacts[fn.Pkg().Path()].Fact(fn.FullName())
}
