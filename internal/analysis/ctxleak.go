package analysis

import (
	"go/ast"
	"go/types"
)

// CtxLeak enforces cancel-function discipline as a row of the
// obligation table (obligation.go, DESIGN §7): every `ctx, cancel :=
// context.WithCancel/WithTimeout/WithDeadline(…)` must invoke cancel
// on every path from the
// acquisition to function exit — `defer cancel()` (the house style)
// satisfies immediately, an explicit call or handing the cancel func
// off (returned, stored, passed along) satisfies the path it is on.
// A leaked cancel pins the context's timer and done-channel machinery
// for the parent's whole lifetime; under the federation ops plane
// that is a per-request leak.
var CtxLeak = &Analyzer{
	Name: "ctxleak",
	Doc:  "context cancel functions run on every path (defer cancel() recognized)",
	// Every package that builds contexts: the engine's timeout
	// bracket, the federation client/follower, the ops CLIs.
	Scope: []string{
		"internal/engine", "internal/core", "internal/ci",
		"internal/resultstore", "internal/resultsd", "internal/resultshard",
		"internal/loadgen", "internal/telemetry",
		"cmd/benchpark", "cmd/benchlint",
	},
	EmitsFixes: true,
	Run:        obligationRule(ctxLeakRule).run,
}

// contextCancelCall matches context.WithCancel/WithTimeout/
// WithDeadline, returning the constructor's name.
func contextCancelCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return "", false
	}
	switch fn.Name() {
	case "WithCancel", "WithTimeout", "WithDeadline":
		return fn.Name(), true
	}
	return "", false
}

// ctxLeakRule is ctxleak's row of the obligation table: a `ctx,
// cancel := context.With…` assignment owes a call of cancel, or its
// hand-off (returned, stored, passed along).
func ctxLeakRule(pass *Pass, stmt ast.Stmt) *obligation {
	info := pass.TypesInfo()
	as, ok := stmt.(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 2 || len(as.Rhs) != 1 {
		return nil
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return nil
	}
	ctor, ok := contextCancelCall(info, call)
	if !ok {
		return nil
	}
	cancel, ok := as.Lhs[1].(*ast.Ident)
	if !ok {
		return nil
	}
	if cancel.Name == "_" {
		return &obligation{discarded: "the cancel function from context." + ctor + " is discarded; the context can never be released early — keep it and defer cancel()"}
	}
	cancelObj := info.ObjectOf(cancel)
	if cancelObj == nil {
		return nil
	}
	return &obligation{
		discharged: func(n ast.Node) bool {
			return nodeCallsObj(n, info, cancelObj) || nodeTransfersObj(n, info, cancelObj)
		},
		message:    cancel.Name + " from context." + ctor + " is not called on every path to return; defer it immediately after the acquisition (a leaked cancel pins the context's timer and goroutine)",
		fixMessage: "defer " + cancel.Name + "() immediately after context." + ctor,
		fixText:    "defer " + cancel.Name + "()",
	}
}

// nodeCallsObj reports whether the CFG node contains a direct call of
// the object (`cancel()`), including inside a defer.
func nodeCallsObj(n ast.Node, info *types.Info, obj types.Object) bool {
	return nodeContainsCall(n, func(call *ast.CallExpr) bool {
		id, ok := call.Fun.(*ast.Ident)
		return ok && info.ObjectOf(id) == obj
	})
}
