package analysis

import (
	"go/ast"
	"go/types"
)

// Locks enforces the buildcache/engine locking discipline: a
// Lock/RLock acquired in a function is released on every return path —
// either by an immediate defer (the house style) or by an explicit
// unlock that no return can bypass. It is a row of the obligation
// table (obligation.go, DESIGN §7). Sync primitives copied by value
// are `go vet`'s copylocks check, which verify.sh runs first.
var Locks = &Analyzer{
	Name:  "locks",
	Doc:   "every Lock has an Unlock on every return path",
	Scope: []string{"internal/buildcache", "internal/engine", "internal/resultstore", "internal/resultsd", "internal/analysis", "cmd/benchlint", "internal/resultshard", "internal/loadgen"},
	Run:   obligationRule(locksRule).run,
}

// locksRule is locks' row of the obligation table: a Lock/RLock
// statement owes the matching unlock on the same receiver expression.
// No transfer rule (a lock handed to another function to release is
// exactly what the discipline forbids) and no fix.
func locksRule(pass *Pass, stmt ast.Stmt) *obligation {
	recvExpr, method := syncLockStmt(pass.TypesInfo(), stmt)
	if method != "Lock" && method != "RLock" {
		return nil
	}
	recv, unlock := types.ExprString(recvExpr), unlockFor(method)
	return &obligation{
		discharged: func(n ast.Node) bool {
			return nodeContainsCall(n, func(call *ast.CallExpr) bool {
				r, m := syncLockCall(pass.TypesInfo(), call)
				return m == unlock && types.ExprString(r) == recv
			})
		},
		message: recv + "." + method + " is not released on every return path; defer " + recv + "." + unlock + "() immediately after acquiring",
	}
}

// syncLockStmt matches an ExprStmt calling Lock/RLock/Unlock/RUnlock
// on a sync primitive; see syncLockCall.
func syncLockStmt(info *types.Info, stmt ast.Stmt) (recv ast.Expr, method string) {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return nil, ""
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return nil, ""
	}
	return syncLockCall(info, call)
}

// syncLockCall matches a call of Lock/RLock/Unlock/RUnlock on a sync
// primitive (directly or through an embedded field), returning the
// receiver expression and the method name, or nil, "".
func syncLockCall(info *types.Info, call *ast.CallExpr) (recv ast.Expr, method string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, ""
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
		return sel.X, fn.Name()
	}
	return nil, ""
}

func unlockFor(method string) string {
	if method == "RLock" {
		return "RUnlock"
	}
	return "Unlock"
}
