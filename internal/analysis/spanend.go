package analysis

import (
	"go/ast"
	"go/types"
)

// SpanEnd enforces the telemetry span discipline: every span returned
// by a StartSpan call is Ended on every return path — either by an
// immediate defer (the house style) or by explicit End calls no
// return can bypass — and never discarded outright. A span that is
// not ended never reaches the tracer, so it silently vanishes from
// every trace export.
//
// The check is a row of the obligation table (obligation.go, DESIGN
// §7): "Ended on every return path" is MustReachOnAllPaths from the
// StartSpan to function exit, which also sees an End in one switch arm
// while another arm returns, and spans opened in nested blocks and
// never closed anywhere.
var SpanEnd = &Analyzer{
	Name:       "spanend",
	Doc:        "every StartSpan has a matching End on every return path",
	Scope:      []string{"internal/engine", "internal/core", "internal/ci", "internal/install", "internal/telemetry", "internal/resultstore", "internal/resultsd"},
	EmitsFixes: true,
	Run:        obligationRule(spanEndRule).run,
}

// spanEndRule is spanend's row of the obligation table: a StartSpan
// assignment owes an End on the span. Span.End is documented
// idempotent ("Ending twice is a no-op"), so the offered defer is safe
// even when an explicit End already covers some paths.
func spanEndRule(_ *Pass, stmt ast.Stmt) *obligation {
	span, ok := startSpanAssign(stmt)
	if !ok {
		return nil
	}
	if span == "_" {
		return &obligation{discarded: "StartSpan's span is discarded; it can never be Ended and will be missing from the trace"}
	}
	return &obligation{
		discharged: func(n ast.Node) bool {
			return nodeContainsCall(n, func(call *ast.CallExpr) bool { return endCallExpr(call, span) })
		},
		message:    "span " + span + " is not Ended on every return path; defer " + span + ".End() immediately after StartSpan",
		fixMessage: "defer " + span + ".End() immediately after StartSpan",
		fixText:    "defer " + span + ".End()",
	}
}

// startSpanAssign matches `ctx, s := ....StartSpan(...)` (or a plain
// StartSpan call), returning the span variable's name.
func startSpanAssign(stmt ast.Stmt) (span string, ok bool) {
	as, isAssign := stmt.(*ast.AssignStmt)
	if !isAssign || len(as.Lhs) != 2 || len(as.Rhs) != 1 {
		return "", false
	}
	call, isCall := as.Rhs[0].(*ast.CallExpr)
	if !isCall {
		return "", false
	}
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if fun.Sel.Name != "StartSpan" {
			return "", false
		}
	case *ast.Ident:
		if fun.Name != "StartSpan" {
			return "", false
		}
	default:
		return "", false
	}
	id, isIdent := as.Lhs[1].(*ast.Ident)
	if !isIdent {
		return "", false
	}
	return id.Name, true
}

func endCallExpr(e ast.Expr, span string) bool {
	call, isCall := e.(*ast.CallExpr)
	if !isCall {
		return false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel || sel.Sel.Name != "End" {
		return false
	}
	return types.ExprString(sel.X) == span
}
