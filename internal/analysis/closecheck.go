package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// CloseCheck enforces resource-release discipline as a row of the
// obligation table (obligation.go, DESIGN §7): every acquired closer
// — files, tickers, timers, listeners, HTTP response bodies — is
// released on every path from acquisition
// to function exit, or ownership-transferred (stored in a struct,
// returned, passed to a callee, captured by a closure). The
// error-return arm of the acquisition's own `if err != nil` guard is
// exempt: the resource was never handed out there. Paths that die in
// panic/os.Exit are exempt too.
//
// The release that counts depends on the resource: Close for files
// and listeners, Stop for tickers and timers (receiving from a
// timer's C also drains it), resp.Body.Close for HTTP responses.
var CloseCheck = &Analyzer{
	Name: "closecheck",
	Run:  obligationRule(closeCheckRule).run,
}

// closerKind describes what kind of resource an acquisition returns
// and how it is released.
type closerKind int

const (
	closerFile   closerKind = iota // Close()
	closerTicker                   // Stop()
	closerTimer                    // Stop() or a receive from .C
	closerBody                     // .Body.Close()
)

// closerKinds spells each kind for the diagnostics: the release
// method, the resource noun, the release's past participle, and the
// field of the resource the method is called on, if any.
var closerKinds = [...]struct{ release, what, done, field string }{
	closerFile:   {"Close", "closer", "closed", ""},
	closerTicker: {"Stop", "ticker", "stopped", ""},
	closerTimer:  {"Stop", "timer", "stopped", ""},
	closerBody:   {"Close", "response body", "closed", ".Body"},
}

func (k closerKind) release() string { return closerKinds[k].release }

// closerAcquisition classifies a call as a resource acquisition.
// hasErr reports whether the call's second result is the error paired
// with the resource.
func closerAcquisition(info *types.Info, call *ast.CallExpr) (kind closerKind, hasErr, ok bool) {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return 0, false, false
	}
	if isSeam(fn.Pkg()) && (fn.Name() == "OpenAppend" || fn.Name() == "CreateTemp") {
		return closerFile, true, true
	}
	switch fn.Pkg().Path() {
	case "os":
		switch fn.Name() {
		case "Open", "Create", "OpenFile", "CreateTemp":
			return closerFile, true, true
		}
	case "time":
		switch fn.Name() {
		case "NewTicker":
			return closerTicker, false, true
		case "NewTimer":
			return closerTimer, false, true
		}
	case "net":
		switch fn.Name() {
		case "Listen", "Dial", "DialTimeout":
			return closerFile, true, true
		}
	case "net/http":
		switch fn.Name() {
		case "Get", "Post", "PostForm", "Head", "Do":
			return closerBody, true, true
		}
	}
	return 0, false, false
}

// closeCheckRule is closecheck's row of the obligation table: an
// acquisition assigned to a named variable owes that kind's release,
// or an ownership transfer; the error-return arm of its own `if err !=
// nil` guard is pruned.
func closeCheckRule(pass *Pass, stmt ast.Stmt) *obligation {
	info := pass.TypesInfo()
	as, ok := stmt.(*ast.AssignStmt)
	if !ok || len(as.Rhs) != 1 {
		return nil
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return nil
	}
	kind, hasErr, ok := closerAcquisition(info, call)
	if !ok {
		return nil
	}
	if hasErr && len(as.Lhs) != 2 || !hasErr && len(as.Lhs) != 1 {
		return nil
	}
	res, ok := as.Lhs[0].(*ast.Ident)
	if !ok || res.Name == "_" {
		return nil // discarded acquisitions are another analyzer's business
	}
	resObj := info.ObjectOf(res)
	if resObj == nil {
		return nil
	}
	o := &obligation{
		discharged: func(n ast.Node) bool {
			return nodeReleasesCloser(n, info, resObj, kind) || nodeTransfersObj(n, info, resObj)
		},
		message: fmt.Sprintf("%s %s is not %s on every path to return; defer %s%s.%s() (or transfer ownership) so no exit leaks it",
			closerKinds[kind].what, res.Name, closerKinds[kind].done, res.Name, closerKinds[kind].field, kind.release()),
	}
	if hasErr {
		if errIdent, isIdent := as.Lhs[1].(*ast.Ident); isIdent && errIdent.Name != "_" {
			o.prune = errGuardPruner(info, info.ObjectOf(errIdent))
		}
	}
	return o
}

// nodeReleasesCloser matches the release action for one resource
// object: res.Close()/res.Stop() (per kind), res.Body.Close() for
// responses, and a receive from res.C for timers.
func nodeReleasesCloser(n ast.Node, info *types.Info, obj types.Object, kind closerKind) bool {
	objIs := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && info.ObjectOf(id) == obj
	}
	if kind == closerBody {
		return nodeContainsCall(n, func(call *ast.CallExpr) bool {
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Close" {
				return false
			}
			body, ok := sel.X.(*ast.SelectorExpr)
			return ok && body.Sel.Name == "Body" && objIs(body.X)
		})
	}
	if nodeContainsCall(n, func(call *ast.CallExpr) bool {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		return ok && sel.Sel.Name == kind.release() && objIs(sel.X)
	}) {
		return true
	}
	if kind == closerTimer {
		// `<-t.C` (typically a select case) consumes the single fire:
		// the timer resources are reclaimed once delivered.
		return nodeContains(n, func(m ast.Node) bool {
			un, ok := m.(*ast.UnaryExpr)
			if !ok || un.Op != token.ARROW {
				return false
			}
			sel, ok := un.X.(*ast.SelectorExpr)
			return ok && sel.Sel.Name == "C" && objIs(sel.X)
		})
	}
	return false
}
