package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// obligation.go is the one implementation of "X acquired ⇒ Y on every
// path to return, else offer `defer Y`" (DESIGN §7). spanend,
// ctxleak, closecheck and locks are rows over it: a row recognizes
// its acquisition statement and says what that acquisition owes; the
// engine walks every function body, asks the body's CFG whether the
// debt is paid on every path from the acquisition to exit
// (MustReachOnAllPaths), and builds the defer-insertion fix.

// obligation is what one matched acquisition owes.
type obligation struct {
	// discarded, when set, is reported in place of a path check: the
	// acquired value was assigned to `_`, so nothing can release it.
	discarded string
	// discharged reports whether a CFG node pays the debt on its path:
	// the release call (deferred or not) or, for rows with a transfer
	// rule, handing the value to another owner (nodeTransfersObj).
	discharged func(ast.Node) bool
	// prune exempts branch arms on which nothing was acquired
	// (errGuardPruner); nil prunes nothing.
	prune func(cond ast.Expr, branch bool) bool
	// message is the finding when some path returns undischarged.
	message string
	// fixText is the `defer …` statement to insert and fixMessage its
	// description; an empty fixText offers no fix.
	fixMessage, fixText string
	// afterGuard places the defer after the `if guardErr != nil { …
	// return }` statement that directly follows the acquisition, so a
	// nil resource is never deferred on; without that exact guard no
	// fix is offered.
	afterGuard bool
	guardErr   types.Object
}

// obligationRule is one row's acquisition matcher: nil when stmt
// acquires nothing the row tracks.
type obligationRule func(pass *Pass, stmt ast.Stmt) *obligation

// run checks every acquisition the rule matches, in every function
// body of the package (literals are their own functions).
func (rule obligationRule) run(pass *Pass) {
	for _, file := range pass.Files() {
		forEachFuncBody(file, func(body *ast.BlockStmt) {
			var c *CFG // lazy: most functions acquire nothing
			ownFuncNodes(body, func(n ast.Node) bool {
				stmt, ok := n.(ast.Stmt)
				if !ok {
					return true
				}
				o := rule(pass, stmt)
				if o == nil {
					return true
				}
				if o.discarded != "" {
					pass.Reportf(stmt.Pos(), "%s", o.discarded)
					return true
				}
				if c == nil {
					c = BuildCFG(pass.TypesInfo(), body)
				}
				if !c.MustReachOnAllPaths(stmt, PathQuery{Satisfied: o.discharged, PruneEdge: o.prune}) {
					pass.ReportFix(stmt.Pos(), deferFix(pass, body, stmt, o), "%s", o.message)
				}
				return true
			})
		})
	}
}

// deferFix inserts the obligation's defer when the placement is
// unambiguous: the acquisition is a direct statement of a block (not
// an if-init, not a case-clause statement).
func deferFix(pass *Pass, body *ast.BlockStmt, stmt ast.Stmt, o *obligation) []Fix {
	if o.fixText == "" {
		return nil
	}
	blk, idx := stmtContext(body, stmt)
	if blk == nil {
		return nil
	}
	at := stmt.End()
	if o.afterGuard {
		if o.guardErr == nil || idx+1 >= len(blk.List) {
			return nil
		}
		guard, ok := blk.List[idx+1].(*ast.IfStmt)
		if !ok || guard.Init != nil || guard.Else != nil || len(guard.Body.List) == 0 {
			return nil
		}
		if op, okNil := isNilCheck(pass.TypesInfo(), guard.Cond, o.guardErr); !okNil || op != token.NEQ {
			return nil
		}
		if _, returns := guard.Body.List[len(guard.Body.List)-1].(*ast.ReturnStmt); !returns {
			return nil
		}
		at = guard.End()
	}
	return []Fix{{Message: o.fixMessage, Edits: []TextEdit{pass.editReplace(at, at, "\n"+o.fixText)}}}
}

// forEachFuncBody invokes fn once per function body in the file:
// every FuncDecl and every function literal. Literals are their own
// functions with their own CFGs; scans inside one body must skip
// nested literals (ownFuncNodes does).
func forEachFuncBody(file *ast.File, fn func(body *ast.BlockStmt)) {
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				fn(n.Body)
			}
		case *ast.FuncLit:
			fn(n.Body)
		}
		return true
	})
}

// ownFuncNodes walks the nodes of one function body without
// descending into nested function literals.
func ownFuncNodes(body *ast.BlockStmt, visit func(ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n == nil {
			return true
		}
		return visit(n)
	})
}

// stmtContext locates stmt as a direct element of some block
// statement list inside body (not an if-init, not inside a nested
// function literal), so a `defer …` can be inserted right after it.
func stmtContext(body *ast.BlockStmt, stmt ast.Stmt) (*ast.BlockStmt, int) {
	var blk *ast.BlockStmt
	idx := -1
	ownFuncNodes(body, func(n ast.Node) bool {
		if blk != nil {
			return false
		}
		b, ok := n.(*ast.BlockStmt)
		if !ok {
			return true
		}
		for i, s := range b.List {
			if s == stmt {
				blk, idx = b, i
				return false
			}
		}
		return true
	})
	return blk, idx
}

// nodeTransfersObj is the shared transfer rule: it reports whether
// the CFG node hands ownership of obj to someone else — obj (or
// obj.Body) passed as a call argument, returned, stored via
// assignment, sent on a channel, placed in a composite literal,
// address-taken, or captured by a function literal/go statement.
// Reads like `f.Name()` or `res == nil` are uses, not transfers.
func nodeTransfersObj(n ast.Node, info *types.Info, obj types.Object) bool {
	transferred := false
	var stack []ast.Node
	ast.Inspect(n, func(m ast.Node) bool {
		if m == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if transferred {
			return false
		}
		// A closure or spawned goroutine that mentions obj captures
		// it; assume the capture takes responsibility.
		switch m.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			if usesObj(m, info, obj) {
				transferred = true
			}
			return false
		}
		if id, ok := m.(*ast.Ident); ok && info.ObjectOf(id) == obj {
			if identTransfers(stack, id) {
				transferred = true
			}
		}
		stack = append(stack, m)
		return true
	})
	return transferred
}

func usesObj(n ast.Node, info *types.Info, obj types.Object) bool {
	used := false
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok && info.ObjectOf(id) == obj {
			used = true
		}
		return !used
	})
	return used
}

// identTransfers decides whether this occurrence of the object's
// identifier moves ownership, given the ancestor stack (outermost
// first, not including id itself).
func identTransfers(stack []ast.Node, id *ast.Ident) bool {
	// For `res.Body` the position of the *selector* decides — the
	// Body field carries the closer, so passing or returning it moves
	// ownership. Any other selector is a read (`resp.StatusCode`) or
	// a method call (`f.Close()`), never a transfer.
	top := ast.Node(id)
	i := len(stack) - 1
	for ; i >= 0; i-- {
		sel, ok := stack[i].(*ast.SelectorExpr)
		if !ok || sel.X != top {
			break
		}
		if sel.Sel.Name != "Body" {
			return false
		}
		top = sel
	}
	if i < 0 {
		return false
	}
	switch parent := stack[i].(type) {
	case *ast.CallExpr:
		if parent.Fun == top {
			return false // method call on the resource
		}
		return true // resource passed as argument
	case *ast.ReturnStmt:
		return true
	case *ast.AssignStmt:
		for _, l := range parent.Lhs {
			if l == top {
				return false // reassignment target, not a move of this value
			}
		}
		// obj on the RHS: a store, unless every target is blank.
		for _, l := range parent.Lhs {
			if lid, ok := l.(*ast.Ident); !ok || lid.Name != "_" {
				return true
			}
		}
		return false
	case *ast.CompositeLit, *ast.KeyValueExpr:
		return true
	case *ast.SendStmt:
		return parent.Value == top
	case *ast.UnaryExpr:
		return parent.Op == token.AND
	case *ast.ValueSpec:
		return true // var other = res
	}
	return false
}
