package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// SendBlock enforces send discipline inside every goroutine: a
// channel send in a worker must be select-guarded by an alternative
// that can always fire (a receive case — typically on
// ctx.Done()/done — or a default), or target a provably bounded
// queue: a channel every make() of which carries a constant capacity
// of at least one (the one-shot ack idiom, `done: make(chan error,
// 1)`). An unguarded send to an unbuffered channel wedges the worker
// forever the moment its receiver dies or stops listening — exactly
// the shutdown hang the federation plane's commit workers and
// followers must never develop.
//
// The check is interprocedural through the §7 facts: a goroutine
// whose entry function (or a callee reached from its body) carries
// the BareSend bit is flagged at the spawn or call site. Receives are
// deliberately out of scope: a blocked receive is the done-channel
// bounding mechanism goroleak checks for, not a defect.
var SendBlock = &Analyzer{
	Name: "sendblock",
	Run:  runSendBlock,
}

func runSendBlock(pass *Pass) {
	caps := chanCaps(pass.Pkg)
	for _, file := range pass.Files() {
		ast.Inspect(file, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				checkGoroutineSends(pass, g, caps)
			}
			return true
		})
	}
}

func checkGoroutineSends(pass *Pass, g *ast.GoStmt, caps map[*types.Var]int) {
	lit, ok := g.Call.Fun.(*ast.FuncLit)
	if !ok {
		if f := calleeFact(pass, g.Call); f != nil && f.BareSend {
			pass.Reportf(g.Pos(),
				"goroutine entry %s performs an unguarded channel send (no select alternative, no buffered capacity); the worker can block forever on a dead receiver",
				types.ExprString(g.Call.Fun))
		}
		return
	}
	for _, send := range bareSends(pass.Pkg, lit.Body, caps) {
		pass.Reportf(send.Pos(),
			"unguarded send in a goroutine can block forever; select on it with a ctx/done or default alternative, or give the channel buffered capacity")
	}
	// Helpers the literal calls inline carry their sends with them.
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			return false // a nested goroutine is checked at its own go statement
		case *ast.CallExpr:
			if f := calleeFact(pass, n); f != nil && f.BareSend {
				pass.Reportf(n.Pos(),
					"call to %s inside a goroutine performs an unguarded channel send; the worker can block forever on a dead receiver",
					types.ExprString(n.Fun))
			}
		}
		return true
	})
}

// bareSends returns the sends in one function body that are neither
// select-guarded nor provably buffered. Function literals are folded
// in (they run inline); `go` bodies are excluded — they are their own
// goroutines, checked at their own spawn sites. caps is the package's
// chanCaps.
func bareSends(pkg *Package, body *ast.BlockStmt, caps map[*types.Var]int) []ast.Node {
	// First pass: sends that are comm clauses of a select with an
	// always-viable alternative (default or a receive case) are
	// guarded — the select can take the other arm.
	guarded := map[ast.Node]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		hasAlt := false
		for _, cl := range sel.Body.List {
			cc, isCC := cl.(*ast.CommClause)
			if !isCC {
				continue
			}
			if cc.Comm == nil || isRecvComm(cc.Comm) {
				hasAlt = true
			}
		}
		if hasAlt {
			for _, cl := range sel.Body.List {
				if cc, isCC := cl.(*ast.CommClause); isCC {
					if s, isSend := cc.Comm.(*ast.SendStmt); isSend {
						guarded[s] = true
					}
				}
			}
		}
		return true
	})
	var out []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.SendStmt:
			if guarded[n] || chanProvablyBuffered(pkg, n.Chan, caps) {
				return true
			}
			out = append(out, n)
		}
		return true
	})
	return out
}

// isRecvComm matches a select comm statement that receives: `<-ch`,
// `v := <-ch`, `v, ok := <-ch`.
func isRecvComm(s ast.Stmt) bool {
	var e ast.Expr
	switch s := s.(type) {
	case *ast.ExprStmt:
		e = s.X
	case *ast.AssignStmt:
		if len(s.Rhs) != 1 {
			return false
		}
		e = s.Rhs[0]
	default:
		return false
	}
	un, ok := e.(*ast.UnaryExpr)
	return ok && un.Op == token.ARROW
}

// chanProvablyBuffered reports whether every channel value the send
// target can hold was made with constant capacity >= 1, per chanCaps.
func chanProvablyBuffered(pkg *Package, ch ast.Expr, caps map[*types.Var]int) bool {
	cap, seen := caps[chanVar(pkg, ch)]
	return seen && cap >= 1
}

// chanVar resolves a channel expression to the variable it names: a
// local or package variable, or a struct field. Anything else is nil.
func chanVar(pkg *Package, e ast.Expr) *types.Var {
	switch e := e.(type) {
	case *ast.Ident:
		v, _ := pkg.Info.ObjectOf(e).(*types.Var)
		return v
	case *ast.SelectorExpr:
		v, _ := pkg.Info.ObjectOf(e.Sel).(*types.Var)
		return v
	}
	return nil
}

// makeChanCap returns the constant capacity of a `make(chan T, n)`
// expression, 0 for `make(chan T)`, and -1 for anything else.
func makeChanCap(pkg *Package, e ast.Expr) int {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return -1
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "make" || len(call.Args) == 0 {
		return -1
	}
	if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); !isBuiltin {
		return -1
	}
	if t := pkg.Info.TypeOf(call.Args[0]); t != nil {
		if _, isChan := t.Underlying().(*types.Chan); !isChan {
			return -1
		}
	}
	if len(call.Args) == 1 {
		return 0
	}
	tv, ok := pkg.Info.Types[call.Args[1]]
	if !ok || tv.Value == nil {
		return -1
	}
	c, exact := constant.Int64Val(constant.ToInt(tv.Value))
	if !exact || c < 0 {
		return -1
	}
	return int(c)
}

// chanCaps maps every channel variable the package assigns — locals,
// package variables and struct fields, told apart by object identity —
// to the minimum constant capacity across all its assignments: `ch :=
// make(chan T, n)`, `var ch = make(…)`, composite literals
// (`pending{done: make(chan error, 1)}`) and field stores (`p.done =
// make(…)`). A variable assigned anything that is not a
// constant-capacity make is disqualified (-1). Variables never assigned
// in the package (parameters) are absent; callers treat absent as
// unbuffered.
func chanCaps(pkg *Package) map[*types.Var]int {
	caps := map[*types.Var]int{}
	note := func(v *types.Var, rhs ast.Expr) {
		if v == nil {
			return
		}
		if _, isChan := v.Type().Underlying().(*types.Chan); !isChan {
			return
		}
		c := makeChanCap(pkg, rhs)
		if old, seen := caps[v]; !seen || c < old {
			caps[v] = c
		}
	}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				st := structOf(pkg.Info.TypeOf(n))
				if st == nil {
					return true
				}
				for i, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if key, isIdent := kv.Key.(*ast.Ident); isIdent {
							note(fieldByName(st, key.Name), kv.Value)
						}
						continue
					}
					if i < st.NumFields() {
						note(st.Field(i), elt)
					}
				}
			case *ast.AssignStmt:
				for i, l := range n.Lhs {
					var rhs ast.Expr // stays nil (opaque) for a multi-value assignment
					if len(n.Lhs) == len(n.Rhs) {
						rhs = n.Rhs[i]
					}
					note(chanVar(pkg, l), rhs)
				}
			case *ast.ValueSpec:
				for i, name := range n.Names {
					if i < len(n.Values) {
						note(chanVar(pkg, name), n.Values[i])
					}
				}
			}
			return true
		})
	}
	return caps
}

func structOf(t types.Type) *types.Struct {
	t = deref(t)
	if t == nil {
		return nil
	}
	st, _ := t.Underlying().(*types.Struct)
	return st
}

func fieldByName(st *types.Struct, name string) *types.Var {
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == name {
			return st.Field(i)
		}
	}
	return nil
}
