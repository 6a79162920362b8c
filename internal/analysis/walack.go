package analysis

import (
	"go/ast"
	"strings"
)

// WalAck enforces the result store's durability contract (DESIGN §9):
// a batch is acknowledged — an ingest/commit-shaped function returns
// a nil error — only after the WAL bytes it wrote are fsynced. An ack
// without an fsync turns "acknowledged batches survive a crash" into
// a lie the power-cut torture test exists to prevent. The file-system
// seam's one durable write, fsys.Commit, owes the same: it syncs the
// bytes before renaming them into place.
//
// The check is interprocedural through facts: a write performed by a
// helper (appendRecord) and a sync performed by another helper both
// count, transitively. Path sensitivity comes from the CFG (DESIGN
// §7): a nil return is flagged when any control-flow path carries a
// write to it with no sync barrier in between — "the fsync dominates
// the ack" — which catches branch shapes the old source-order scan
// missed (a write arm and a sync arm of the same if, where source
// order sees the sync last).
var WalAck = &Analyzer{
	Name: "walack",
	Run:  runWalAck,
}

// ackNames are the function-name markers of an acknowledgement path.
var ackNames = []string{"Append", "Ingest", "Commit", "Flush", "Ack"}

func runWalAck(pass *Pass) {
	for _, file := range pass.Files() {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !isAckFunc(fn) {
				continue
			}
			if !returnsError(pass, fn.Type) {
				continue
			}
			checkAckSyncs(pass, fn)
		}
	}
}

func isAckFunc(fn *ast.FuncDecl) bool {
	for _, m := range ackNames {
		if strings.Contains(fn.Name.Name, m) {
			return true
		}
	}
	return false
}

// returnsError reports whether the function's last result is an
// error.
func returnsError(pass *Pass, ftype *ast.FuncType) bool {
	if ftype.Results == nil || len(ftype.Results.List) == 0 {
		return false
	}
	last := ftype.Results.List[len(ftype.Results.List)-1]
	t := pass.TypesInfo().TypeOf(last.Type)
	return t != nil && isErrorType(t)
}

// checkAckSyncs classifies the function's CFG nodes as WAL writes and
// sync barriers (goroutine and closure bodies excluded — they do not
// run on the ack path) and flags every `return …, nil` some write
// reaches with no barrier in between.
func checkAckSyncs(pass *Pass, fn *ast.FuncDecl) {
	c := BuildCFG(pass.TypesInfo(), fn.Body)
	isWrite := func(n ast.Node) bool {
		return nodeContainsCall(n, func(call *ast.CallExpr) bool {
			return classifyAckCall(pass, call) == ackWrite
		})
	}
	// A callee that writes and then syncs internally (atomic-write
	// helpers) leaves the file clean: a barrier, not a write.
	isBarrier := func(n ast.Node) bool {
		return nodeContainsCall(n, func(call *ast.CallExpr) bool {
			k := classifyAckCall(pass, call)
			return k == ackSync || k == ackWriteSync
		})
	}
	var writes, acks []ast.Node
	for _, b := range c.Blocks {
		for _, n := range b.Nodes {
			if isWrite(n) {
				writes = append(writes, n)
			}
			if ret, ok := n.(*ast.ReturnStmt); ok && isNilErrorReturn(ret) {
				acks = append(acks, n)
			}
		}
	}
	for _, ack := range acks {
		if isBarrier(ack) {
			continue // the return expression itself syncs
		}
		for _, w := range writes {
			if w == ack || c.ReachesWithout(w, ack, isBarrier) {
				pass.Reportf(ack.Pos(),
					"%s acknowledges the batch (returns nil) after a WAL write with no fsync on the path; call Sync before returning (or route the ack through a synced helper)",
					fn.Name.Name)
				break
			}
		}
	}
}

type ackCallKind int

const (
	ackOther ackCallKind = iota
	ackWrite
	ackSync
	ackWriteSync
)

// classifyAckCall labels a call's durability effect: a direct file
// write, a direct fsync, or — via facts — a helper that does either
// (or both, in write-then-sync order).
func classifyAckCall(pass *Pass, call *ast.CallExpr) ackCallKind {
	fn := calleeFunc(pass.TypesInfo(), call)
	if fn == nil || fn.Pkg() == nil {
		return ackOther
	}
	writes, syncs := fileEffect(fn)
	if f := calleeFact(pass, call); f != nil {
		writes, syncs = f.Writes, f.Syncs
	}
	switch {
	case writes && syncs:
		return ackWriteSync
	case writes:
		return ackWrite
	case syncs:
		return ackSync
	}
	return ackOther
}

// isNilErrorReturn matches a return whose final (error) result is the
// nil literal.
func isNilErrorReturn(ret *ast.ReturnStmt) bool {
	if len(ret.Results) == 0 {
		return false
	}
	id, ok := ret.Results[len(ret.Results)-1].(*ast.Ident)
	return ok && id.Name == "nil"
}
