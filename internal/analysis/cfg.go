package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// cfg.go builds per-function control-flow graphs over go/ast and
// answers the path questions the resource-discipline analyzers ask
// (DESIGN §7). The graph is intentionally statement-grained: every
// statement (and every if/for condition, init and post clause) is a
// node in exactly one basic block, blocks are linked by edges, and
// condition blocks carry branch-labelled edges so queries can prune
// the error-return arm of `if err != nil` guards.
//
// Two synthetic blocks bracket the graph. Entry has no nodes and one
// successor (the first real block); Exit collects every return, every
// fall-off-the-end path and every noreturn call (panic, os.Exit,
// log.Fatal*, runtime.Goexit). Noreturn call nodes are additionally
// recorded so path queries can treat "the process died here" as
// exempt rather than as an unclosed-resource escape.
//
// Defer gets the one modelling choice that matters for "on all exit
// paths" queries: a DeferStmt node that matches the query satisfies
// the path *at the defer statement*. That is exact, not an
// approximation — a defer registered on a path runs at every exit
// reachable from that point, so once the walk passes `defer c.Close()`
// nothing later on that path can leak c.
//
// Function literals are excluded: a FuncLit body is its own function
// with its own CFG (analyzers build one per literal when they care).

// EdgeKind labels a CFG edge. Condition blocks emit one EdgeTrue and
// one EdgeFalse successor; everything else is EdgeNormal.
type EdgeKind int

const (
	EdgeNormal EdgeKind = iota
	EdgeTrue
	EdgeFalse
)

// Edge is one successor link. Cond is set on EdgeTrue/EdgeFalse edges
// to the controlling condition expression, so queries can recognize
// nil-guard shapes without re-finding the enclosing if.
type Edge struct {
	To   *Block
	Kind EdgeKind
	Cond ast.Expr
}

// Block is a basic block: a maximal straight-line run of nodes.
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []Edge
	Preds []*Block
}

type nodeLoc struct {
	b *Block
	i int
}

// CFG is the control-flow graph of one function body.
type CFG struct {
	Blocks []*Block
	Entry  *Block
	Exit   *Block

	noreturn map[ast.Node]bool
	loc      map[ast.Node]nodeLoc

	info *types.Info
}

// jumpTarget is one enclosing breakable statement: where `break` and
// (for loops; nil for switch and select) `continue` land, and the label
// it carries, if any.
type jumpTarget struct {
	label     string
	brk, cont *Block
}

// cfgBuilder carries the construction state: the current block, the
// break/continue targets of enclosing statements (innermost last), and
// the goto label table.
type cfgBuilder struct {
	c   *CFG
	cur *Block

	targets    []jumpTarget
	gotoTarget map[string]*Block

	// pendingLabel is set between visiting a LabeledStmt and its
	// inner statement so `break L`/`continue L` resolve to the
	// labelled loop's targets.
	pendingLabel string
}

// BuildCFG constructs the graph for one function body.
func BuildCFG(info *types.Info, body *ast.BlockStmt) *CFG {
	c := &CFG{
		noreturn: make(map[ast.Node]bool),
		loc:      make(map[ast.Node]nodeLoc),
		info:     info,
	}
	b := &cfgBuilder{c: c, gotoTarget: make(map[string]*Block)}
	c.Entry = b.newBlock()
	c.Exit = b.newBlock()
	first := b.newBlock()
	b.edge(c.Entry, first, EdgeNormal, nil)
	b.cur = first
	b.stmtList(body.List)
	// Falling off the end of the body is a return.
	b.edge(b.cur, c.Exit, EdgeNormal, nil)
	return c
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.c.Blocks)}
	b.c.Blocks = append(b.c.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block, kind EdgeKind, cond ast.Expr) {
	from.Succs = append(from.Succs, Edge{To: to, Kind: kind, Cond: cond})
	to.Preds = append(to.Preds, from)
}

// add appends n as a node of the current block.
func (b *cfgBuilder) add(n ast.Node) {
	b.c.loc[n] = nodeLoc{b.cur, len(b.cur.Nodes)}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

// terminate ends the current block with an edge to `to` (nil for
// none) and opens a fresh — initially unreachable — block for any
// trailing dead code.
func (b *cfgBuilder) terminate(to *Block, kind EdgeKind, cond ast.Expr) {
	if to != nil {
		b.edge(b.cur, to, kind, cond)
	}
	b.cur = b.newBlock()
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	label := b.pendingLabel
	b.pendingLabel = ""

	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		// The label is a goto target: route flow through its block.
		target := b.gotoBlock(s.Label.Name)
		b.edge(b.cur, target, EdgeNormal, nil)
		b.cur = target
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		cond := b.cur
		after := b.newBlock()
		then := b.newBlock()
		b.edge(cond, then, EdgeTrue, s.Cond)
		if s.Else != nil {
			els := b.newBlock()
			b.edge(cond, els, EdgeFalse, s.Cond)
			b.cur = els
			b.stmt(s.Else)
			b.edge(b.cur, after, EdgeNormal, nil)
		} else {
			b.edge(cond, after, EdgeFalse, s.Cond)
		}
		b.cur = then
		b.stmtList(s.Body.List)
		b.edge(b.cur, after, EdgeNormal, nil)
		b.cur = after

	case *ast.ForStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		header := b.newBlock()
		body := b.newBlock()
		after := b.newBlock()
		post := after
		if s.Post != nil {
			post = b.newBlock()
		}
		b.edge(b.cur, header, EdgeNormal, nil)
		b.cur = header
		if s.Cond != nil {
			b.add(s.Cond)
			b.edge(b.cur, body, EdgeTrue, s.Cond)
			b.edge(b.cur, after, EdgeFalse, s.Cond)
		} else {
			b.edge(b.cur, body, EdgeNormal, nil)
		}
		cont := header
		if s.Post != nil {
			cont = post
		}
		b.targets = append(b.targets, jumpTarget{label, after, cont})
		b.cur = body
		b.stmtList(s.Body.List)
		if s.Post != nil {
			b.edge(b.cur, post, EdgeNormal, nil)
			b.cur = post
			b.add(s.Post)
		}
		b.edge(b.cur, header, EdgeNormal, nil)
		b.targets = b.targets[:len(b.targets)-1]
		b.cur = after

	case *ast.RangeStmt:
		header := b.newBlock()
		body := b.newBlock()
		after := b.newBlock()
		b.edge(b.cur, header, EdgeNormal, nil)
		b.cur = header
		b.add(s) // the range clause itself: one iteration decision
		b.edge(header, body, EdgeNormal, nil)
		b.edge(header, after, EdgeNormal, nil)
		b.targets = append(b.targets, jumpTarget{label, after, header})
		b.cur = body
		b.stmtList(s.Body.List)
		b.edge(b.cur, header, EdgeNormal, nil)
		b.targets = b.targets[:len(b.targets)-1]
		b.cur = after

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchClauses(label, s.Body.List)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Assign)
		b.switchClauses(label, s.Body.List)

	case *ast.SelectStmt:
		b.add(s) // the select itself: the blocking decision point
		head := b.cur
		after := b.newBlock()
		b.targets = append(b.targets, jumpTarget{label: label, brk: after})
		for _, clause := range s.Body.List {
			cc, ok := clause.(*ast.CommClause)
			if !ok {
				continue
			}
			caseBlk := b.newBlock()
			b.edge(head, caseBlk, EdgeNormal, nil)
			b.cur = caseBlk
			if cc.Comm != nil {
				b.add(cc.Comm)
			}
			b.stmtList(cc.Body)
			b.edge(b.cur, after, EdgeNormal, nil)
		}
		b.targets = b.targets[:len(b.targets)-1]
		// An empty `select {}` blocks forever: head keeps no
		// successors and `after` stays unreachable.
		b.cur = after

	case *ast.ReturnStmt:
		b.add(s)
		b.terminate(b.c.Exit, EdgeNormal, nil)

	case *ast.BranchStmt:
		b.add(s)
		switch s.Tok {
		case token.BREAK:
			b.terminate(b.jump(s.Label, false), EdgeNormal, nil)
		case token.CONTINUE:
			b.terminate(b.jump(s.Label, true), EdgeNormal, nil)
		case token.GOTO:
			b.terminate(b.gotoBlock(s.Label.Name), EdgeNormal, nil)
		case token.FALLTHROUGH:
			// Handled structurally by switchClauses: the clause body
			// ends with an edge to the next clause's body.
		}

	case *ast.ExprStmt:
		b.add(s)
		if call, ok := s.X.(*ast.CallExpr); ok && isNoReturnCall(b.c.info, call) {
			b.c.noreturn[s] = true
			b.terminate(b.c.Exit, EdgeNormal, nil)
		}

	default:
		// DeferStmt, GoStmt, AssignStmt, DeclStmt, SendStmt,
		// IncDecStmt, EmptyStmt…: straight-line nodes.
		if _, ok := s.(*ast.EmptyStmt); ok {
			return
		}
		b.add(s)
	}
}

// switchClauses lowers (type-)switch clause lists: the head block
// branches to every clause body (and to `after` when no default
// exists); fallthrough chains clause bodies together.
func (b *cfgBuilder) switchClauses(label string, clauses []ast.Stmt) {
	head := b.cur
	after := b.newBlock()
	b.targets = append(b.targets, jumpTarget{label: label, brk: after})
	hasDefault := false
	bodies := make([]*Block, 0, len(clauses))
	caseBodies := make([][]ast.Stmt, 0, len(clauses))
	for _, clause := range clauses {
		cc, ok := clause.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		blk := b.newBlock()
		b.edge(head, blk, EdgeNormal, nil)
		bodies = append(bodies, blk)
		caseBodies = append(caseBodies, cc.Body)
	}
	if !hasDefault {
		b.edge(head, after, EdgeNormal, nil)
	}
	for i, blk := range bodies {
		b.cur = blk
		fallsThrough := false
		for _, st := range caseBodies[i] {
			if br, ok := st.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				fallsThrough = true
			}
			b.stmt(st)
		}
		if fallsThrough && i+1 < len(bodies) {
			b.edge(b.cur, bodies[i+1], EdgeNormal, nil)
		} else {
			b.edge(b.cur, after, EdgeNormal, nil)
		}
	}
	b.targets = b.targets[:len(b.targets)-1]
	b.cur = after
}

// jump resolves a break (or, with cont, a continue) to its target: the
// innermost enclosing statement that has one, or the one carrying the
// label.
func (b *cfgBuilder) jump(label *ast.Ident, cont bool) *Block {
	for i := len(b.targets) - 1; i >= 0; i-- {
		t := b.targets[i]
		if label != nil && t.label != label.Name || cont && t.cont == nil {
			continue
		}
		if cont {
			return t.cont
		}
		return t.brk
	}
	return b.c.Exit // malformed code: degrade to an exit edge
}

// gotoBlock returns (creating on first use) the block a goto or label
// with this name resolves to — forward gotos create the block before
// the label is reached.
func (b *cfgBuilder) gotoBlock(name string) *Block {
	if blk, ok := b.gotoTarget[name]; ok {
		return blk
	}
	blk := b.newBlock()
	b.gotoTarget[name] = blk
	return blk
}

// isNoReturnCall recognizes calls that never return control: panic,
// os.Exit, runtime.Goexit, log.Fatal*, and the testing Fatal family.
func isNoReturnCall(info *types.Info, call *ast.CallExpr) bool {
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
		_, isBuiltin := info.Uses[id].(*types.Builtin)
		return isBuiltin
	}
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "os":
		return fn.Name() == "Exit"
	case "runtime":
		return fn.Name() == "Goexit"
	case "log":
		switch fn.Name() {
		case "Fatal", "Fatalf", "Fatalln", "Panic", "Panicf", "Panicln":
			return true
		}
	case "testing":
		switch fn.Name() {
		case "Fatal", "Fatalf", "FailNow", "SkipNow", "Skip", "Skipf":
			return true
		}
	}
	return false
}

// locate finds the CFG node containing n: n itself when it was added
// as a node, otherwise the innermost node whose source range encloses
// n (an assignment used as an if-init, a call inside a condition…).
func (c *CFG) locate(n ast.Node) (nodeLoc, bool) {
	if l, ok := c.loc[n]; ok {
		return l, true
	}
	var best ast.Node
	var bestLoc nodeLoc
	for node, l := range c.loc {
		if node.Pos() <= n.Pos() && n.End() <= node.End() {
			if best == nil || (best.Pos() <= node.Pos() && node.End() <= best.End()) {
				best, bestLoc = node, l
			}
		}
	}
	return bestLoc, best != nil
}

// reachable returns the blocks reachable from Entry.
func (c *CFG) reachable() []*Block {
	seen := make(map[*Block]bool)
	var out []*Block
	var dfs func(*Block)
	dfs = func(b *Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		out = append(out, b)
		for _, e := range b.Succs {
			dfs(e.To)
		}
	}
	dfs(c.Entry)
	return out
}

// ---- path queries ----

// PathQuery configures MustReachOnAllPaths. Satisfied is required: it
// reports whether a node meets the obligation on its path (a Close
// call, a `defer cancel()`, an ownership transfer). PruneEdge, when
// set, exempts whole branch arms: it receives the condition expression
// and the branch taken, and returning true abandons that arm as exempt
// (used to skip the error-return arm of `if err != nil` guards, where
// the resource was never acquired).
type PathQuery struct {
	Satisfied func(ast.Node) bool
	PruneEdge func(cond ast.Expr, branch bool) bool
}

const (
	walkUnknown = iota
	walkInProgress
	walkSatisfied
	walkFailed
)

// MustReachOnAllPaths reports whether every execution path from the
// node `after` to function exit passes a node q.Satisfied accepts
// before reaching Exit. Paths through
// noreturn calls are exempt (the process dies; defers of *other*
// paths are unaffected). A DeferStmt that satisfies the query
// satisfies its whole path — see the file comment. Cycles that never
// exit satisfy vacuously. When `after` is nil the walk starts at
// function entry.
func (c *CFG) MustReachOnAllPaths(after ast.Node, q PathQuery) bool {
	startBlock := c.Entry
	startIdx := 0
	if after != nil {
		l, ok := c.locate(after)
		if !ok {
			return false // can't find the obligation site: fail safe
		}
		startBlock, startIdx = l.b, l.i+1
	}

	memo := make(map[*Block]int)
	var walk func(b *Block, from int) bool
	walk = func(b *Block, from int) bool {
		for i := from; i < len(b.Nodes); i++ {
			n := b.Nodes[i]
			if c.noreturn[n] || q.Satisfied(n) {
				return true
			}
		}
		if b == c.Exit {
			return false
		}
		if len(b.Succs) == 0 {
			// Dead end that is not Exit: an unreachable stub after a
			// terminator, or `select {}`. No path to Exit runs
			// through here.
			return true
		}
		for _, e := range b.Succs {
			if q.PruneEdge != nil && e.Kind != EdgeNormal && q.PruneEdge(e.Cond, e.Kind == EdgeTrue) {
				continue
			}
			to := e.To
			switch memo[to] {
			case walkSatisfied, walkInProgress:
				// In-progress means a cycle back into a block already
				// being explored: the continuation from there is
				// examined once at its first entry, so the back edge
				// adds no new exit path.
				continue
			case walkFailed:
				return false
			}
			memo[to] = walkInProgress
			ok := walk(to, 0)
			if ok {
				memo[to] = walkSatisfied
			} else {
				memo[to] = walkFailed
				return false
			}
		}
		return true
	}
	return walk(startBlock, startIdx)
}

// ReachesWithout reports whether some path from `from` to `target`
// passes through no node for which barrier returns true. Both nodes
// are located to their containing CFG nodes; the walk starts at the
// node after `from`. Used by walack: an ack is unsound when a WAL
// write reaches it with no fsync barrier in between.
func (c *CFG) ReachesWithout(from, target ast.Node, barrier func(ast.Node) bool) bool {
	lf, okf := c.locate(from)
	lt, okt := c.locate(target)
	if !okf || !okt {
		return false
	}
	seen := make(map[*Block]bool)
	var walk func(b *Block, idx int) bool
	walk = func(b *Block, idx int) bool {
		for i := idx; i < len(b.Nodes); i++ {
			n := b.Nodes[i]
			if b == lt.b && i == lt.i {
				return true
			}
			if barrier(n) {
				return false
			}
		}
		for _, e := range b.Succs {
			if seen[e.To] {
				continue
			}
			seen[e.To] = true
			if walk(e.To, 0) {
				return true
			}
		}
		return false
	}
	return walk(lf.b, lf.i+1)
}

// EveryCycleContains reports whether every cycle reachable from Entry
// passes through a block holding a node for which match returns true.
// goroleak uses it: a goroutine is context-bounded when its only way
// to run forever is to keep passing a blocking select/receive.
func (c *CFG) EveryCycleContains(match func(ast.Node) bool) bool {
	blocking := make(map[*Block]bool)
	for _, b := range c.Blocks {
		for _, n := range b.Nodes {
			if match(n) {
				blocking[b] = true
				break
			}
		}
	}
	// A cycle avoiding all blocking blocks exists iff the subgraph of
	// non-blocking blocks (reachable from Entry) has a cycle.
	const (
		white = iota
		grey
		black
	)
	color := make(map[*Block]int)
	var dfs func(b *Block) bool // true: found a cycle
	dfs = func(b *Block) bool {
		color[b] = grey
		for _, e := range b.Succs {
			to := e.To
			if blocking[to] {
				continue
			}
			switch color[to] {
			case grey:
				return true
			case white:
				if dfs(to) {
					return true
				}
			}
		}
		color[b] = black
		return false
	}
	for _, b := range c.reachable() {
		if blocking[b] || color[b] != white {
			continue
		}
		if dfs(b) {
			return false
		}
	}
	return true
}

// ContainsNode reports whether any CFG node matches.
func (c *CFG) ContainsNode(match func(ast.Node) bool) bool {
	for _, b := range c.Blocks {
		for _, n := range b.Nodes {
			if match(n) {
				return true
			}
		}
	}
	return false
}

// ---- shared matching helpers for CFG-backed analyzers ----

// nodeContains reports whether the CFG node n contains a sub-node for
// which pred returns true, without descending into function literals,
// `go` statements (work done by another goroutine is not on this
// function's path) or nested block statements (a loop or select
// header node must not "contain" its body — the body's statements are
// their own CFG nodes). Defer statements *are* inspected: a deferred
// call runs on this path, at exit.
func nodeContains(n ast.Node, pred func(ast.Node) bool) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found || m == nil {
			return false
		}
		switch m.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.BlockStmt:
			if m != n {
				return false
			}
		}
		if pred(m) {
			found = true
			return false
		}
		return true
	})
	return found
}

// nodeContainsCall is nodeContains specialized to calls.
func nodeContainsCall(n ast.Node, pred func(*ast.CallExpr) bool) bool {
	return nodeContains(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		return ok && pred(call)
	})
}

// isNilCheck matches `x != nil` / `x == nil` comparisons against the
// given object, returning the token used. ok is false when cond is
// any other shape.
func isNilCheck(info *types.Info, cond ast.Expr, obj types.Object) (op token.Token, ok bool) {
	bin, isBin := cond.(*ast.BinaryExpr)
	if !isBin || (bin.Op != token.EQL && bin.Op != token.NEQ) {
		return 0, false
	}
	matches := func(e ast.Expr) bool {
		id, isIdent := e.(*ast.Ident)
		return isIdent && info.ObjectOf(id) == obj
	}
	isNil := func(e ast.Expr) bool {
		id, isIdent := e.(*ast.Ident)
		return isIdent && id.Name == "nil"
	}
	if (matches(bin.X) && isNil(bin.Y)) || (matches(bin.Y) && isNil(bin.X)) {
		return bin.Op, true
	}
	return 0, false
}

// errGuardPruner builds a PruneEdge function that exempts the branch
// arm where `errObj != nil` holds — the acquisition failed, so the
// resource was never handed out. The pruning is one-shot per guard
// and does not track reassignment of the error variable; that can
// only under-report (exempt a path it should check), never flag a
// sound one.
func errGuardPruner(info *types.Info, errObj types.Object) func(cond ast.Expr, branch bool) bool {
	if errObj == nil {
		return nil
	}
	return func(cond ast.Expr, branch bool) bool {
		op, ok := isNilCheck(info, cond, errObj)
		if !ok {
			return false
		}
		// `err != nil` true-arm, or `err == nil` false-arm.
		return (op == token.NEQ && branch) || (op == token.EQL && !branch)
	}
}
