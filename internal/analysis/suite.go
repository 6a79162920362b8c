package analysis

// Suite returns benchlint's project-invariant analyzers, in the order
// they were added: the five intra-package rules the execution engine's
// correctness rests on, the three interprocedural ones built on the
// fact system, the cache-soundness tier that proves warm replays are
// pure functions of their keys, and the CFG-backed resource-leak tier
// guarding the federation plane's closers, cancel funcs and worker
// sends. DESIGN.md §7 lists each with the bug it catches.
func Suite() []*Analyzer {
	return []*Analyzer{
		CtxFlow, Determinism, StageErr, Locks, SpanEnd, LockOrder, GoroLeak, WalAck,
		Purity, MapOrder, KeyCover,
		CloseCheck, CtxLeak, SendBlock,
	}
}

// ByName resolves a comma-separated selection against the suite.
func ByName(names []string) ([]*Analyzer, bool) {
	byName := map[string]*Analyzer{}
	for _, a := range Suite() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range names {
		a, ok := byName[n]
		if !ok {
			return nil, false
		}
		out = append(out, a)
	}
	return out, true
}
