package analysis

// Suite returns benchlint's project-invariant analyzers, in the order
// they were added: the five intra-package rules the execution engine's
// correctness rests on, the three interprocedural ones built on the
// fact system, the cache-soundness tier that proves warm replays are
// pure functions of their keys, and the CFG-backed resource-leak tier
// guarding the federation plane's closers, cancel funcs and worker
// sends, and the guards table of retired and confined names. DESIGN.md
// §7 lists each with the bug it catches.
func Suite() []*Analyzer {
	return []*Analyzer{
		CtxFlow, Determinism, StageErr, Locks, SpanEnd, LockOrder, GoroLeak, WalAck,
		Purity, MapOrder, KeyCover,
		CloseCheck, CtxLeak, SendBlock,
		Guards,
	}
}
