package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// Guards enforces the source rules that are about names rather than
// flow: a name a PR retired stays gone, and a few objects are used only
// where the design puts them. Each rule is one row of guardTable, with
// the PR that made it and its reason; TestEveryGuardResolves holds
// every row to something that exists in the module, so a rename fails
// a test instead of leaving the row checking nothing.
var Guards = &Analyzer{Name: "guards", Run: runGuards}

// A guard is one row of the table, of one of two kinds.
//
// A retired row lists what must not be declared again in package pkg
// (module-relative): "Name", "Type.Member" (a method or struct field),
// or `"prefix`, which no string literal in the package may start with
// (flag and metric names).
//
// A confined row lists objects whose uses are allowed only in the
// places of only, or refused in the places of not: "pkg.Name",
// "pkg.Type.Member", "pkg.Type{}" (a composite literal of the type),
// "make([]float64)", or a bare package path (any use of the package).
// A place is a package, a file ("….go") or a tree ("dir/").
type guard struct {
	pr        int
	why       string
	pkg       string
	retired   []string
	uses      []string
	only, not []string
}

const testOnly = "nothing is exported only for its own tests; CHANGES.md lists the names no program reached"

var guardTable = []guard{
	{pr: 26, pkg: "cmd/benchpark", retired: []string{`"-`},
		why: "cmd/benchpark parses flags with flag.FlagSet; register the flag instead of matching it by hand"},
	{pr: 27, uses: []string{"internal/bench.Params{}"}, only: []string{"internal/core/benchpark.go", "examples/"},
		why: "a kernel runs only in Session.execute; run a session instead of building bench.Params"},
	{pr: 28, uses: []string{"internal/mpisim.Run", "internal/caliper.NewRecorder"}, only: []string{"internal/bench/bench.go"},
		why: "a kernel is its numerics; run its ranks through runRanks instead of calling mpisim.Run or caliper.NewRecorder"},
	{pr: 30, not: []string{"internal/resultstore"},
		uses: []string{"internal/metricsdb.DB.Query", "internal/metricsdb.DB.QueryAfterN", "internal/metricsdb.Reader.Query", "internal/metricsdb.Reader.QueryAfterN"},
		why:  "compaction encodes the DB's rows (DB.AppendJSONAfter); resultstore code must not build Results out of its own DB"},
	{pr: 31, pkg: "internal/resultsd", retired: []string{"WithOps", "NoJitter", "FullJitter"},
		why: "the ops endpoints are always served and jitter only ever adds to Retry-After"},
	{pr: 34, pkg: "internal/buildcache", retired: []string{"Cache.FindCompatible", "Cache.Instrument", `"buildcache_`},
		why: `the binary cache is read by exact hash and counted once, as cache_{hits,misses}_total{layer="buildcache"}`},
	{pr: 34, pkg: "internal/install", retired: []string{"Installer.ReuseCompatible", "Installer.PushToCache", `"install_cache_`},
		why: `a binary of another target is a miss, and installs are counted as cache_{hits,misses}_total{layer="buildcache"}`},
	{pr: 36, pkg: "internal/mpisim", why: testOnly, retired: []string{"Request", "Comm.Isend", "Comm.Irecv", "Comm.Wait",
		"Comm.WaitAll", "Comm.Allgather", "Comm.Gather", "Comm.ReduceScatter", "Comm.System", "Comm.ComputeFlops", "Comm.ComputeBytes"}},
	{pr: 36, pkg: "internal/thicket", why: testOnly, retired: []string{"Thicket.Len", "Thicket.Filter", "Thicket.Regions",
		"Thicket.FitScalingModel", "Thicket.FitScalingModelMulti", "Thicket.AddFromJSON"}},
	{pr: 36, pkg: "internal/telemetry", why: testOnly, retired: []string{"EventRecord", "spanEvent", "Inject",
		"Span.AddEvent", "Span.Path", "Registry.PrometheusText"}},
	{pr: 36, pkg: "internal/adiak", why: testOnly, retired: []string{"Metadata.Matches", "Metadata.Len", "Metadata.Clone", "Metadata.Merge"}},
	{pr: 36, pkg: "internal/yamlite", why: testOnly, retired: []string{"Map.GetInt", "Map.Lookup", "Map.Delete"}},
	{pr: 36, pkg: "internal/metricsdb", why: testOnly, retired: []string{"Comparison", "DB.CompareSystems"}},
	{pr: 36, pkg: "internal/pkgrepo", why: testOnly, retired: []string{"Repo.Has", "Repo.AddOverlay", "Package.Homepage", "Package.Maintainers"}},
	{pr: 36, pkg: "internal/ci", why: testOnly, retired: []string{"PRClosed", "Repo.ChangedPaths"}},
	{pr: 36, pkg: "internal/core", why: testOnly, retired: []string{"ImplementsComponent", "Automation.UseCache"}},
	{pr: 36, pkg: "internal/engine", why: testOnly, retired: []string{"SeededRNG"}},
	{pr: 36, pkg: "internal/env", why: testOnly, retired: []string{"Environment.Remove"}},
	{pr: 36, pkg: "internal/ramble", why: testOnly, retired: []string{"Expander.Get", "Expander.Vars"}},
	{pr: 36, pkg: "internal/scheduler", why: testOnly, retired: []string{"Cancelled", `"CANCELLED`, "Scheduler.Cancel", "Scheduler.Clock"}},
	{pr: 36, pkg: "internal/pkgrepo", retired: []string{"Provide.When"},
		why: "nothing read Provide.When, so a recipe that set it was silently ignored"},
	{pr: 36, pkg: "internal/ramble", retired: []string{"Workload.Inputs", "Application.Description"},
		why: "nothing read Workload.Inputs or Application.Description, so an application that set them was silently ignored"},
	{pr: 37, pkg: "internal/resultstore", retired: []string{"Options.CommitDelay"},
		why: "a test slows the disk through resultstore.Options.FS, not a delay knob"},
	{pr: 37, pkg: "cmd/benchpark", retired: []string{`"shard-slow`},
		why: "serve --shard-slow is gone; a test slows the disk through resultstore.Options.FS"},
	{pr: 37, uses: []string{"internal/fsys.FS.ReadDir", "io/fs.ReadDir"}, not: []string{"internal/cachekey"},
		why: "a cachekey layer is read by exact key and never listed"},
	{pr: 37, uses: []string{"os"}, not: []string{"internal/resultstore", "internal/resultshard", "internal/cachekey"},
		why: "resultstore, resultshard and cachekey reach the disk only through internal/fsys (its FS, Commit and RemoveTemps)"},
	{pr: 38, pkg: "internal/concretizer", retired: []string{"NewMemo", "MemoStats"},
		why: "a session counts its own cache traffic; the concretizer memo is gone"},
	{pr: 38, pkg: "internal/buildcache", retired: []string{"Cache.Stats"},
		why: "a session counts its own cache traffic; the binary cache keeps no counters"},
	{pr: 38, pkg: "internal/ci", retired: []string{"CacheProvenance"},
		why: "CI job provenance is the job log's cache layer records"},
	{pr: 38, pkg: "cmd/benchpark", retired: []string{`"no-cache`},
		why: "a run without --cache-dir caches nothing across invocations; there is no --no-cache"},
	{pr: 40, uses: []string{"make([]float64)"}, not: []string{"internal/bench"},
		why: "a rank's arrays come from c.Alloc (mpisim.Comm.Alloc) so that mpisim can recycle them for the next job"},
	{pr: 43, pkg: "internal/yamlite", retired: []string{"Map.Clone", "cloneValue"}, why: mergedByMove},
	{pr: 43, pkg: "internal/ramble", retired: []string{"Workspace.raw"}, why: mergedByMove},
	{pr: 44, pkg: "internal/core", retired: []string{"sessionRunner.lockJSON", "sessionRunner.locks"},
		why: "the run key folds in lockfile root hashes; nothing renders a lockfile per session"},
	{pr: 45, pkg: "internal/spec", retired: []string{"DecodeDAG"}, why: oneStoredDAG},
	{pr: 45, pkg: "internal/env", retired: []string{"LockNode", "Lockfile", "ParseLockfile"}, why: oneStoredDAG},
	{pr: 45, pkg: "internal/concretizer", retired: []string{"cachedSolve"}, why: oneStoredDAG},
	{pr: 46, pkg: "internal/ramble", retired: []string{"Workspace.On", "Executor"}, why: oneRunPath},
	{pr: 46, pkg: "internal/core", retired: []string{"Session.Executor"}, why: oneRunPath},
	{pr: 47, pkg: "internal/archspec", retired: []string{"versionInRange", "compareDotted", "atoiSafe"},
		why: "a compiler version range is a spec.VersionList; dotted versions are compared one way, by spec.Version"},
	{pr: 49, pkg: "internal/analysis", retired: []string{"ApplyFixes", "Fix", "TextEdit", "Pass.ReportFix", "Finding.Fixes"}, why: reportsOnly},
	{pr: 49, pkg: "cmd/benchlint", retired: []string{`"fix`}, why: reportsOnly},
	{pr: 52, pkg: "internal/metricsdb", retired: []string{"Result.ID", "DB.nextID", "DB.nextSeq"}, why: oneSeq},
	{pr: 52, pkg: "internal/resultstore", retired: []string{"Store.nextID", "Store.nextSeq", "Store.noteCounters", "snapshotHeader.NextID"},
		why: oneSeq},
	{pr: 53, pkg: "internal/metricsdb", retired: []string{"ManifestTable", "Decoder.UseManifests", "Decoder.Manifests"},
		why: "a store's file names each series once through one HeadTable, its manifests included; Decoder.UseTable reads it"},
	{pr: 54, pkg: "internal/metricsdb", retired: []string{"DB.reindex"},
		why: "a DB only appends: InsertAll refuses a Seq at or below the newest row's, so no stored result moves"},
	{pr: 54, pkg: "internal/resultstore", retired: []string{"Options.Clock", "walBatch.Received"},
		why: "a WAL record holds what replay reads; nothing read the receive time it was stamped with"},
	{pr: 58, uses: []string{"internal/metricsdb.Decoder.Recycle"}, only: []string{"internal/resultstore/store.go", "internal/resultsd/server.go", "internal/metricsdb"},
		why: "the next decode refills a recycled map, so only the code that owns a result's maps, once the DB holds copies, hands them back"},
	{pr: 59, pkg: "internal/resultstore", retired: []string{"manifestSnapshotFormat", "chainSnapshotFormat", "fullSnapshotFormat"},
		why: "a store reads only the format it writes (snapshotFormat); an older store is refused by name, not read"},
	{pr: 60, uses: []string{"internal/metricsdb.RecyclePoints", "internal/metricsdb.RecycleRegressions"}, only: []string{"internal/resultsd/server.go", "internal/metricsdb"},
		why: "the next query's answer is built in recycled room, so only the handler that encoded an answer and holds nothing else of it hands it back"},
	{pr: 63, uses: []string{"internal/cachekey.Layer.Read", "internal/engine.ExperimentCache.Read"},
		only: []string{"internal/concretizer/concretizer.go", "internal/buildcache/buildcache.go", "internal/engine/engine.go"},
		why:  "a read lends its payload from pooled room that the next read refills, so only the three layers' decoders, which copy what they keep, read an entry"},
	{pr: 63, pkg: "internal/cachekey", retired: []string{"Layer.Get"}, why: oneCacheRead},
	{pr: 63, pkg: "internal/engine", retired: []string{"ExperimentCache.Get"}, why: oneCacheRead},
	{pr: 63, pkg: "internal/fsys", retired: []string{"FS.ReadFile"}, why: oneCacheRead},
}

const oneCacheRead = "a file is read one way, into the caller's buffer (fsys.FS.ReadInto), and a cache entry one way, lent to a callback (cachekey.Layer.Read)"

const oneSeq = "a result has one sequence number; the newest row's Seq is the watermark"

const reportsOnly = "benchlint reports findings; a finding is repaired by hand"

const oneRunPath = "an experiment reaches its result one way: `ramble on` and `benchpark run` are a Session.Run"

const oneStoredDAG = "a concrete DAG is stored one way: spack.lock, concretize entries and the install database are spec.DAG (EncodeDAG, DAG.Decode)"

const mergedByMove = "a parsed config is merged by move; nothing needs a copy"

// guardUses maps each confined object to its row.
var guardUses = func() map[string]*guard {
	m := map[string]*guard{}
	for i, g := range guardTable {
		for _, u := range g.uses {
			m[u] = &guardTable[i]
		}
	}
	return m
}()

func runGuards(pass *Pass) {
	info, mod := pass.TypesInfo(), pass.mod.Path+"/"
	pkg := strings.TrimPrefix(pass.Pkg.ImportPath, mod)
	var retired []*guard
	for i, g := range guardTable {
		if g.pkg == pkg {
			retired = append(retired, &guardTable[i])
			retiredDecls(pass, g)
		}
	}
	for _, file := range pass.Files() {
		name := relPath(pass.mod.Root, pass.Pkg.Fset.File(file.Pos()).Name())
		ast.Inspect(file, func(n ast.Node) bool {
			key := ""
			switch n := n.(type) {
			case *ast.BasicLit:
				retiredStrings(pass, n, retired)
			case *ast.Ident:
				key = useKey(mod, info.Uses[n])
			case *ast.CompositeLit:
				if t, ok := types.Unalias(info.TypeOf(n)).(*types.Named); ok {
					key = useKey(mod, t.Obj()) + "{}"
				}
			case *ast.CallExpr:
				if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && info.Uses[id] == types.Universe.Lookup("make") {
					key = "make(" + types.TypeString(info.TypeOf(n.Args[0]), nil) + ")"
				}
			}
			if g := guardUses[key]; g != nil {
				if g.only != nil && !inPlaces(g.only, pkg, name) {
					pass.Reportf(n.Pos(), "%s is confined to %s (PR %d): %s", key, strings.Join(g.only, ", "), g.pr, g.why)
				} else if inPlaces(g.not, pkg, name) {
					pass.Reportf(n.Pos(), "%s is refused in %s (PR %d): %s", key, pkg, g.pr, g.why)
				}
			}
			return true
		})
	}
}

// retiredDecls reports a declaration of any of the row's retired names
// in the package.
func retiredDecls(pass *Pass, g guard) {
	for _, name := range g.retired {
		if strings.HasPrefix(name, `"`) {
			continue
		}
		typ, member, isMember := strings.Cut(name, ".")
		obj := pass.Pkg.Types.Scope().Lookup(typ)
		if isMember && obj != nil {
			obj, _, _ = types.LookupFieldOrMethod(obj.Type(), true, pass.Pkg.Types, member)
		}
		if obj != nil && obj.Pkg() == pass.Pkg.Types {
			pass.Reportf(obj.Pos(), "%s.%s is retired (PR %d): %s", g.pkg, name, g.pr, g.why)
		}
	}
}

// retiredStrings reports a string literal that starts with a retired
// prefix of one of the rows.
func retiredStrings(pass *Pass, lit *ast.BasicLit, rows []*guard) {
	if lit.Kind != token.STRING {
		return
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		return
	}
	for _, g := range rows {
		for _, name := range g.retired {
			if prefix, ok := strings.CutPrefix(name, `"`); ok && strings.HasPrefix(s, prefix) {
				pass.Reportf(lit.Pos(), "%s starts with the retired %q (PR %d): %s", lit.Value, prefix, g.pr, g.why)
			}
		}
	}
}

// useKey names a used object the way a confined row does, with the
// module path trimmed: "pkg" for a package name, "pkg.Name" for a
// package-level object, "pkg.Type.Member" for a method; "" for
// anything else (locals, fields, builtins).
func useKey(mod string, obj types.Object) string {
	if pn, ok := obj.(*types.PkgName); ok {
		return strings.TrimPrefix(pn.Imported().Path(), mod)
	}
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	pkg := strings.TrimPrefix(obj.Pkg().Path(), mod) + "."
	if fn, ok := obj.(*types.Func); ok && fn.Signature().Recv() != nil {
		recv := fn.Signature().Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		if named, ok := types.Unalias(recv).(*types.Named); ok {
			return pkg + named.Obj().Name() + "." + fn.Name()
		}
		return ""
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return pkg + obj.Name()
}

// inPlaces reports whether a file of package pkg is in any of places.
func inPlaces(places []string, pkg, file string) bool {
	for _, p := range places {
		if p == pkg || p == file || strings.HasSuffix(p, "/") && strings.HasPrefix(pkg+"/", p) {
			return true
		}
	}
	return false
}
