#!/bin/sh
# verify.sh — the repo's full verification gate.
#
# Runs the tier-1 check (build + vet + benchlint + full test suite)
# and then the race-detector pass over the packages that do real
# concurrency: the execution engine, the session/scaling orchestration
# built on it, the install database's lock, the concurrency-safe build
# cache, the telemetry layer (spans and metrics are recorded from the
# engine's worker pool), the durable result store and its HTTP service
# (concurrent ingest against the WAL, trace-context joins, the ops
# plane and selfmonitor loop), the CI pipeline and metrics database
# the traced push path flows through, the content-addressed cache
# store (concurrent same-key writers), the sharded results federation
# layer (concurrent routed appends into each shard store's commit
# queue) and its load generator (one goroutine per simulated runner), benchlint's
# concurrent file parser, the benchlint CLI whose tests drive
# that loader end to end, and the simulated MPI runtime with the kernels
# that run on it (one goroutine per rank, up to 3,456 a job, meeting in
# hand-written mailboxes: a mutex and a condition per rank). After it, the result store's two decoders of
# on-disk bytes — WAL frames and snapshot generations — the ingest
# handler's reader of network bytes (plain or gzip, through its pooled
# decompressor), yamlite's scalar emitter/parser round trip, the
# Result codec against encoding/json, both directions, telemetry's
# traceparent header parser, the spec parser's render/re-parse
# round trip and ramble's memoising variable expander against its
# memo-less oracle (templates and variable tables are user-written
# YAML) are fuzzed for five seconds each from their seed corpora.
#
# benchlint runs once — `go run ./cmd/benchlint`, no flags: every
# analyzer over every package, any unsuppressed finding fails (one
# with a mechanical fix too, so there is no separate unapplied-fixes
# check). scripts/smoke builds the real binary once and smoke-checks two
# planes with it: the ops plane — it scrapes /healthz, /readyz,
# /metrics, /debug/ops and /debug/pprof, then pushes a suite and checks
# the push left its TMPDIR empty — and the federation plane end to end:
# a 4-shard primary plus one snapshot-shipping follower under loadgen
# ingest, follower reads during ingest, byte-identical reads after a
# pass that started once ingest ended, and a follower of a plain serve.
# (The 429/Retry-After contract on an overloaded shard is
# resultsd.TestIngestOverloadMapsTo429's, in process.)
#
# Finally, the incremental re-run gate runs the example suite twice
# over a shared --cache-dir: the second run must be 100% run-layer
# cache hits and leave a byte-identical workspace tree behind (paths,
# modes, contents).
#
#   ./scripts/verify.sh
set -eu
cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> benchlint (project invariants)"
if ! go run ./cmd/benchlint; then
	echo "verify: benchlint found findings; run 'go run ./cmd/benchlint -fix' for the mechanical ones" >&2
	exit 1
fi
! grep -rn --include='*.go' '//benchlint:compat' . || { echo "verify: //benchlint:compat is retired; take the caller's context instead" >&2; exit 1; }
! grep -rn --include='*.go' --exclude='*_test.go' 'case "--' cmd/benchpark || { echo "verify: cmd/benchpark parses flags with flag.FlagSet; register the flag instead of matching it by hand" >&2; exit 1; }
[ "$(grep -rn --include='*.go' --exclude='*_test.go' 'bench\.Params{' internal cmd | cut -d: -f1)" = internal/core/benchpark.go ] || { echo "verify: a kernel runs only in Session.execute (internal/core/benchpark.go); run a session instead of building bench.Params" >&2; exit 1; }
[ "$(grep -rl --include='*.go' --exclude='*_test.go' -e 'mpisim\.Run(' -e 'caliper\.NewRecorder(' internal/bench)" = internal/bench/bench.go ] || { echo "verify: a kernel is its numerics; run its ranks through runRanks (internal/bench/bench.go) instead of calling mpisim.Run or caliper.NewRecorder" >&2; exit 1; }
! grep -rnE --include='*.go' --exclude='*_test.go' 'make\(\[\]float(32|64), (real|realN)\)' internal/bench || { echo "verify: a kernel computes its touched region through one reused tile of tileElems elements (internal/bench/saxpy.go); allocate min(real, tileElems), not the touched region" >&2; exit 1; }
! grep -rn --include='*.go' --exclude='*_test.go' 'make(\[\]float64' internal/bench || { echo "verify: a rank's arrays come from c.Alloc (mpisim.Comm.Alloc) so that mpisim can recycle them for the next job; do not make([]float64 in internal/bench" >&2; exit 1; }
stored=$(sed -n 's/^[[:space:]]*chunks \[\]\[\]\([A-Za-z_]*\)$/\1/p' internal/metricsdb/metricsdb.go)
[ -n "$stored" ] && ! sed -n "/^type $stored struct/,/^}/p" internal/metricsdb/*.go | grep 'map\[' || { echo "verify: metricsdb.DB stores rows whose FOMs and Meta are sorted pairs; the type its chunks hold (${stored:-not found}) must declare no map" >&2; exit 1; }
! grep -rnE --include='*.go' --exclude='*_test.go' '\.(AppendAfterN|QueryAfterN|Query)\(' internal/resultstore || { echo "verify: compaction encodes the DB's rows (DB.AppendJSONAfter); resultstore code must not build Results out of its own DB" >&2; exit 1; }
! sed -n '/^type Client struct/,/^}/p' internal/resultsd/client.go | grep -E '^[[:space:]]+[A-Za-z_][A-Za-z0-9_, ]*[[:space:]]func\(' || { echo "verify: resultsd.Client has one retry rule; a test fixes its timing through package state, not a func-typed field" >&2; exit 1; }
! grep -rnwE --include='*.go' --exclude='*_test.go' 'WithOps|NoJitter|FullJitter' . || { echo "verify: the ops endpoints are always served and jitter only ever adds to Retry-After; WithOps, NoJitter and FullJitter are gone" >&2; exit 1; }
{ sed -n '/^func (r \*sessionRunner) ExperimentKey(/,/^}/p' internal/core/cache.go | grep -q 'r\.model' && grep -q 'r\.model = r\.s\.System\.Fingerprint()' internal/core/benchpark.go; } || { echo "verify: ExperimentKey must hash the system model (hpcsim.System.Fingerprint), or a changed model replays stale FOMs" >&2; exit 1; }
! grep -rnE --include='*.go' --exclude='*_test.go' 'ReuseCompatible|PushToCache|FindCompatible|\.Instrument\(|"buildcache_|"install_cache_' internal cmd examples || { echo "verify: the binary cache is read by exact hash and counted once, as cache_{hits,misses}_total{layer=\"buildcache\"}; compatible-target reuse, PushToCache, Instrument and the buildcache_*/install_cache_* counters are gone" >&2; exit 1; }
! grep -rnE --include='*.go' --exclude='*_test.go' -e '\b(NewMemo|MemoStats|CacheProvenance)\b' -e 'func \(c \*Cache\) Stats\(' -e '"no-cache"' internal cmd examples || { echo "verify: a session counts its own cache traffic (concretizer hits/misses, install report counts); the concretizer memo, buildcache.Cache.Stats, ci.CacheProvenance and benchpark --no-cache are gone" >&2; exit 1; }
! grep -rn --include='*.go' --exclude='*_test.go' 'ReadDir' internal/cachekey || { echo "verify: a cachekey layer is read by exact key and never listed; internal/cachekey must not read directories" >&2; exit 1; }
! grep -rnE --include='*.go' --exclude='*_test.go' '\bos\.(Open|OpenFile|Create|CreateTemp|Rename|Remove|ReadFile|ReadDir|MkdirAll|Truncate)\b' internal/resultstore internal/resultshard internal/cachekey || { echo "verify: resultstore, resultshard and cachekey reach the disk only through internal/fsys (its FS, Commit and RemoveTemps)" >&2; exit 1; }
! grep -rn --include='*.go' --exclude='*_test.go' -e 'CommitDelay' -e 'shard-slow' . || { echo "verify: CommitDelay and serve --shard-slow are gone; a test slows the disk through resultstore.Options.FS" >&2; exit 1; }
! grep -rnE --include='*.go' --exclude='*_test.go' -e '\b(Isend|Irecv|WaitAll|ReduceScatter|FitScalingModel\w*|AddFromJSON|AddEvent|EventRecord|spanEvent|CompareSystems|AddOverlay|ImplementsComponent|SeededRNG|ChangedPaths|PRClosed|Homepage|Maintainers)\b' -e 'func \(c \*Comm\) (Allgather|Gather|Wait|System|ComputeFlops|ComputeBytes)\(|type Request struct' -e 'func \(t \*Thicket\) (Len|Filter|Regions)\(|func \(m \*Metadata\) (Matches|Len|Clone|Merge)\(' -e 'func \(s \*Span\) Path\(|func Inject\(|func \(r \*Registry\) PrometheusText\(' -e 'func \(m \*Map\) (GetInt|Lookup|Delete)\(|type Comparison struct|func \(r \*Repo\) Has\(' -e 'func \(e \*Expander\) (Get|Vars)\(|func \(s \*Scheduler\) (Cancel|Clock)\(|"CANCELLED"|scheduler\.Cancelled\b' -e 'func \(a \*Automation\) UseCache\(|func \(e \*Environment\) Remove\(' internal cmd examples scripts || { echo "verify: nothing is exported only for its own tests; the MPI calls, Thicket queries, span events and other names no program reached are gone (see CHANGES.md for the list)" >&2; exit 1; }
! { sed -n '/^type Provide struct/,/^}/p' internal/pkgrepo/pkgrepo.go | grep -w When; sed -n '/^type Workload struct/,/^}/p' internal/ramble/app.go | grep -w Inputs; sed -n '/^type Application struct/,/^}/p' internal/ramble/app.go | grep -w Description; } | grep . || { echo "verify: Provide.When, Workload.Inputs and Application.Description are gone: nothing read them, so a recipe or application that set them was silently ignored" >&2; exit 1; }

echo "==> go test ./..."
go test ./...
# A test that registers a system in the process-wide registry must
# pass when run twice in one process.
go test -count=2 -run '^(TestProvisionCloudCluster|TestSuiteOnProvisionedCloudCluster|TestRunProvisionCmd|TestSubcommandsHonourTimeout)$' ./internal/hpcsim ./internal/core ./cmd/benchpark

echo "==> go test -race (concurrent packages)"
go test -race ./internal/engine ./internal/core ./internal/install ./internal/buildcache ./internal/cachekey ./internal/telemetry ./internal/analysis ./internal/resultstore ./internal/resultsd ./internal/resultshard ./internal/loadgen ./internal/ci ./internal/metricsdb ./cmd/benchlint ./internal/mpisim ./internal/bench
# Order-independence of the rendered metrics is a claim about every
# schedule, so the interleaving test runs many times, not once.
go test -race -count=20 -run '^TestMetricsSnapshotDeterministicAcrossInterleavings$' ./internal/telemetry

echo "==> go test -fuzz (WAL frame decoder, snapshot generation loader, ingest body reader, yamlite scalars, Result codec, traceparent, spec parser, ramble expander; 5s each)"
go test -run '^$' -fuzz '^FuzzScanRecords$' -fuzztime=5s ./internal/resultstore
go test -run '^$' -fuzz '^FuzzReadSnapshot$' -fuzztime=5s ./internal/resultstore
# Whether a pooled decompressor is reused or built depends on the GC, so
# coverage flaps and the minimizer (60 s per "new" input by default)
# would eat the five seconds; spend them on new inputs instead.
go test -run '^$' -fuzz '^FuzzIngestBody$' -fuzztime=5s -fuzzminimizetime=0s ./internal/resultsd
go test -run '^$' -fuzz '^FuzzScalarRoundTrip$' -fuzztime=5s ./internal/yamlite
# The seeds include 4 kB manifests and 10,000-deep nesting; minimizing
# one of those when it reaches new coverage would take the whole budget.
go test -run '^$' -fuzz '^FuzzResultCodec$' -fuzztime=5s -fuzzminimizetime=0s ./internal/metricsdb
go test -run '^$' -fuzz '^FuzzParseTraceparent$' -fuzztime=5s ./internal/telemetry
# Rendering sorts names collected from maps, whose order the runtime
# randomises, so the sort's coverage flaps and the minimizer would
# stall on it.
go test -run '^$' -fuzz '^FuzzParse$' -fuzztime=5s -fuzzminimizetime=0s ./internal/spec
go test -run '^$' -fuzz '^FuzzExpand$' -fuzztime=5s ./internal/ramble

echo "==> smoke (one binary: serve --pprof and every operations endpoint; 4-shard primary + follower under loadgen ingest; plain serve + follower)"
go run ./scripts/smoke

echo "==> incremental re-run gate (second run over a shared cache must replay everything)"
cache_tmp=$(mktemp -d)
go run ./cmd/benchpark --cache-dir "$cache_tmp/cache" saxpy/openmp cts1 "$cache_tmp/cold-ws" >"$cache_tmp/cold.out"
go run ./cmd/benchpark --cache-dir "$cache_tmp/cache" saxpy/openmp cts1 "$cache_tmp/warm-ws" >"$cache_tmp/warm.out"
runline=$(grep '==> cache\[run\]:' "$cache_tmp/warm.out" || true)
echo "    warm: ${runline:-no cache summary printed}"
case "$runline" in
*"misses=0"*) ;;
*)
	echo "verify: warm re-run was not 100% run-layer cache hits" >&2
	cat "$cache_tmp/warm.out" >&2
	exit 1
	;;
esac
case "$runline" in
*"hits=0 "*)
	echo "verify: warm re-run replayed nothing" >&2
	exit 1
	;;
esac
# Every workspace file flows through one tree, so compare the whole tree:
# a replayed .out, .cali or rendered script that differs from the
# executed one fails the gate, not only results.json.
tree() { # sorted "path mode sha256", the workspace's own root normalised out of contents
	(cd "$1" && find . -mindepth 1 | LC_ALL=C sort | while read -r p; do
		if [ -d "$p" ]; then
			echo "$p $(stat -c %a "$p") -"
		else
			echo "$p $(stat -c %a "$p") $(sed "s|$1|\$WORKSPACE|g" "$p" | sha256sum | cut -d' ' -f1)"
		fi
	done)
}
tree "$cache_tmp/cold-ws" >"$cache_tmp/cold.tree"
tree "$cache_tmp/warm-ws" >"$cache_tmp/warm.tree"
grep -q '^\./logs/results\.json ' "$cache_tmp/cold.tree" || {
	echo "verify: cold run left no logs/results.json" >&2
	exit 1
}
diff "$cache_tmp/cold.tree" "$cache_tmp/warm.tree" >&2 || {
	echo "verify: warm re-run left a different workspace tree" >&2
	exit 1
}
rm -rf "$cache_tmp"

echo "==> verify OK"
