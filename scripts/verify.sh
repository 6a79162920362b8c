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
# that loader end to end, the ramble CLI (`ramble on` is a Session.Run
# on the engine's worker pool), and the simulated MPI runtime with the kernels
# that run on it (one goroutine per rank, up to 3,456 a job, meeting in
# hand-written mailboxes: a mutex and a condition per rank). After it, the result store's three decoders of
# on-disk bytes — WAL frames, WAL record payloads and snapshot
# generations — the ingest
# handler's reader of network bytes (plain or gzip, through its pooled
# decompressor), the regression reply it encodes by hand against
# encoding/json, yamlite's scalar emitter/parser round trip, the
# Result codec against encoding/json, both directions, telemetry's
# traceparent header parser, the spec parser's render/re-parse
# round trip, the decoder of stored concrete DAGs (spack.lock,
# concretize-layer entries and the install database are read from
# disk), ramble's memoising variable expander against its
# memo-less oracle (templates and variable tables are user-written
# YAML), ramble's expansion of an experiment template against a
# nested-loop oracle (`ramble workspace setup` and `ramble on` expand
# a configs/ramble.yaml read back from disk), core's restore of a run-layer entry (bytes read back from
# a shared cache directory), core's hand-appended logs/results.json
# against json.MarshalIndent, and the concretize and buildcache
# layers' hand codecs against encoding/json (the entry decoders, read
# from the same shared directory, and the key encoders) are fuzzed
# for five seconds each from their seed corpora.
#
# benchlint runs once — `go run ./cmd/benchlint`, no flags: every
# analyzer over every package, any unsuppressed finding fails, and its
# message says what to change. It is the one place a source rule is enforced: the names
# the project retired and the objects confined to a few packages are
# rows of its guards analyzer (internal/analysis/guards.go), and this
# script greps no Go source. scripts/smoke builds the real binary
# once and smoke-checks two planes with it: the ops plane — it scrapes
# /healthz, /readyz, /metrics, /debug/ops and /debug/pprof, then pushes
# a suite and checks the push left its TMPDIR empty — and the
# federation plane end to end: a 4-shard primary plus one
# snapshot-shipping follower under loadgen ingest, follower reads
# during ingest, byte-identical reads after a pass that started once
# ingest ended, and a follower of a plain serve.
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

# stage [NAME [DETAIL...]]: print the running stage's wall time, then
# announce NAME as the next one (none without arguments).
verify_t0=$(date +%s)
stage_name='' stage_t0=$verify_t0
stage() {
	now=$(date +%s)
	if [ -n "$stage_name" ]; then
		echo "==> $stage_name took $((now - stage_t0))s"
	fi
	stage_name=${1-} stage_t0=$now
	if [ $# -gt 0 ]; then
		echo "==> $*"
	fi
}

stage "go build ./..."
go build ./...

stage "go vet ./..."
go vet ./...

stage "benchlint" "(project invariants and source rules)"
go run ./cmd/benchlint

# -count=1 on every test step: a gate re-run on an unchanged tree runs
# the tests again instead of reporting cached passes.
stage "go test ./..."
go test -count=1 ./...
# A test that registers a system in the process-wide registry must
# pass when run twice in one process.
go test -count=2 -run '^(TestProvisionCloudCluster|TestSuiteOnProvisionedCloudCluster|TestRunProvisionCmd|TestSubcommandsHonourTimeout)$' ./internal/hpcsim ./internal/core ./cmd/benchpark

stage "go test -race" "(concurrent packages)"
go test -race -count=1 ./internal/engine ./internal/core ./internal/install ./internal/buildcache ./internal/cachekey ./internal/telemetry ./internal/analysis ./internal/resultstore ./internal/resultsd ./internal/resultshard ./internal/loadgen ./internal/ci ./internal/metricsdb ./cmd/benchlint ./cmd/ramble ./internal/mpisim ./internal/bench
# Order-independence of the rendered metrics is a claim about every
# schedule, so the interleaving test runs many times, not once.
go test -race -count=20 -run '^TestMetricsSnapshotDeterministicAcrossInterleavings$' ./internal/telemetry

stage "go test -fuzz" "(WAL frame decoder, WAL record decoder, snapshot generation loader, ingest body reader, regression reply encoder, yamlite scalars, Result codec, traceparent, spec parser, stored DAG decoder, ramble expander, ramble template expansion, run-layer restore, results.json encoder, concretize entry decoder, concretize config fingerprint, buildcache entry codec; 5s each)"
go test -run '^$' -fuzz '^FuzzScanRecords$' -fuzztime=5s ./internal/resultstore
go test -run '^$' -fuzz '^FuzzWALRecord$' -fuzztime=5s ./internal/resultstore
# Each FuzzReadSnapshot exec opens and closes a store (a goroutine and an
# fsync), so its coverage flaps as well; see the note below.
go test -run '^$' -fuzz '^FuzzReadSnapshot$' -fuzztime=5s -fuzzminimizetime=0s ./internal/resultstore
# Whether a pooled decompressor is reused or built depends on the GC, so
# coverage flaps and the minimizer (60 s per "new" input by default)
# would eat the five seconds; spend them on new inputs instead.
go test -run '^$' -fuzz '^FuzzIngestBody$' -fuzztime=5s -fuzzminimizetime=0s ./internal/resultsd
# A regression reply is built in room the last one handed back, so
# coverage flaps with the GC the same way.
go test -run '^$' -fuzz '^FuzzRegressionsBody$' -fuzztime=5s -fuzzminimizetime=0s ./internal/resultsd
go test -run '^$' -fuzz '^FuzzScalarRoundTrip$' -fuzztime=5s ./internal/yamlite
# The seeds include 4 kB manifests and 10,000-deep nesting; minimizing
# one of those when it reaches new coverage would take the whole budget.
go test -run '^$' -fuzz '^FuzzResultCodec$' -fuzztime=5s -fuzzminimizetime=0s ./internal/metricsdb
go test -run '^$' -fuzz '^FuzzParseTraceparent$' -fuzztime=5s ./internal/telemetry
# Rendering sorts names collected from maps, whose order the runtime
# randomises, so the sort's coverage flaps and the minimizer would
# stall on it.
go test -run '^$' -fuzz '^FuzzParse$' -fuzztime=5s -fuzzminimizetime=0s ./internal/spec
# Decoding walks each node's edges in map order, so its coverage flaps
# the same way.
go test -run '^$' -fuzz '^FuzzDecodeDAG$' -fuzztime=5s -fuzzminimizetime=0s ./internal/spec
go test -run '^$' -fuzz '^FuzzExpand$' -fuzztime=5s ./internal/ramble
go test -run '^$' -fuzz '^FuzzExpansionMatchesOracle$' -fuzztime=5s ./internal/ramble
# The seeds are whole run-layer entries of a few kB; minimizing one
# that reaches new coverage would take the whole budget.
go test -run '^$' -fuzz '^FuzzRestoreExperiment$' -fuzztime=5s -fuzzminimizetime=0s ./internal/core
# logs/results.json sorts each experiment's FOM names out of a map, so
# the sort's coverage flaps as FuzzParse's does.
go test -run '^$' -fuzz '^FuzzResultsLog$' -fuzztime=5s -fuzzminimizetime=0s ./internal/core
# A concretize entry's nodes and deps are maps and the fingerprint sorts
# names taken from maps, so their coverage flaps as FuzzDecodeDAG's
# does; a buildcache entry is checked beside its key, whose hash input
# flaps the same way.
go test -run '^$' -fuzz '^FuzzConcretizeEntry$' -fuzztime=5s -fuzzminimizetime=0s ./internal/concretizer
go test -run '^$' -fuzz '^FuzzFingerprint$' -fuzztime=5s -fuzzminimizetime=0s ./internal/concretizer
go test -run '^$' -fuzz '^FuzzEntry$' -fuzztime=5s -fuzzminimizetime=0s ./internal/buildcache

stage "smoke" "(one binary: serve --pprof and every operations endpoint; 4-shard primary + follower under loadgen ingest; plain serve + follower)"
go run ./scripts/smoke

stage "incremental re-run gate" "(second run over a shared cache must replay everything)"
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

stage
echo "==> verify OK in $(($(date +%s) - verify_t0))s"
