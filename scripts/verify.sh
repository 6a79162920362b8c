#!/bin/sh
# verify.sh — the repo's full verification gate.
#
# Runs the tier-1 check (build + vet + benchlint + full test suite)
# and then the race-detector pass over the packages that do real
# concurrency: the execution engine, the session/scaling orchestration
# built on it, the parallel installer, the concurrency-safe build
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
# check). The ops plane is smoke-checked by scripts/opssmoke, which
# starts the real binary and scrapes /healthz, /readyz, /metrics, /debug/ops, and /debug/pprof,
# then pushes a suite into it and checks the push left its TMPDIR empty.
# The federation plane is smoke-checked end to end by
# scripts/fedsmoke: a 4-shard primary plus one snapshot-shipping
# follower under loadgen ingest, follower reads during ingest,
# byte-identical reads after a pass that started once ingest ended,
# a follower of a plain serve, and the 429/Retry-After backpressure
# contract on an overloaded shard.
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

echo "==> go test ./..."
go test ./...

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

echo "==> ops-plane smoke (serve --metrics --pprof, scrape every operations endpoint)"
go run ./scripts/opssmoke

echo "==> federation smoke (4-shard primary + follower, loadgen ingest, plain serve + follower, 429 backpressure)"
go run ./scripts/fedsmoke

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
