package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// runSeconds is the measured-phase length BENCHMARK.json declares and
// `sysbench run` defaults to.
const runSeconds = 12

// workloadDef names one workload and records why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// workloads is the benchmark's fixed workload list, in run order.
var workloads = []workloadDef{
	{"loop_cold", "nightlies with no cachekey store: every session solves, installs and runs kernels, so engine/concretizer/worker-pool changes show here and results-plane changes do not"},
	{"loop_warm", "nightlies over a primed shared cachekey store: solve, build and kernels are replayed, leaving core setup, ramble, file IO, cache decode and the push; kernel work predicts no change"},
	{"ingest_single", "2 closed-loop clients push 5-result batches and every 10th a 100-result batch into one resultstore, no reads: codec, mutex, fsync, apply and compaction of default benchpark serve"},
	{"ingest_sharded", "the identical push schedule into a 4-shard resultshard.Router: queues, commit workers and fan-out over four small stores, the one-box sharded-vs-single comparison"},
	{"dashboard_mixed", "1 writer beside 1 reader of Series/Regressions over a preloaded 100k-result store: scans under RLock beside appends under Lock, so a read index that taxes writes or memory shows"},
}

// tier says where a metric is reported.
type tier int

const (
	// endToEnd metrics are emitted by every workload's untraced pass
	// and gated by the driver through BENCHMARK.json.
	endToEnd tier = iota
	// perLayer metrics are emitted by every workload's traced pass and
	// listed, ungated, in BENCHMARK.json.
	perLayer
	// detail metrics exist only on the workloads that have the op they
	// measure; `sysbench run` prints them and `sysbench compare` gates
	// the ones with a bound, but the driver's schema (every listed
	// metric on every workload) cannot carry them.
	detail
)

// metricDef is one named metric: its unit, which way is better, the
// share by which it may worsen before compare (or the driver) flags
// it, which list of BENCHMARK.json it is in, and which pass's value
// `sysbench run` keeps for it.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // 0 = reported, never gated
	Tier   tier
	Traced bool // `run` keeps the traced pass's value (per-layer numbers)
}

// defs is the single table of every metric the harness may emit.
// BENCHMARK.json is generated from its endToEnd and perLayer rows
// (`sysbench contract`); a test pins the committed file to it.
var defs = []metricDef{
	// Contract end-to-end, gated by the driver: what a deployment pays
	// that this box can measure repeatably. The work of a run is fixed,
	// so these repeat to 0.0-0.11 of their median across ten seeds.
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Tier: endToEnd},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.05, Tier: endToEnd},
	{Name: "disk_bytes_per_result", Unit: "B", Better: "lower", Bound: 0.05, Tier: endToEnd},
	{Name: "write_bytes_per_result", Unit: "B", Better: "lower", Bound: 0.25, Tier: endToEnd},
	{Name: "alloc_mb_per_kop", Unit: "MB", Better: "lower", Bound: 0.25, Tier: endToEnd},

	// The timed end-to-end metrics, measured on every workload but NOT
	// gated by the driver. "cycle" is the workload's user-visible unit
	// of work: one session (setup → run → push durably acked →
	// regressions answered) on loop_*, one 100-result bulk push on
	// ingest_*, one GET on dashboard_mixed. "work" is experiments
	// executed (loop_*), results durably acked (ingest_*), GETs answered
	// (dashboard_mixed).
	//
	// Ungated because no timed cell repeats on the reference box: its
	// fsync median drifts between 0.2 and 0.9 ms, its second vCPU runs
	// 0-25 % slower whenever both are busy, stolen time is charged as
	// CPU, and the drift lasts minutes, so ten back-to-back runs of one
	// commit spread by 0.05-0.42 of their median in quiet periods and
	// 0.9 in a bad one — past the widest bound the driver allows
	// (0.25) in four sweeps of five. The issue's rule: a cell that will
	// not repeat moves to the ungated list, bounds are not widened. The
	// driver records them from the traced pass; `run` and `compare` use
	// the untraced pass's values and the issue's 0.10.
	{Name: "cycle_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10, Tier: perLayer},
	{Name: "cycle_p90_ms", Unit: "ms", Better: "lower", Bound: 0.10, Tier: perLayer},
	{Name: "work_per_s", Unit: "1/s", Better: "higher", Bound: 0.10, Tier: perLayer},
	{Name: "push_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10, Tier: perLayer},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.10, Tier: perLayer},

	// Contract per-layer: the results-plane and process boundaries
	// every workload crosses.
	{Name: "resultsd.push_self_p50_ms", Unit: "ms", Better: "lower", Tier: perLayer, Traced: true},
	{Name: "backend.append_p50_ms", Unit: "ms", Better: "lower", Tier: perLayer, Traced: true},
	{Name: "backend.append_p90_ms", Unit: "ms", Better: "lower", Tier: perLayer, Traced: true},
	{Name: "resultsd.codec.encode_us", Unit: "us", Better: "lower", Tier: perLayer, Traced: true},
	{Name: "resultsd.codec.decode_us", Unit: "us", Better: "lower", Tier: perLayer, Traced: true},
	{Name: "resultsd.wire_bytes_per_result", Unit: "B", Better: "lower", Tier: perLayer, Traced: true},
	{Name: "resultstore.recover_ms", Unit: "ms", Better: "lower", Tier: perLayer, Traced: true},
	{Name: "disk.fsync_p50_ms", Unit: "ms", Better: "lower", Tier: perLayer, Traced: true},
	{Name: "proc.gc_pause_ms_total", Unit: "ms", Better: "lower", Tier: perLayer, Traced: true},

	// Detail, untraced pass: the issue's named cells, each only where
	// the workload has the op.
	{Name: "nightly_p50_s", Unit: "s", Better: "lower", Bound: 0.10, Tier: detail},
	{Name: "nightly_p90_s", Unit: "s", Better: "lower", Bound: 0.10, Tier: detail},
	{Name: "experiments_per_s", Unit: "1/s", Better: "higher", Bound: 0.10, Tier: detail},
	{Name: "push_p90_ms", Unit: "ms", Better: "lower", Bound: 0.10, Tier: detail},
	{Name: "bulk_push_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10, Tier: detail},
	{Name: "results_per_s", Unit: "1/s", Better: "higher", Bound: 0.10, Tier: detail},
	{Name: "series_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10, Tier: detail},
	{Name: "series_p90_ms", Unit: "ms", Better: "lower", Bound: 0.10, Tier: detail},
	{Name: "regressions_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10, Tier: detail},
	{Name: "regressions_p90_ms", Unit: "ms", Better: "lower", Bound: 0.10, Tier: detail},
	{Name: "queries_per_s", Unit: "1/s", Better: "higher", Bound: 0.10, Tier: detail},
	{Name: "failed_ratio", Unit: "ratio", Better: "lower", Tier: detail},
	{Name: "resultsd.push_p99_ms", Unit: "ms", Better: "lower", Tier: detail},
	{Name: "resultstore.stall_count", Unit: "count", Better: "lower", Tier: detail},
	{Name: "resultstore.stall_ms_total", Unit: "ms", Better: "lower", Tier: detail},
	{Name: "resultsd.systems_p50_ms", Unit: "ms", Better: "lower", Tier: detail},

	// Detail, traced pass.
	{Name: "core.new_ms", Unit: "ms", Better: "lower", Tier: detail, Traced: true},
	{Name: "core.setup_ms", Unit: "ms", Better: "lower", Tier: detail, Traced: true},
	{Name: "core.run_ms", Unit: "ms", Better: "lower", Tier: detail, Traced: true},
	{Name: "engine.stage.setup_ms", Unit: "ms", Better: "lower", Tier: detail, Traced: true},
	{Name: "engine.stage.install_ms", Unit: "ms", Better: "lower", Tier: detail, Traced: true},
	{Name: "engine.stage.execute_ms", Unit: "ms", Better: "lower", Tier: detail, Traced: true},
	{Name: "engine.stage.commit_ms", Unit: "ms", Better: "lower", Tier: detail, Traced: true},
	{Name: "engine.stage.analyze_ms", Unit: "ms", Better: "lower", Tier: detail, Traced: true},
	{Name: "engine.execute_parallelism", Unit: "ratio", Better: "higher", Tier: detail, Traced: true},
	{Name: "engine.self_ms", Unit: "ms", Better: "lower", Tier: detail, Traced: true},
	{Name: "metricsdb.bridge_ms", Unit: "ms", Better: "lower", Tier: detail, Traced: true},
	{Name: "workspace.remove_ms", Unit: "ms", Better: "lower", Tier: detail, Traced: true},
	{Name: "loop.push_ms", Unit: "ms", Better: "lower", Tier: detail, Traced: true},
	{Name: "loop.regressions_ms", Unit: "ms", Better: "lower", Tier: detail, Traced: true},
	{Name: "loop.unattributed_ms", Unit: "ms", Better: "lower", Tier: detail, Traced: true},
	{Name: "loop.unattributed_ratio", Unit: "ratio", Better: "lower", Tier: detail, Traced: true},
	{Name: "engine.cache_hit_ratio", Unit: "ratio", Better: "higher", Tier: detail, Traced: true},
	{Name: "concretizer.memo_hit_ratio", Unit: "ratio", Better: "higher", Tier: detail, Traced: true},
	{Name: "buildcache.hit_ratio", Unit: "ratio", Better: "higher", Tier: detail, Traced: true},
	{Name: "cachekey.bytes_per_session", Unit: "B", Better: "lower", Tier: detail, Traced: true},
	{Name: "core.workspace_files_per_session", Unit: "count", Better: "lower", Tier: detail, Traced: true},
	{Name: "core.workspace_bytes_per_session", Unit: "B", Better: "lower", Tier: detail, Traced: true},
	{Name: "resultstore.append_p50_ms", Unit: "ms", Better: "lower", Tier: detail, Traced: true},
	{Name: "resultstore.append_p99_ms", Unit: "ms", Better: "lower", Tier: detail, Traced: true},
	{Name: "resultshard.append_p50_ms", Unit: "ms", Better: "lower", Tier: detail, Traced: true},
	{Name: "resultshard.append_p99_ms", Unit: "ms", Better: "lower", Tier: detail, Traced: true},
	{Name: "resultshard.fanout_mean", Unit: "count", Better: "lower", Tier: detail, Traced: true},
	{Name: "resultshard.overloads", Unit: "count", Better: "lower", Tier: detail, Traced: true},
	{Name: "resultsd.codec.bulk_encode_us", Unit: "us", Better: "lower", Tier: detail, Traced: true},
	{Name: "resultsd.codec.bulk_decode_us", Unit: "us", Better: "lower", Tier: detail, Traced: true},
	{Name: "resultsd.bulk_wire_bytes_per_result", Unit: "B", Better: "lower", Tier: detail, Traced: true},
	{Name: "resultstore.write_amp", Unit: "ratio", Better: "lower", Tier: detail, Traced: true},
	{Name: "metricsdb.series_p50_ms", Unit: "ms", Better: "lower", Tier: detail, Traced: true},
	{Name: "metricsdb.detect_p50_ms", Unit: "ms", Better: "lower", Tier: detail, Traced: true},
	{Name: "metricsdb.points_per_series", Unit: "count", Better: "higher", Tier: detail, Traced: true},
	{Name: "resultsd.query_self_p50_ms", Unit: "ms", Better: "lower", Tier: detail, Traced: true},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower", Tier: detail, Traced: true},
}

// defByName indexes defs.
var defByName = func() map[string]metricDef {
	m := make(map[string]metricDef, len(defs))
	for _, d := range defs {
		if _, dup := m[d.Name]; dup {
			panic("sysbench: duplicate metric " + d.Name)
		}
		m[d.Name] = d
	}
	return m
}()

// metricValue is one measured metric as every output carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is the number of timed ops behind a percentile; 0 for
	// metrics that are not percentiles.
	Samples int `json:"samples,omitempty"`
}

// metricSet collects one pass's metrics by name.
type metricSet map[string]metricValue

// put records a metric; the name must be in defs so units cannot drift
// between the code, BENCHMARK.json and the README.
func (m metricSet) put(name string, v float64) { m.putN(name, v, 0) }

func (m metricSet) putN(name string, v float64, samples int) {
	d, ok := defByName[name]
	if !ok {
		panic("sysbench: metric " + name + " is not in the defs table")
	}
	m[name] = metricValue{Value: v, Unit: d.Unit, Samples: samples}
}

// putPercentiles records the median of a sample set unconditionally
// and each higher percentile only when at least ten samples lie beyond
// it (the choosing-metrics rule); names[i] pairs with qs[i].
func (m metricSet) putPercentiles(s []float64, names []string, qs []float64) {
	sorted := sortedCopy(s)
	for i, name := range names {
		v, supported := percentile(sorted, qs[i])
		if len(sorted) == 0 || (qs[i] > 0.5 && !supported) {
			continue
		}
		m.putN(name, v, len(sorted))
	}
}

// print writes every metric by name with its unit, in defs order:
// end-to-end first, then per-layer.
func (m metricSet) print(w io.Writer) {
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			continue
		}
		n := ""
		if v.Samples > 0 {
			n = fmt.Sprintf("  n=%d", v.Samples)
		}
		fmt.Fprintf(w, "  %-38s %14.4f %-6s%s\n", d.Name, v.Value, v.Unit, n)
	}
}

// contractLine is the JSON object the driver reads from the last line
// of standard output.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// missingContractMetrics lists the metrics the driver expects from a
// pass that m lacks.
func missingContractMetrics(m metricSet, traced bool) (missing []string) {
	for _, d := range defs {
		if _, ok := m[d.Name]; !ok && d.Tier == contractTier(traced) {
			missing = append(missing, d.Name)
		}
	}
	return missing
}

func contractTier(traced bool) tier {
	if traced {
		return perLayer
	}
	return endToEnd
}

// contractMetrics filters a pass's metrics down to the list the driver
// expects for it, failing when one is missing: the driver's schema has
// no "not applicable".
func contractMetrics(m metricSet, traced bool) (map[string]contractMetric, error) {
	if missing := missingContractMetrics(m, traced); len(missing) > 0 {
		return nil, fmt.Errorf("contract metrics %v were not measured (a p90 needs 100 samples: is --seconds too small?)", missing)
	}
	out := map[string]contractMetric{}
	for _, d := range defs {
		if v, ok := m[d.Name]; ok && d.Tier == contractTier(traced) {
			out[d.Name] = contractMetric{Value: v.Value, Unit: v.Unit}
		}
	}
	return out, nil
}

// benchmarkJSON renders BENCHMARK.json from the tables above.
func benchmarkJSON() ([]byte, error) {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []e2e         `json:"end_to_end"`
		PerLayer   []layer       `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./benchmarks/sysbench", "run-one"},
		Paths:      []string{"benchmarks"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
	}
	for _, d := range defs {
		switch d.Tier {
		case endToEnd:
			doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
		case perLayer:
			doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
		}
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
