package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// schedule renders the first ops of every generated input stream.
func schedule(t *testing.T, seed int64) []byte {
	t.Helper()
	g := gen{seed: seed}
	var doc struct {
		Nightlies [][]sessionSpec
		Ingest    [][]pushOp
		Writer    []pushOp
		Preload   []pushOp
		Rotation  any
	}
	n := g.nightlies()
	for i := 0; i < 5; i++ {
		doc.Nightlies = append(doc.Nightlies, n.next())
	}
	for _, name := range []string{"c0", "c1"} {
		s := g.pushStream(name, ingestSize, nil)
		var ops []pushOp
		for i := 0; i < 40; i++ {
			ops = append(ops, s.next())
		}
		doc.Ingest = append(doc.Ingest, ops)
	}
	wr := g.pushStream("writer", fixedSize(dashboardBatch), func(s string) bool { return s != systemOf(0) })
	pre := g.pushStream("preload", fixedSize(preloadBatch), nil)
	for i := 0; i < 20; i++ {
		doc.Writer = append(doc.Writer, wr.next())
		doc.Preload = append(doc.Preload, pre.next())
	}
	doc.Rotation = g.filterRotation()
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	a, b, c := schedule(t, 7), schedule(t, 7), schedule(t, 8)
	if !bytes.Equal(a, b) {
		t.Error("same seed produced different op schedules")
	}
	if bytes.Equal(a, c) {
		t.Error("different seeds produced the same op schedule")
	}
}

func TestGeneratedTrafficShape(t *testing.T) {
	g := gen{seed: 3}
	s := g.pushStream("c0", ingestSize, nil)
	keys := map[string]bool{}
	for i := 0; i < 100; i++ {
		op := s.next()
		want := smallBatch
		if i%10 == 9 {
			want = bulkBatch
		}
		if len(op.Results) != want {
			t.Fatalf("op %d has %d results, want %d", i, len(op.Results), want)
		}
		if keys[op.Key] {
			t.Fatalf("ingest key %s repeats", op.Key)
		}
		keys[op.Key] = true
	}
	wr := g.pushStream("writer", fixedSize(dashboardBatch), func(s string) bool { return s != systemOf(3) })
	for i := 0; i < 200; i++ {
		for _, r := range wr.next().Results {
			if r.System == systemOf(3) {
				t.Fatalf("dashboard writer reported from excluded %s", r.System)
			}
		}
	}
	if got := len(g.filterRotation()); got != fleetSystems*fleetBenchmarks {
		t.Fatalf("rotation has %d filters", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1) // 1..100
	}
	for _, tc := range []struct {
		q         float64
		want      float64
		supported bool
	}{
		{0.5, 50, true},
		{0.9, 90, true},   // exactly 10 beyond
		{0.99, 99, false}, // 1 beyond
	} {
		got, ok := percentile(s, tc.q)
		if got != tc.want || ok != tc.supported {
			t.Errorf("p%v of 1..100 = %v (supported %v), want %v (%v)", tc.q*100, got, ok, tc.want, tc.supported)
		}
	}
	if v, ok := percentile([]float64{1, 2, 3, 4, 5}, 0.5); v != 3 || ok {
		t.Errorf("p50 of 1..5 = %v (supported %v), want 3 (false)", v, ok)
	}
	if _, ok := percentile(s[:99], 0.9); ok {
		t.Error("p90 of 99 samples has only 9 beyond it and must be unsupported")
	}
	if v, ok := percentile(nil, 0.5); v != 0 || ok {
		t.Error("percentile of nothing must be 0, unsupported")
	}

	// The median is always reported; a higher percentile only when
	// supported.
	m := metricSet{}
	m.putPercentiles(s[:30], []string{"push_p50_ms", "push_p90_ms"}, []float64{0.5, 0.9})
	if _, ok := m["push_p50_ms"]; !ok {
		t.Error("median of 30 samples missing")
	}
	if _, ok := m["push_p90_ms"]; ok {
		t.Error("p90 of 30 samples (3 beyond) must be omitted")
	}
	if m["push_p50_ms"].Samples != 30 {
		t.Errorf("sample count %d, want 30", m["push_p50_ms"].Samples)
	}
}

func TestStalls(t *testing.T) {
	count, excess := stalls([]float64{1, 1, 1, 19, 21, 101}, 1)
	if count != 2 || excess != 120 {
		t.Errorf("stalls = %d, %v; want 2, 120", count, excess)
	}
}

func TestSelfTime(t *testing.T) {
	v := newTraceView([]span{
		{Name: "parent", Parent: noSpan, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 20, End: 50},  // overlaps a: union is 10..50
		{Name: "c", Parent: 0, Start: 90, End: 120}, // clipped to the parent: 90..100
		{Name: "a", Parent: 1, Start: 12, End: 18},  // grandchild, same name as its parent
	})
	for id, want := range map[int]time.Duration{0: 50, 1: 14, 4: 6} {
		if got := v.selfTime(id); got != want {
			t.Errorf("span %d self time %v, want %v", id, got, want)
		}
	}
	lt := v.under(0)
	if lt.total["a"] != 26 || lt.self["a"] != 20 || lt.total["parent"] != 100 || lt.self["parent"] != 50 {
		t.Errorf("under(0) = %+v", lt)
	}
	total, self := v.byName("b")
	if len(total) != 1 || total[0] != ms(30) || self[0] != ms(30) {
		t.Errorf("byName(b) = %v, %v", total, self)
	}
	var untraced *traceView
	if total, self := untraced.byName("a"); total != nil || self != nil {
		t.Error("a nil view has spans")
	}
}

func TestRecorderLinksBackendSpansToTheirOp(t *testing.T) {
	r := newRecorder()
	root := r.start("resultsd.push", "key-1", noSpan)
	r.addUnderOp("backend.append", "key-1", time.Now(), time.Millisecond)
	r.end(root)
	r.addUnderOp("backend.append", "key-1", time.Now(), time.Millisecond)
	spans := r.view().spans
	if spans[1].Parent != root {
		t.Errorf("backend span under an open op has parent %d, want %d", spans[1].Parent, root)
	}
	if spans[2].Parent != noSpan {
		t.Errorf("backend span after the op ended has parent %d, want none", spans[2].Parent)
	}
	var nilRec *recorder
	nilRec.end(nilRec.start("x", "y", noSpan)) // the untraced pass: no-ops
	nilRec.reset()
	if nilRec.view() != nil {
		t.Error("nil recorder returned a view")
	}
}

func TestBenchmarkJSONMatchesTheMetricTable(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json is stale: regenerate it with `go run ./benchmarks/sysbench contract > BENCHMARK.json`")
	}
	for _, d := range defs {
		if d.Tier == endToEnd && (d.Bound <= 0 || d.Bound > 0.25) {
			t.Errorf("%s: end-to-end bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: direction %q", d.Name, d.Better)
		}
	}
}

func TestCompare(t *testing.T) {
	// nightly_p50_s is lower-is-better, experiments_per_s higher, both
	// gated at 0.10; resultsd.push_p99_ms is reported, never gated.
	mk := func(nightly, rate float64) *suiteResult {
		m := metricSet{}
		m.put("nightly_p50_s", nightly)
		m.put("experiments_per_s", rate)
		m.put("resultsd.push_p99_ms", 500*nightly)
		return &suiteResult{Format: suiteFormat, Workloads: map[string]*workloadResult{
			"loop_cold": {Correct: true, Attempted: 10, Metrics: m},
		}}
	}
	var out strings.Builder
	if n := compare(&out, mk(10, 100), mk(10.9, 91)); n != 0 {
		t.Errorf("9%% worse on both counts as %d cells outside a 0.10 bound:\n%s", n, out.String())
	}
	if n := compare(&out, mk(10, 100), mk(5, 300)); n != 0 {
		t.Errorf("an improvement counts as %d cells outside", n)
	}
	out.Reset()
	if n := compare(&out, mk(10, 100), mk(11.5, 85)); n != 2 {
		t.Errorf("15%% worse latency and throughput: %d cells outside, want 2:\n%s", n, out.String())
	}
	if !strings.Contains(out.String(), "OUTSIDE") || !strings.Contains(out.String(), "1.150") {
		t.Errorf("report does not show the ratio and verdict:\n%s", out.String())
	}
	bad := mk(10, 100)
	bad.Workloads["loop_cold"].Failed = 1
	if n := compare(&out, mk(10, 100), bad); n != 1 {
		t.Errorf("a failed op on one side: %d cells outside, want 1", n)
	}
}

// TestSmokeAllWorkloads runs every workload at 1/100 size so tier-1
// `go test ./...` exercises the whole harness: set-up, the closed
// loop, both metric tiers, every correctness check and the trace file.
func TestSmokeAllWorkloads(t *testing.T) {
	out := t.TempDir()
	run := func(name string, traced bool) *outcome {
		t.Helper()
		res, err := runOne(context.Background(), config{
			workload: name, seed: 1, seconds: 0.2, traced: traced,
			dataDir: t.TempDir(), outDir: out, scale: 0.01, setups: 1,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("%s: correct=%v failed=%d attempted=%d error=%q", name, res.Correct, res.Failed, res.Attempted, res.Error)
		}
		return res
	}
	for _, wl := range workloads {
		res := run(wl.Name, true)
		// The traced pass measures the end-to-end metrics too, so one
		// pass shows that both contract tiers are complete — but for
		// the p90s, which a smoke-sized run has too few samples for.
		for _, traced := range []bool{false, true} {
			for _, name := range missingContractMetrics(res.Metrics, traced) {
				if !strings.HasSuffix(name, "_p90_ms") {
					t.Errorf("%s: contract metric %s was not measured", wl.Name, name)
				}
			}
		}
		for name, v := range res.Metrics {
			if d := defByName[name]; d.Tier != detail && v.Value == 0 {
				t.Errorf("%s: contract metric %s is 0", wl.Name, name)
			}
		}
		trace, err := os.ReadFile(filepath.Join(out, "trace-"+wl.Name+".json"))
		if err != nil || !bytes.Contains(trace, []byte(`"backend.append"`)) {
			t.Errorf("%s: trace file missing or without backend spans (%v)", wl.Name, err)
		}
	}
	// The untraced pass is the same code over a nil recorder.
	res := run("ingest_single", false)
	if _, ok := res.Metrics["backend.append_p50_ms"]; ok {
		t.Error("untraced pass reported a per-layer metric")
	}
}
