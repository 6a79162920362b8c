package core

import (
	"context"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/cachekey"
	"repro/internal/hpcsim"
	"repro/internal/metricsdb"
	"repro/internal/telemetry"
)

// goldenStudies are the scaling studies whose every number
// testdata/studies.golden pins: Figure 14 at reduced scale, the AMG
// strong-scaling sweep (per-scale variables) and a repeated OSU sweep
// (more than one rep per scale).
func goldenStudies(t *testing.T) map[string]*ScalingStudy {
	t.Helper()
	cts, err := hpcsim.Get("cts1")
	if err != nil {
		t.Fatal(err)
	}
	fig14, err := Figure14Study([]int{36, 72, 144, 288, 576})
	if err != nil {
		t.Fatal(err)
	}
	amg, err := AMGStrongScalingStudy(cts, 16, 16, 64, []int{2, 4, 8, 16})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*ScalingStudy{
		"figure14":   fig14,
		"amg-strong": amg,
		"osu-reps": {
			System: cts, Benchmark: "osu-micro-benchmarks", Workload: "osu_bcast",
			FOM:    "total_time",
			Vars:   map[string]string{"message_size": "4096", "iterations": "1000"},
			Scales: []int{8, 16, 36, 72},
			Reps:   2,
		},
	}
}

// studyBlock runs one study and renders what the golden file pins:
// each measurement's scale and the bits of its value, then the model.
// It also returns the experiments of the metrics DB's rows, in order.
func studyBlock(t *testing.T, name string, st *ScalingStudy, jobs int) (string, []string) {
	t.Helper()
	bp := New()
	res, err := st.Run(context.Background(), bp, jobs)
	if err != nil {
		t.Fatalf("%s jobs=%d: %v", name, jobs, err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s\n", name)
	for _, m := range res.Measurements {
		fmt.Fprintf(&b, "p=%g\t%016x\n", m.P, math.Float64bits(m.Value))
	}
	fmt.Fprintf(&b, "model: %s\n", res.Model)
	var rows []string
	for _, r := range bp.Metrics.Query(metricsdb.Filter{}) {
		rows = append(rows, r.Experiment)
	}
	return b.String(), rows
}

// TestStudiesGolden pins every measurement and model the scaling
// studies produce, at one worker and at eight, and checks that both
// commit their metrics DB rows in the same order. To record the file anew
// — only when the studies' numbers are meant to change — delete it and
// run the test.
func TestStudiesGolden(t *testing.T) {
	const path = "testdata/studies.golden"
	names := []string{"figure14", "amg-strong", "osu-reps"}
	studies := goldenStudies(t)
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		var b strings.Builder
		for _, name := range names {
			block, _ := studyBlock(t, name, studies[name], 1)
			b.WriteString(block)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s did not exist and has been recorded from this tree; review it and run again", path)
	}
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	rows := map[int][]string{}
	for _, jobs := range []int{1, 8} {
		got.Reset()
		for _, name := range names {
			block, exps := studyBlock(t, name, studies[name], jobs)
			got.WriteString(block)
			rows[jobs] = append(rows[jobs], exps...)
		}
		if got.String() != string(raw) {
			t.Errorf("jobs=%d:\n got:\n%s\nwant:\n%s", jobs, got.String(), raw)
		}
	}
	if !slices.Equal(rows[1], rows[8]) {
		t.Errorf("metrics DB rows in experiment order\n%v at jobs=1,\n%v at jobs=8", rows[1], rows[8])
	}
}

// TestStudyReplaysFromRunCache: a study's points are session
// experiments, so a second run over the same durable store replays
// every point from the run layer and measures exactly the same values.
func TestStudyReplaysFromRunCache(t *testing.T) {
	st, err := cachekey.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	run := func() (*StudyResult, map[string]int64) {
		t.Helper()
		study, err := Figure14Study([]int{36, 72, 144})
		if err != nil {
			t.Fatal(err)
		}
		bp := New()
		bp.UseCache(st)
		tr := telemetry.New(nil)
		res, err := study.Run(telemetry.WithTracer(context.Background(), tr), bp, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res, tr.Metrics().Snapshot().Counters
	}
	cold, _ := run()
	warm, counters := run()
	hits, misses := counters[`cache_hits_total{layer="run"}`], counters[`cache_misses_total{layer="run"}`]
	if hits != int64(len(cold.Measurements)) || misses != 0 {
		t.Errorf("warm study: run layer hits=%d misses=%d, want %d and 0", hits, misses, len(cold.Measurements))
	}
	if len(warm.Measurements) != len(cold.Measurements) {
		t.Fatalf("warm study measured %d points, cold %d", len(warm.Measurements), len(cold.Measurements))
	}
	for i := range cold.Measurements {
		if warm.Measurements[i] != cold.Measurements[i] {
			t.Errorf("point %d: warm %v, cold %v", i, warm.Measurements[i], cold.Measurements[i])
		}
	}
}
