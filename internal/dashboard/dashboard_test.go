package dashboard

import (
	"strings"
	"testing"

	"repro/internal/extrap"
	"repro/internal/metricsdb"
)

func seeded() *metricsdb.DB {
	db := metricsdb.New()
	// saxpy on cts1: stable then regressing.
	for _, v := range []float64{1.0, 1.01, 0.99, 1.0, 1.0, 2.2} {
		db.Add(metricsdb.Result{Benchmark: "saxpy", System: "cts1",
			FOMs: map[string]float64{"saxpy_time": v}})
	}
	// stream on ats2: throughput, healthy.
	for _, v := range []float64{160, 161, 159, 160} {
		db.Add(metricsdb.Result{Benchmark: "stream", System: "ats2",
			FOMs: map[string]float64{"triad_bw": v}})
	}
	return db
}

func TestBuildRows(t *testing.T) {
	rows := Build(seeded())
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Sorted: saxpy before stream.
	if rows[0].Benchmark != "saxpy" || rows[1].Benchmark != "stream" {
		t.Errorf("order = %v, %v", rows[0].Benchmark, rows[1].Benchmark)
	}
	saxpy := rows[0]
	if saxpy.FOM != "saxpy_time" || saxpy.Runs != 6 || saxpy.Latest != 2.2 {
		t.Errorf("saxpy row = %+v", saxpy)
	}
	if saxpy.Regressions == 0 {
		t.Error("saxpy regression not flagged")
	}
	if rows[1].Regressions != 0 {
		t.Error("stream should be healthy")
	}
}

func TestTextRendering(t *testing.T) {
	out := Text(seeded())
	for _, want := range []string{"saxpy", "cts1", "stream", "ats2", "regressions", "trend"} {
		if !strings.Contains(out, want) {
			t.Errorf("text dashboard missing %q:\n%s", want, out)
		}
	}
	empty := Text(metricsdb.New())
	if !strings.Contains(empty, "no results") {
		t.Errorf("empty dashboard = %q", empty)
	}
}

func TestHTMLRendering(t *testing.T) {
	html, err := HTML(seeded())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"<table>", "saxpy", "cts1", "Benchpark"} {
		if !strings.Contains(html, want) {
			t.Errorf("html missing %q", want)
		}
	}
}

func TestSparkline(t *testing.T) {
	if s := sparkline(nil); s != "" {
		t.Errorf("empty = %q", s)
	}
	s := sparkline([]float64{0, 1, 2, 3})
	if len([]rune(s)) != 4 {
		t.Errorf("len = %d", len([]rune(s)))
	}
	runes := []rune(s)
	if runes[0] >= runes[3] {
		t.Errorf("increasing data should produce increasing blocks: %q", s)
	}
	flat := []rune(sparkline([]float64{5, 5, 5}))
	if flat[0] != flat[1] || flat[1] != flat[2] {
		t.Errorf("flat data should be flat: %q", string(flat))
	}
}

func TestUnknownBenchmarkFallsBackToAnyFOM(t *testing.T) {
	db := metricsdb.New()
	db.Add(metricsdb.Result{Benchmark: "custom", System: "cts1",
		FOMs: map[string]float64{"whatever": 42}})
	rows := Build(db)
	if len(rows) != 1 || rows[0].FOM != "whatever" || rows[0].Latest != 42 {
		t.Errorf("rows = %+v", rows)
	}
}

func TestScalingSVG(t *testing.T) {
	data := []extrap.Measurement{
		{P: 64, Value: 3.6}, {P: 128, Value: 7.2}, {P: 256, Value: 14.0},
		{P: 512, Value: 27.6}, {P: 1024, Value: 55.6},
	}
	model, err := extrap.Fit(data)
	if err != nil {
		t.Fatal(err)
	}
	svg := ScalingSVG("CTS Extra-P Model", data, model)
	for _, want := range []string{"<svg", "CTS Extra-P Model", "circle", "path", "p^(1)", "nprocs", "</svg>"} {
		if !strings.Contains(svg, want) {
			t.Errorf("svg missing %q", want)
		}
	}
	if got := strings.Count(svg, "<circle"); got != 5 {
		t.Errorf("dots = %d", got)
	}
	// Degenerate inputs must not panic.
	if out := ScalingSVG("empty", nil, nil); !strings.Contains(out, "<svg") {
		t.Error("empty svg")
	}
	one := ScalingSVG("one", []extrap.Measurement{{P: 4, Value: 0}}, nil)
	if !strings.Contains(one, "circle") {
		t.Error("single-point svg")
	}
}

// TestHeadlineFOMIsStable: a benchmark without a primary FOM shows the
// sorted-first of its FOMs, the same one on every render.
func TestHeadlineFOMIsStable(t *testing.T) {
	db := metricsdb.New()
	for i := 0; i < 3; i++ {
		db.Add(metricsdb.Result{Benchmark: "lulesh", System: "cts1",
			FOMs: map[string]float64{"grind_time": 0.5, "fom_zs": 1e6}})
	}
	for i := 0; i < 40; i++ {
		if rows := Build(db); rows[0].FOM != "fom_zs" {
			t.Fatalf("render %d: headline FOM = %q, want fom_zs", i, rows[0].FOM)
		}
	}
}

// TestRegressionDirectionFromUnits: a FOM in time per unit of work
// (grind_time, us/zone/cycle) regresses upward, a rate (fom_zs,
// zones/s) downward.
func TestRegressionDirectionFromUnits(t *testing.T) {
	db := metricsdb.New()
	for _, v := range []float64{1, 1, 1, 1, 1.3} {
		db.Add(metricsdb.Result{Benchmark: "lulesh", System: "slower",
			FOMs: map[string]float64{"grind_time": v}})
		db.Add(metricsdb.Result{Benchmark: "lulesh", System: "faster",
			FOMs: map[string]float64{"fom_zs": v}})
	}
	for _, r := range Build(db) {
		if want := r.System == "slower"; (r.Regressions > 0) != want {
			t.Errorf("%s %s: %d regressions, want some = %v", r.System, r.FOM, r.Regressions, want)
		}
	}
}

// TestUndeclaredFOMRegressesUpward: a FOM no application declares is
// judged the way /v1/regressions judges it — a rise past 1.2x its
// baseline is a regression, a drop is not.
func TestUndeclaredFOMRegressesUpward(t *testing.T) {
	db := metricsdb.New()
	for _, v := range []float64{1, 1, 1, 1, 1.3} {
		db.Add(metricsdb.Result{Benchmark: "custom", System: "rises",
			FOMs: map[string]float64{"whatever": v}})
		db.Add(metricsdb.Result{Benchmark: "custom", System: "drops",
			FOMs: map[string]float64{"whatever": 2 - v}})
	}
	for _, r := range Build(db) {
		if want := r.System == "rises"; (r.Regressions > 0) != want {
			t.Errorf("%s %s: %d regressions, want some = %v", r.System, r.FOM, r.Regressions, want)
		}
	}
}
