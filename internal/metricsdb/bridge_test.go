package metricsdb

import (
	"testing"

	"repro/internal/engine"
)

func TestResultsFromReport(t *testing.T) {
	rep := &engine.Report{
		Results: []engine.ExperimentResult{
			{
				Experiment: "saxpy_problem_1024",
				Benchmark:  "saxpy",
				Workload:   "problem",
				System:     "cts1",
				FOMs:       map[string]string{"saxpy_time": "1.25", "Kernel done": "ok"},
				Meta:       map[string]string{"n_ranks": "4"},
			},
			{
				Experiment: "saxpy_problem_2048",
				Benchmark:  "saxpy",
				Workload:   "problem",
				System:     "cts1",
				FOMs:       map[string]string{"saxpy_time": "2.5"},
			},
			{
				// No FOMs at all: nothing to chart, dropped.
				Experiment: "saxpy_problem_4096",
				Benchmark:  "saxpy",
				System:     "cts1",
			},
		},
	}
	manifests := map[string]string{
		"saxpy_problem_1024": "manifest-1024",
		// 2048 deliberately missing.
	}
	got := ResultsFromReport(rep, manifests)
	if len(got) != 2 {
		t.Fatalf("got %d results, want 2: %+v", len(got), got)
	}
	r := got[0]
	if r.Benchmark != "saxpy" || r.Workload != "problem" || r.System != "cts1" ||
		r.Experiment != "saxpy_problem_1024" {
		t.Fatalf("identity fields wrong: %+v", r)
	}
	if r.Seq != 0 {
		t.Fatalf("Seq must be left for the store to assign: %+v", r)
	}
	if v, ok := r.FOMs["saxpy_time"]; !ok || v != 1.25 {
		t.Fatalf("FOMs = %v", r.FOMs)
	}
	if _, ok := r.FOMs["Kernel done"]; ok {
		t.Fatal("non-numeric FOM survived conversion")
	}
	if r.Manifest != "manifest-1024" {
		t.Fatalf("Manifest = %q", r.Manifest)
	}
	if r.Meta["n_ranks"] != "4" {
		t.Fatalf("Meta = %v", r.Meta)
	}
	if got[1].Manifest != "" {
		t.Fatalf("experiment without manifest entry got %q", got[1].Manifest)
	}
}

func TestResultsFromReportCopiesMeta(t *testing.T) {
	er := engine.ExperimentResult{
		Experiment: "e", Benchmark: "b", System: "s",
		FOMs: map[string]string{"t": "1"},
		Meta: map[string]string{"k": "v"},
	}
	rep := &engine.Report{Results: []engine.ExperimentResult{er}}
	got := ResultsFromReport(rep, nil)
	got[0].Meta["k"] = "mutated"
	if er.Meta["k"] != "v" {
		t.Fatal("bridge aliased the report's Meta map")
	}
}

func TestResultsFromReportEmpty(t *testing.T) {
	if got := ResultsFromReport(nil, nil); got != nil {
		t.Fatalf("nil report: %+v", got)
	}
	if got := ResultsFromReport(&engine.Report{}, nil); got != nil {
		t.Fatalf("empty report: %+v", got)
	}
	// Every experiment FOM-less: nil, not an empty slice.
	rep := &engine.Report{Results: []engine.ExperimentResult{
		{Experiment: "e", Benchmark: "b", System: "s"},
	}}
	if got := ResultsFromReport(rep, nil); got != nil {
		t.Fatalf("all-FOM-less report: %+v", got)
	}
}
