package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/cachekey"
	"repro/internal/engine"
	"repro/internal/spec"
	"repro/internal/telemetry"
)

// TestSessionTraceReconcilesAndIsByteIdentical runs the same real
// matrix twice with an 8-worker pool under a FixedClock tracer: the
// execute span count must equal the engine report's Executed, and the
// exported trace JSON must be byte-identical across the runs —
// telemetry must not reintroduce interleaving-dependent output.
func TestSessionTraceReconcilesAndIsByteIdentical(t *testing.T) {
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	runOnce := func() (string, *engine.Report) {
		t.Helper()
		bp := New()
		tr := telemetry.New(telemetry.FixedClock{T: epoch})
		ctx := telemetry.WithTracer(context.Background(), tr)
		sess, err := bp.Setup("saxpy/openmp", "cts1", t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		_, erep, err := sess.Run(ctx, RunOptions{Jobs: 8})
		if err != nil {
			t.Fatal(err)
		}
		src, err := tr.Snapshot().JSON()
		if err != nil {
			t.Fatal(err)
		}
		return src, erep
	}

	first, erep := runOnce()
	second, _ := runOnce()
	if first != second {
		t.Errorf("trace JSON differs across identical runs:\n--- first ---\n%s\n--- second ---\n%s",
			first, second)
	}

	trace, err := telemetry.ParseTrace(first)
	if err != nil {
		t.Fatal(err)
	}
	execSpans, commitSpans := 0, 0
	sawSession, sawEnv, sawInstall := false, false, false
	for _, s := range trace.Spans {
		parts := strings.Split(s.Path, "/")
		switch {
		case s.Path == "session":
			sawSession = true
		case len(parts) > 1 && strings.HasPrefix(parts[len(parts)-1], "env:"):
			sawEnv = true
		case strings.HasPrefix(parts[len(parts)-1], "install:"):
			sawInstall = true
		}
		if len(parts) >= 2 {
			switch parts[len(parts)-2] {
			case "execute":
				execSpans++
			case "commit":
				commitSpans++
			}
		}
	}
	if execSpans != erep.Executed {
		t.Errorf("execute spans = %d, want Executed = %d", execSpans, erep.Executed)
	}
	if commitSpans != erep.Executed {
		t.Errorf("commit spans = %d, want %d", commitSpans, erep.Executed)
	}
	if !sawSession || !sawEnv || !sawInstall {
		t.Errorf("missing expected spans: session=%v env=%v install=%v", sawSession, sawEnv, sawInstall)
	}
}

// TestBuildcacheCounterCountsTheInstall: one counter family per fact.
// A cold session and a warm one over a shared store, traced into one
// registry, move cache_{hits,misses}_total{layer="buildcache"} by
// exactly their Report.Cache buildcache rows, and the cold session
// misses once per binary its install had to build.
func TestBuildcacheCounterCountsTheInstall(t *testing.T) {
	st, err := cachekey.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tr := telemetry.New(telemetry.FixedClock{T: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)})
	ctx := telemetry.WithTracer(context.Background(), tr)
	var rows []engine.CacheStat
	for run := range 2 {
		bp := New()
		bp.UseCache(st)
		sess, err := bp.Setup("saxpy/openmp", "cts1", t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		_, erep, err := sess.Run(ctx, RunOptions{Jobs: 2})
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, runStat(t, erep, "buildcache"))
		if run > 0 {
			continue
		}
		built := 0
		for _, rec := range sess.Installer.DB.Find(spec.New("")) {
			if !rec.External {
				built++
			}
		}
		if built == 0 || rows[0].Misses != built || rows[0].Hits != 0 {
			t.Errorf("cold buildcache row = %+v, want 0 hits and %d misses (one per non-external install)", rows[0], built)
		}
	}
	if warm := rows[1]; warm.Misses != 0 || warm.Hits != rows[0].Misses {
		t.Errorf("warm buildcache row = %+v, want %d hits and 0 misses", warm, rows[0].Misses)
	}
	counters := tr.Metrics().Snapshot().Counters
	hits, misses := counters[`cache_hits_total{layer="buildcache"}`], counters[`cache_misses_total{layer="buildcache"}`]
	if hits != int64(rows[0].Hits+rows[1].Hits) || misses != int64(rows[0].Misses+rows[1].Misses) {
		t.Errorf("buildcache counters = %d hits, %d misses; the two reports' rows are %+v", hits, misses, rows)
	}
}

// TestExperimentFailuresErrorCarriesReport pins the typed-error
// contract: the error formats like the old string and exposes the
// engine's partial report through errors.As.
func TestExperimentFailuresErrorCarriesReport(t *testing.T) {
	rep := &engine.Report{Label: "x@y", Total: 5, Executed: 5, Failed: 2}
	var err error = &ExperimentFailuresError{Report: rep}
	if err.Error() != "2 experiments failed" {
		t.Fatalf("Error() = %q", err.Error())
	}
	var fe *ExperimentFailuresError
	if !errors.As(err, &fe) {
		t.Fatal("errors.As failed")
	}
	if fe.Report.Executed != 5 || fe.Report.Failed != 2 {
		t.Fatalf("report lost: %+v", fe.Report)
	}
}

// TestJobExecutorLogIsStructured checks the CI job log is slog text
// without timestamps (deterministic) and that a nightly pipeline run
// traced under a FixedClock records pipeline and job spans.
func TestJobExecutorLogIsStructured(t *testing.T) {
	bp := New()
	auto, err := NewAutomation(bp, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tr := telemetry.New(telemetry.FixedClock{T: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)})
	ctx := telemetry.WithTracer(context.Background(), tr)
	p, err := auto.RunNightly(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range p.Jobs {
		if j.Log == "" {
			t.Fatalf("job %s has no log", j.Name)
		}
		if strings.Contains(j.Log, "time=") {
			t.Errorf("job %s log carries timestamps (nondeterministic):\n%s", j.Name, j.Log)
		}
		if !strings.Contains(j.Log, "msg=") || !strings.Contains(j.Log, "job="+j.Name) {
			t.Errorf("job %s log is not structured slog text:\n%s", j.Name, j.Log)
		}
		if !strings.Contains(j.Log, "span=pipeline/job:"+j.Name) {
			t.Errorf("job %s log records are missing the span ID:\n%s", j.Name, j.Log)
		}
	}
	trace := tr.Snapshot()
	pipelines, jobSpans := 0, 0
	for _, s := range trace.Spans {
		if s.Path == "pipeline" {
			pipelines++
		}
		if strings.HasPrefix(s.Path, "pipeline/job:") && strings.Count(s.Path, "/") == 1 {
			jobSpans++
		}
	}
	if pipelines != 1 {
		t.Errorf("pipeline spans = %d, want 1", pipelines)
	}
	if jobSpans != len(p.Jobs) {
		t.Errorf("job spans = %d, want %d", jobSpans, len(p.Jobs))
	}
}
