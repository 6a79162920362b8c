package core

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/metricsdb"
)

// TestRunDeterministicAcrossJobs is the engine's core guarantee: the
// concurrent matrix (jobs=8) produces a byte-identical results
// artifact — same FOMs, same statuses, same ordering — as the
// sequential matrix (jobs=1).
func TestRunDeterministicAcrossJobs(t *testing.T) {
	runOnce := func(jobs int) ([]byte, []metricsdb.Result, *engine.Report) {
		t.Helper()
		bp := New()
		dir := t.TempDir()
		sess, err := bp.Setup("saxpy/openmp", "cts1", dir)
		if err != nil {
			t.Fatal(err)
		}
		rep, erep, err := sess.Run(context.Background(), RunOptions{Jobs: jobs})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if rep.Failed != 0 {
			t.Fatalf("jobs=%d: %d experiments failed", jobs, rep.Failed)
		}
		if err := sess.Workspace.Save(); err != nil {
			t.Fatal(err)
		}
		artifact, err := os.ReadFile(filepath.Join(dir, "logs", "results.json"))
		if err != nil {
			t.Fatal(err)
		}
		return artifact, bp.Metrics.Query(metricsdb.Filter{}), erep
	}

	serial, serialMetrics, _ := runOnce(1)
	concurrent, concurrentMetrics, erep := runOnce(8)

	if erep.Jobs < 2 {
		t.Fatalf("engine resolved %d workers, want a genuinely concurrent pool", erep.Jobs)
	}
	if string(serial) != string(concurrent) {
		t.Errorf("results.json differs between jobs=1 and jobs=8:\n--- serial ---\n%s\n--- concurrent ---\n%s",
			serial, concurrent)
	}
	if len(serialMetrics) != len(concurrentMetrics) {
		t.Fatalf("metrics count: %d vs %d", len(serialMetrics), len(concurrentMetrics))
	}
	for i := range serialMetrics {
		a, b := serialMetrics[i], concurrentMetrics[i]
		if a.Experiment != b.Experiment || a.Seq != b.Seq {
			t.Errorf("metrics stream diverges at %d: %s/%d vs %s/%d",
				i, a.Experiment, a.Seq, b.Experiment, b.Seq)
		}
		for k, v := range a.FOMs {
			if b.FOMs[k] != v {
				t.Errorf("%s: FOM %s = %v vs %v", a.Experiment, k, v, b.FOMs[k])
			}
		}
	}
}

// TestRunRepeatableByteIdentical is the regression test behind the
// determinism analyzer's wall-clock audit: two runs of the same
// matrix — same suite, same system, fresh deployments — must leave
// byte-identical artifacts behind (results.json, per-experiment .out
// and .cali files) and identical metrics streams. Any wall-clock
// read, unseeded randomness, or map-ordered commit leaking into the
// committed results breaks this.
func TestRunRepeatableByteIdentical(t *testing.T) {
	runOnce := func() (map[string]string, []metricsdb.Result) {
		t.Helper()
		bp := New()
		dir := t.TempDir()
		sess, err := bp.Setup("saxpy/openmp", "cts1", dir)
		if err != nil {
			t.Fatal(err)
		}
		rep, _, err := sess.Run(context.Background(), RunOptions{Jobs: 8})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed != 0 {
			t.Fatalf("%d experiments failed", rep.Failed)
		}
		if err := sess.Workspace.Save(); err != nil {
			t.Fatal(err)
		}
		artifacts := map[string]string{}
		err = filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
			if err != nil || info.IsDir() {
				return err
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			rel, err := filepath.Rel(dir, path)
			if err != nil {
				return err
			}
			// Batch scripts legitimately embed the workspace path;
			// normalize it so only real nondeterminism can differ.
			artifacts[rel] = strings.ReplaceAll(string(data), dir, "$WORKSPACE")
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return artifacts, bp.Metrics.Query(metricsdb.Filter{})
	}

	first, firstMetrics := runOnce()
	second, secondMetrics := runOnce()

	if len(first) == 0 {
		t.Fatal("run left no artifacts behind")
	}
	for rel, data := range first {
		other, ok := second[rel]
		if !ok {
			t.Errorf("second run is missing artifact %s", rel)
			continue
		}
		if data != other {
			t.Errorf("artifact %s differs between identical runs", rel)
		}
	}
	for rel := range second {
		if _, ok := first[rel]; !ok {
			t.Errorf("second run grew an extra artifact %s", rel)
		}
	}
	if len(firstMetrics) != len(secondMetrics) {
		t.Fatalf("metrics count: %d vs %d", len(firstMetrics), len(secondMetrics))
	}
	for i := range firstMetrics {
		a, b := firstMetrics[i], secondMetrics[i]
		if a.Experiment != b.Experiment || a.Manifest != b.Manifest {
			t.Errorf("metrics stream diverges at %d: %s vs %s", i, a.Experiment, b.Experiment)
		}
		for k, v := range a.FOMs {
			if b.FOMs[k] != v {
				t.Errorf("%s: FOM %s = %v vs %v", a.Experiment, k, v, b.FOMs[k])
			}
		}
	}
}

// TestRunCancellation: a cancelled context yields a typed engine
// error and a partial report instead of a hang or a silent success.
func TestRunCancellation(t *testing.T) {
	bp := New()
	sess, err := bp.Setup("saxpy/openmp", "cts1", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the first stage
	rep, erep, err := sess.Run(ctx, RunOptions{})
	if err == nil {
		t.Fatal("cancelled run must fail")
	}
	var se *engine.StageError
	if !errors.As(err, &se) {
		t.Fatalf("error is %T, want *engine.StageError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error must unwrap to context.Canceled: %v", err)
	}
	if se.System != "saxpy/openmp@cts1" {
		t.Errorf("stage error system = %q", se.System)
	}
	if erep == nil || !erep.Cancelled {
		t.Errorf("engine report = %+v, want Cancelled", erep)
	}
	if rep != nil {
		t.Errorf("no analysis should exist for a run cancelled before setup")
	}
	if bp.Metrics.Len() != 0 {
		t.Errorf("cancelled run recorded %d metrics", bp.Metrics.Len())
	}
}

// TestRunTimeoutOption: a run's deadline is its context's (what
// `benchpark --timeout` builds), and it expires the run.
func TestRunTimeoutOption(t *testing.T) {
	bp := New()
	sess, err := bp.Setup("saxpy/openmp", "cts1", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 1)
	defer cancel()
	_, erep, err := sess.Run(ctx, RunOptions{})
	if err == nil {
		t.Fatal("1ns timeout must fail the run")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error = %v, want deadline exceeded", err)
	}
	if !erep.Cancelled {
		t.Errorf("report = %+v", erep)
	}
}

// TestScalingStudyDeterministicAcrossJobs: the concurrent scaling
// sweep commits measurements and metrics in sweep order, matching the
// sequential study exactly.
func TestScalingStudyDeterministicAcrossJobs(t *testing.T) {
	runOnce := func(jobs int) (*StudyResult, []metricsdb.Result) {
		t.Helper()
		study, err := Figure14Study([]int{36, 72, 144, 288})
		if err != nil {
			t.Fatal(err)
		}
		bp := New()
		res, err := study.RunContext(context.Background(), bp, jobs)
		if err != nil {
			t.Fatal(err)
		}
		return res, bp.Metrics.Query(metricsdb.Filter{})
	}
	serial, serialMetrics := runOnce(1)
	concurrent, concurrentMetrics := runOnce(8)
	if len(serial.Measurements) != len(concurrent.Measurements) {
		t.Fatalf("measurement counts differ")
	}
	for i := range serial.Measurements {
		a, b := serial.Measurements[i], concurrent.Measurements[i]
		if a.P != b.P || a.Value != b.Value {
			t.Errorf("measurement %d: %v vs %v", i, a, b)
		}
	}
	if serial.Model.String() != concurrent.Model.String() {
		t.Errorf("models differ: %s vs %s", serial.Model, concurrent.Model)
	}
	if len(serialMetrics) != len(concurrentMetrics) {
		t.Fatalf("metrics count: %d vs %d", len(serialMetrics), len(concurrentMetrics))
	}
	for i := range serialMetrics {
		if serialMetrics[i].Experiment != concurrentMetrics[i].Experiment {
			t.Errorf("metrics order diverges at %d", i)
		}
	}
}
