package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// mockRunner is a configurable Runner for exercising the engine.
type mockRunner struct {
	label      string
	n          int
	setupErr   error
	installErr error
	analyzeErr error
	execErr    func(i int) error
	execHook   func(ctx context.Context, i int)

	mu       sync.Mutex
	commits  []int
	executed []int
	analyzed bool
}

func (m *mockRunner) Label() string                     { return m.label }
func (m *mockRunner) Setup(ctx context.Context) error   { return m.setupErr }
func (m *mockRunner) Install(ctx context.Context) error { return m.installErr }
func (m *mockRunner) Analyze(ctx context.Context) error { m.analyzed = true; return m.analyzeErr }
func (m *mockRunner) Experiments() []string {
	out := make([]string, m.n)
	for i := range out {
		out[i] = fmt.Sprintf("exp-%03d", i)
	}
	return out
}
func (m *mockRunner) Execute(ctx context.Context, i int) error {
	if m.execHook != nil {
		m.execHook(ctx, i)
	}
	m.mu.Lock()
	m.executed = append(m.executed, i)
	m.mu.Unlock()
	if m.execErr != nil {
		return m.execErr(i)
	}
	return nil
}
func (m *mockRunner) Commit(ctx context.Context, i int) error {
	m.mu.Lock()
	m.commits = append(m.commits, i)
	m.mu.Unlock()
	return nil
}

func TestRunCommitsInIndexOrder(t *testing.T) {
	// Stagger executions so later indices finish first; commits must
	// still land in matrix order (the sorted merge).
	m := &mockRunner{label: "sorted@test", n: 16, execHook: func(ctx context.Context, i int) {
		time.Sleep(time.Duration(16-i) * time.Millisecond)
	}}
	rep, err := Run(context.Background(), m, Options{Jobs: 8})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Total != 16 || rep.Executed != 16 || rep.Failed != 0 || rep.Cancelled {
		t.Fatalf("report = %+v", rep)
	}
	if len(m.commits) != 16 {
		t.Fatalf("commits = %v", m.commits)
	}
	for i, c := range m.commits {
		if c != i {
			t.Fatalf("commit order broken at %d: %v", i, m.commits)
		}
	}
	if !m.analyzed {
		t.Error("analyze did not run")
	}
}

func TestRunPartialFailure(t *testing.T) {
	// Two failing experiments must not abort the matrix.
	m := &mockRunner{label: "partial@test", n: 8, execErr: func(i int) error {
		if i == 2 || i == 5 {
			return fmt.Errorf("SIGBUS in exp %d", i)
		}
		return nil
	}}
	rep, err := Run(context.Background(), m, Options{Jobs: 4})
	if err != nil {
		t.Fatalf("run should survive experiment failures: %v", err)
	}
	if rep.Executed != 8 || rep.Failed != 2 || rep.Succeeded() != 6 {
		t.Fatalf("report = %+v", rep)
	}
	if len(rep.Errors) != 2 {
		t.Fatalf("errors = %v", rep.Errors)
	}
	if rep.Errors[0].Experiment != "exp-002" || rep.Errors[1].Experiment != "exp-005" {
		t.Errorf("error ordering = %v", rep.Errors)
	}
	for _, se := range rep.Errors {
		if se.Stage != StageExecute || se.System != "partial@test" {
			t.Errorf("bad stage error: %+v", se)
		}
	}
	// All 8 commits still happen, failures included.
	if len(m.commits) != 8 {
		t.Errorf("commits = %v", m.commits)
	}
	if !m.analyzed {
		t.Error("analyze skipped despite partial failure being non-fatal")
	}
}

func TestRunCancellationMidMatrix(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	m := &mockRunner{label: "cancel@test", n: 32, execHook: func(ctx context.Context, i int) {
		if ran.Add(1) == 4 {
			cancel() // pull the plug a few experiments in
		}
	}}
	rep, err := Run(ctx, m, Options{Jobs: 2})
	if err == nil {
		t.Fatal("cancelled run must return an error")
	}
	var se *StageError
	if !errors.As(err, &se) {
		t.Fatalf("error is not a StageError: %T %v", err, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("StageError must unwrap to context.Canceled, got %v", err)
	}
	if !rep.Cancelled {
		t.Error("report not marked cancelled")
	}
	if rep.Executed == 0 || rep.Executed >= rep.Total {
		t.Errorf("expected a partial matrix, got %d/%d", rep.Executed, rep.Total)
	}
	// Every unexecuted experiment carries a typed context error.
	skipped := 0
	for _, e := range rep.Errors {
		if errors.Is(e, context.Canceled) {
			skipped++
		}
	}
	if skipped != rep.Total-rep.Executed {
		t.Errorf("skipped errors = %d, want %d", skipped, rep.Total-rep.Executed)
	}
	// Executed experiments are still committed (partial results kept).
	if len(m.commits) != rep.Executed {
		t.Errorf("commits = %d, executed = %d", len(m.commits), rep.Executed)
	}
	if m.analyzed {
		t.Error("analyze must not run on a cancelled matrix")
	}
}

func TestRunSetupInstallErrors(t *testing.T) {
	m := &mockRunner{label: "s@t", n: 4, setupErr: errors.New("no workspace")}
	rep, err := Run(context.Background(), m, Options{})
	var se *StageError
	if !errors.As(err, &se) || se.Stage != StageSetup {
		t.Fatalf("setup error = %v", err)
	}
	if rep.Executed != 0 {
		t.Errorf("executed after setup failure: %+v", rep)
	}

	m = &mockRunner{label: "s@t", n: 4, installErr: errors.New("concretize failed")}
	_, err = Run(context.Background(), m, Options{})
	if !errors.As(err, &se) || se.Stage != StageInstall {
		t.Fatalf("install error = %v", err)
	}
}

func TestRunWorkerPoolBounds(t *testing.T) {
	var cur, max atomic.Int32
	m := &mockRunner{label: "bounds@test", n: 64, execHook: func(ctx context.Context, i int) {
		c := cur.Add(1)
		for {
			old := max.Load()
			if c <= old || max.CompareAndSwap(old, c) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		cur.Add(-1)
	}}
	rep, err := Run(context.Background(), m, Options{Jobs: 3})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Jobs != 3 {
		t.Errorf("resolved jobs = %d", rep.Jobs)
	}
	if got := max.Load(); got > 3 {
		t.Errorf("observed %d concurrent executions, pool bound is 3", got)
	}
	if got := max.Load(); got < 2 {
		t.Logf("note: only %d concurrent executions observed", got)
	}
}

func TestRunTimeout(t *testing.T) {
	m := &mockRunner{label: "timeout@test", n: 16, execHook: func(ctx context.Context, i int) {
		select {
		case <-time.After(50 * time.Millisecond):
		case <-ctx.Done():
		}
	}}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	rep, err := Run(ctx, m, Options{Jobs: 1})
	if err == nil {
		t.Fatal("timeout must surface as an error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want deadline error, got %v", err)
	}
	if !rep.Cancelled {
		t.Errorf("report = %+v", rep)
	}
}

func TestMapOrderingAndBounds(t *testing.T) {
	vals := make([]int, 20)
	errs := forEach(context.Background(), 4, 20, func(ctx context.Context, i int) error {
		time.Sleep(time.Duration(20-i) % 5 * time.Millisecond)
		if i == 7 {
			return errors.New("boom")
		}
		vals[i] = i * i
		return nil
	})
	for i := 0; i < 20; i++ {
		if i == 7 {
			if errs[i] == nil {
				t.Error("index 7 should error")
			}
			continue
		}
		if errs[i] != nil || vals[i] != i*i {
			t.Errorf("vals[%d] = %d, err = %v", i, vals[i], errs[i])
		}
	}
}

func TestMapCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	errs := forEach(ctx, 4, 8, func(ctx context.Context, i int) error { return nil })
	for i := range errs {
		if !errors.Is(errs[i], context.Canceled) {
			t.Errorf("errs[%d] = %v", i, errs[i])
		}
	}
}

func TestMapZero(t *testing.T) {
	errs := forEach(context.Background(), 0, 0, func(ctx context.Context, i int) error { return nil })
	if len(errs) != 0 {
		t.Errorf("zero map = %v", errs)
	}
}

func TestStageErrorFormat(t *testing.T) {
	se := &StageError{Stage: StageExecute, Experiment: "saxpy_n64", System: "suite@sys", Err: errors.New("SIGBUS")}
	if got := se.Error(); got != "engine: execute stage failed for experiment saxpy_n64 (suite@sys): SIGBUS" {
		t.Errorf("error string = %q", got)
	}
	se2 := &StageError{Stage: StageInstall, System: "suite@sys", Err: errors.New("down")}
	if got := se2.Error(); got != "engine: install stage failed (suite@sys): down" {
		t.Errorf("error string = %q", got)
	}
	for st, want := range map[Stage]string{
		StageSetup: "setup", StageInstall: "install", StageExecute: "execute",
		StageCommit: "commit", StageAnalyze: "analyze", Stage(99): "unknown",
	} {
		if st.String() != want {
			t.Errorf("%d.String() = %q", st, st.String())
		}
	}
}

// reportingRunner is a mockRunner that also implements ResultReporter.
type reportingRunner struct {
	mockRunner
	results []ExperimentResult
}

func (r *reportingRunner) Results() []ExperimentResult { return r.results }

func TestRunAttachesReportedResults(t *testing.T) {
	r := &reportingRunner{
		mockRunner: mockRunner{label: "suite@sys", n: 2},
		results: []ExperimentResult{
			{Experiment: "exp-000", Benchmark: "saxpy", System: "cts1",
				FOMs: map[string]string{"saxpy_time": "1.5"}},
		},
	}
	rep, err := Run(context.Background(), r, Options{Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 1 || rep.Results[0].Experiment != "exp-000" {
		t.Fatalf("Report.Results = %+v", rep.Results)
	}
}

func TestRunNoResultsOnAnalyzeFailure(t *testing.T) {
	r := &reportingRunner{
		mockRunner: mockRunner{label: "suite@sys", n: 1, analyzeErr: errors.New("boom")},
		results:    []ExperimentResult{{Experiment: "exp-000"}},
	}
	rep, err := Run(context.Background(), r, Options{Jobs: 1})
	if err == nil {
		t.Fatal("expected analyze failure")
	}
	if rep != nil && len(rep.Results) != 0 {
		t.Fatalf("failed run must not publish results: %+v", rep.Results)
	}
}

func TestRunWithoutReporterLeavesResultsNil(t *testing.T) {
	m := &mockRunner{label: "plain", n: 1}
	rep, err := Run(context.Background(), m, Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Results != nil {
		t.Fatalf("plain Runner produced Results: %+v", rep.Results)
	}
}
