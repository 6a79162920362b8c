package scheduler

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/hpcsim"
)

func cts(t *testing.T) *hpcsim.System {
	t.Helper()
	s, err := hpcsim.Get("cts1")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func fixed(d float64) Payload {
	return func() (float64, error) { return d, nil }
}

func TestSingleJob(t *testing.T) {
	s := New(cts(t))
	j, err := s.Submit("saxpy", 2, 3600, fixed(100))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if j.State != Completed {
		t.Errorf("state = %v", j.State)
	}
	if j.StartTime != 0 || j.EndTime != 100 {
		t.Errorf("times = %v..%v", j.StartTime, j.EndTime)
	}
	if s.Makespan() != 100 {
		t.Errorf("makespan = %v", s.Makespan())
	}
}

func TestFIFOQueueing(t *testing.T) {
	sys := cts(t)
	s := New(sys)
	// Two jobs that each need ALL nodes: strictly serial.
	a, _ := s.Submit("a", sys.Nodes, 3600, fixed(50))
	b, _ := s.Submit("b", sys.Nodes, 3600, fixed(50))
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if a.StartTime != 0 || b.StartTime != 50 {
		t.Errorf("starts = %v, %v", a.StartTime, b.StartTime)
	}
	if b.WaitTime() != 50 {
		t.Errorf("wait = %v", b.WaitTime())
	}
}

func TestParallelJobs(t *testing.T) {
	sys := cts(t)
	s := New(sys)
	half := sys.Nodes / 2
	a, _ := s.Submit("a", half, 3600, fixed(50))
	b, _ := s.Submit("b", half, 3600, fixed(50))
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if a.StartTime != 0 || b.StartTime != 0 {
		t.Errorf("both should start immediately: %v %v", a.StartTime, b.StartTime)
	}
	if s.Makespan() != 50 {
		t.Errorf("makespan = %v", s.Makespan())
	}
}

func TestBackfillImprovesThroughput(t *testing.T) {
	sys := cts(t)
	run := func(backfill bool) (float64, float64) {
		s := New(sys)
		s.Backfill = backfill
		// Wide long job running, then a wide job queued (head), then a
		// narrow short job that can backfill into the idle nodes.
		s.Submit("wide-running", sys.Nodes-10, 7200, fixed(1000)) //nolint:errcheck
		s.Submit("wide-head", sys.Nodes, 7200, fixed(500))        //nolint:errcheck
		narrow, _ := s.Submit("narrow", 5, 600, fixed(400))       // fits in 10 free nodes, ends before head could start
		if err := s.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		return s.Makespan(), narrow.StartTime
	}
	mkNo, narrowStartNo := run(false)
	mkYes, narrowStartYes := run(true)
	if narrowStartYes != 0 {
		t.Errorf("backfill should start the narrow job immediately, got %v", narrowStartYes)
	}
	if narrowStartNo == 0 {
		t.Error("without backfill the narrow job must wait behind the head")
	}
	if mkYes > mkNo {
		t.Errorf("backfill makespan %v worse than FIFO %v", mkYes, mkNo)
	}
}

func TestBackfillNeverDelaysHead(t *testing.T) {
	sys := cts(t)
	s := New(sys)
	s.Backfill = true
	s.Submit("running", sys.Nodes-10, 7200, fixed(100)) //nolint:errcheck
	head, _ := s.Submit("head", sys.Nodes, 7200, fixed(10))
	// This job fits the free nodes but its TIME LIMIT (300s) extends
	// past the head's shadow start (t=100), so it must NOT backfill.
	blocker, _ := s.Submit("too-long", 10, 300, fixed(250))
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if head.StartTime != 100 {
		t.Errorf("head delayed to %v (blocker started %v)", head.StartTime, blocker.StartTime)
	}
	if blocker.StartTime < head.StartTime {
		t.Errorf("blocker jumped ahead: %v < %v", blocker.StartTime, head.StartTime)
	}
}

func TestTimeLimitEnforced(t *testing.T) {
	s := New(cts(t))
	j, _ := s.Submit("overrun", 1, 60, fixed(3600))
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if j.State != TimedOut {
		t.Errorf("state = %v", j.State)
	}
	if j.EndTime != 60 {
		t.Errorf("killed at %v, want 60", j.EndTime)
	}
}

func TestFailedPayload(t *testing.T) {
	s := New(cts(t))
	j, _ := s.Submit("crash", 1, 600, func() (float64, error) {
		return 5, fmt.Errorf("segfault")
	})
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if j.State != Failed || j.Err == nil {
		t.Errorf("state = %v err = %v", j.State, j.Err)
	}
}

func TestSubmitValidation(t *testing.T) {
	sys := cts(t)
	s := New(sys)
	if _, err := s.Submit("zero", 0, 60, fixed(1)); err == nil {
		t.Error("0 nodes should fail")
	}
	if _, err := s.Submit("huge", sys.Nodes+1, 60, fixed(1)); err == nil {
		t.Error("too many nodes should fail")
	}
	if _, err := s.Submit("nolimit", 1, 0, fixed(1)); err == nil {
		t.Error("no time limit should fail")
	}
	if _, err := s.Submit("nopayload", 1, 60, nil); err == nil {
		t.Error("nil payload should fail")
	}
}

func TestSubmitScriptFigure13(t *testing.T) {
	script := `#!/bin/bash
#SBATCH -N 2
#SBATCH -n 16
#SBATCH -t 120:00
cd /ws/experiments/saxpy/problem/saxpy_512_2_16_2
. $SPACK_ROOT/share/spack/setup-env.sh
srun -N 2 -n 16 saxpy -n 512
`
	s := New(cts(t))
	j, err := s.SubmitScript("saxpy_512_2_16_2", script, fixed(10))
	if err != nil {
		t.Fatal(err)
	}
	if j.Nodes != 2 {
		t.Errorf("nodes = %d", j.Nodes)
	}
	if j.TimeLimit != 120*60 {
		t.Errorf("limit = %v", j.TimeLimit)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if j.State != Completed {
		t.Errorf("state = %v", j.State)
	}
}

func TestParseTimeLimit(t *testing.T) {
	cases := map[string]float64{
		"30":      1800,
		"120:00":  7200,
		"1:30:00": 5400,
	}
	for in, want := range cases {
		got, err := parseTimeLimit(in)
		if err != nil || got != want {
			t.Errorf("parseTimeLimit(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"abc", "1:2:3:4", ""} {
		if _, err := parseTimeLimit(bad); err == nil {
			t.Errorf("parseTimeLimit(%q) should fail", bad)
		}
	}
}

func TestUtilization(t *testing.T) {
	sys := cts(t)
	s := New(sys)
	// One job on all nodes for the whole makespan: utilization 1.
	s.Submit("full", sys.Nodes, 3600, fixed(100)) //nolint:errcheck
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if u := s.Utilization(); u < 0.999 || u > 1.001 {
		t.Errorf("utilization = %v", u)
	}
}

func TestManyJobsThroughput(t *testing.T) {
	sys := cts(t)
	s := New(sys)
	for i := 0; i < 100; i++ {
		if _, err := s.Submit(fmt.Sprintf("job%d", i), 10, 3600, fixed(10)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(s.Completed()) != 100 {
		t.Errorf("completed = %d", len(s.Completed()))
	}
	// 100 jobs × 10 nodes = 1000 node-slots over 1200 nodes; with 10s
	// each, everything fits in one wave.
	if s.Makespan() != 10 {
		t.Errorf("makespan = %v", s.Makespan())
	}
}

func TestDeterministicOrder(t *testing.T) {
	run := func() string {
		s := New(cts(t))
		for i := 0; i < 20; i++ {
			s.Submit(fmt.Sprintf("j%02d", i), 300, 3600, fixed(float64(10+i))) //nolint:errcheck
		}
		if err := s.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		var order []string
		for _, j := range s.Completed() {
			order = append(order, j.Name)
		}
		return strings.Join(order, ",")
	}
	if run() != run() {
		t.Error("completion order not deterministic")
	}
}

// TestPropertyCapacityNeverExceeded: over randomized job mixes (with
// and without backfill), the sum of node widths of simultaneously
// running jobs never exceeds the system size, and every job runs
// exactly once.
func TestPropertyCapacityNeverExceeded(t *testing.T) {
	sys := cts(t)
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		s := New(sys)
		s.Backfill = trial%2 == 0
		nJobs := 5 + rng.Intn(40)
		for j := 0; j < nJobs; j++ {
			width := 1 + rng.Intn(sys.Nodes)
			dur := float64(1 + rng.Intn(500))
			if _, err := s.Submit(fmt.Sprintf("t%d-j%d", trial, j), width, 7200,
				func() (float64, error) { return dur, nil }); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		jobs := s.Completed()
		if len(jobs) != nJobs {
			t.Fatalf("trial %d: completed %d/%d", trial, len(jobs), nJobs)
		}
		// Sweep: at each job start, count overlapping widths.
		for _, a := range jobs {
			used := 0
			for _, b := range jobs {
				if b.StartTime <= a.StartTime && a.StartTime < b.EndTime {
					used += b.Nodes
				}
			}
			if used > sys.Nodes {
				t.Fatalf("trial %d (backfill=%v): %d nodes in use at t=%v",
					trial, s.Backfill, used, a.StartTime)
			}
		}
	}
}
