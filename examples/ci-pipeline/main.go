// Ci-pipeline demonstrates the paper's Figure 6 automation workflow
// and Section 3.3 security model end to end:
//
//  1. an untrusted contributor's PR is blocked from HPC resources,
//
//  2. a site admin approves; Hubcast mirrors the commit to GitLab,
//
//  3. GitLab CI runs real Benchpark benchmark sessions on two sites'
//     runners, with Jacamar attributing the jobs,
//
//  4. results stream into the metrics database and the status streams
//     back to GitHub, where the PR merges,
//
//  5. repeated CI runs build a performance time series; an injected
//     slowdown is caught by regression detection.
//
//     go run ./examples/ci-pipeline
package main

import (
	"context"
	"fmt"
	"os"

	"repro/internal/ci"
	"repro/internal/core"
	"repro/internal/metricsdb"
	"repro/internal/ramble"
)

func main() {
	if err := run(context.Background()); err != nil {
		fmt.Fprintln(os.Stderr, "ci-pipeline:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context) error {
	dir, err := os.MkdirTemp("", "benchpark-ci-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	bp := core.New()
	auto, err := core.NewAutomation(bp, dir)
	if err != nil {
		return err
	}

	// --- 1. untrusted code cannot reach HPC resources ------------------
	fmt.Println("== Security gate (Section 3.3.1) ==")
	fork := auto.GitHub.Fork("newcomer/benchpark")
	auto.GitHub.AddUser(ci.User{Name: "newcomer"})
	if _, err := fork.Commit("contribution", "newcomer", "my benchmark",
		map[string]string{"experiments/mybench/ramble.yaml": "ramble: {}"}); err != nil {
		return err
	}
	pr, err := auto.GitHub.OpenPR("add my benchmark", "newcomer", fork, "contribution", "main")
	if err != nil {
		return err
	}
	if _, err := auto.Hubcast.Sync(ctx, pr.ID); err != nil {
		fmt.Printf("unapproved PR #%d rejected by Hubcast:\n  %v\n", pr.ID, err)
	} else {
		return fmt.Errorf("SECURITY HOLE: unapproved PR ran on HPC resources")
	}

	// --- 2-4. approval, mirroring, pipelines, merge ----------------------
	fmt.Println("\n== Approved contribution runs on both sites (Figure 6) ==")
	if err := auto.GitHub.Approve(pr.ID, "olga"); err != nil {
		return err
	}
	pipeline, err := auto.Hubcast.Sync(ctx, pr.ID)
	if err != nil {
		return err
	}
	for _, job := range pipeline.Jobs {
		fmt.Printf("job %-12s status=%-8s jacamar-ran-as=%s\n", job.Name, job.Status, job.RunAs)
	}
	got, _ := auto.GitHub.PR(pr.ID)
	for _, check := range got.Checks {
		fmt.Printf("github check %q: %s (%s)\n", check.Context, check.State, check.Description)
	}
	if err := auto.GitHub.Merge(pr.ID); err != nil {
		return err
	}
	fmt.Printf("PR #%d merged; audit log:\n", pr.ID)
	for _, entry := range auto.GitLab.Audit() {
		fmt.Printf("  site=%-5s job=%-12s triggered-by=%-9s ran-as=%s\n",
			entry.Site, entry.Job, entry.Triggered, entry.RunAs)
	}

	// --- 5. continuous benchmarking catches a regression ------------------
	fmt.Println("\n== Continuous runs + regression detection (Section 1) ==")
	// Build a baseline series of nightly saxpy timings, then simulate a
	// system change that slows the benchmark down.
	for night := 0; night < 6; night++ {
		bp.Metrics.Add(metricsdb.Result{
			Benchmark: "saxpy", System: "cts1", Experiment: "nightly",
			FOMs: map[string]float64{"saxpy_time": 1.00 + 0.01*float64(night%3)},
		})
	}
	// Firmware upgrade regresses memory bandwidth by 2x.
	bp.Metrics.Add(metricsdb.Result{
		Benchmark: "saxpy", System: "cts1", Experiment: "nightly",
		FOMs: map[string]float64{"saxpy_time": 2.05},
		Meta: map[string]string{"note": "post firmware-upgrade"},
	})
	regs := bp.Metrics.DetectRegressions(
		metricsdb.Filter{Benchmark: "saxpy", System: "cts1", Experiment: "nightly"},
		"saxpy_time", 4, ramble.RegressionThreshold("saxpy", "saxpy_time"))
	if len(regs) == 0 {
		return fmt.Errorf("regression not detected")
	}
	for _, r := range regs {
		fmt.Printf("REGRESSION at seq %d: %.2fs vs baseline %.2fs (%.1fx)\n",
			r.Seq, r.Value, r.Baseline, r.Ratio)
	}
	fmt.Printf("\nmetrics database: %d results across systems %v\n",
		bp.Metrics.Len(), bp.Metrics.Systems())
	return nil
}
