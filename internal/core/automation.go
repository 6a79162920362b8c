package core

import (
	"context"
	"fmt"
	"log/slog"
	"os"
	"strings"
	"sync/atomic"

	"repro/internal/ci"
	"repro/internal/engine"
	"repro/internal/metricsdb"
	"repro/internal/resultsd"
	"repro/internal/telemetry"
)

// ExperimentFailuresError is the typed error a CI job (or CLI run)
// returns when the matrix finished but some experiments failed. It
// carries the engine's partial report so callers can inspect exactly
// which experiments failed instead of parsing an error string.
type ExperimentFailuresError struct {
	Report *engine.Report
}

func (e *ExperimentFailuresError) Error() string {
	return fmt.Sprintf("%d experiments failed", e.Report.Failed)
}

// BenchparkCIYAML is the .gitlab-ci.yml a Benchpark deployment uses:
// one build+bench job per participating site (Table 1 row 6:
// "Hubcast@LLNL/RIKEN/AWS").
const BenchparkCIYAML = `
stages: [bench]
bench-cts1:
  stage: bench
  script:
  - benchpark saxpy/openmp cts1 ws-cts1
  tags: [llnl, cts1]
bench-cloud:
  stage: bench
  script:
  - benchpark saxpy/openmp cloud-c5n ws-cloud
  tags: [aws]
`

// Automation wires the Figure 6 loop: GitHub repo + users, Hubcast,
// GitLab with site runners whose jobs execute real Benchpark
// sessions, and the shared metrics database.
type Automation struct {
	Benchpark *Benchpark
	GitHub    *ci.GitHub
	GitLab    *ci.GitLab
	Hubcast   *ci.Hubcast

	// Results, when set, is the federation endpoint every CI job
	// pushes its engine report into (Figure 6's arrow from the
	// runners into the shared metrics database). Push failures fail
	// the job: a benchmark run whose results never reached the shared
	// store did not do its continuous-benchmarking duty.
	Results *resultsd.Client

	pushSeq atomic.Int64 // pushes attempted, a component of each ingest key
}

// NewAutomation assembles a deployment with runners at LLNL and AWS.
// workDir hosts the CI-run workspaces.
func NewAutomation(bp *Benchpark, workDir string) (*Automation, error) {
	canonical := ci.NewRepo("benchpark")
	if _, err := canonical.Commit("main", "olga", "initial import", map[string]string{
		".gitlab-ci.yml": BenchparkCIYAML,
		"README.md":      "Benchpark: collaborative continuous benchmarking",
	}); err != nil {
		return nil, err
	}
	gh := ci.NewGitHub(canonical)
	gh.AddUser(ci.User{Name: "olga", Trusted: true, SiteAdmin: true, SiteAccounts: []string{"LLNL"}})
	gh.AddUser(ci.User{Name: "todd", Trusted: true, SiteAdmin: true, SiteAccounts: []string{"LLNL"}})
	gh.AddUser(ci.User{Name: "jens", Trusted: true, SiteAccounts: []string{"RIKEN"}})
	gh.AddUser(ci.User{Name: "heidi", Trusted: true, SiteAccounts: []string{"AWS"}})

	gl := ci.NewGitLab(ci.NewRepo("benchpark-mirror"), gh)
	a := &Automation{Benchpark: bp, GitHub: gh, GitLab: gl}
	gl.RegisterRunner(&ci.Runner{
		Name: "llnl-cts1", Site: "LLNL", Tags: []string{"llnl", "cts1"},
		Exec: a.jobExecutor(workDir),
	})
	gl.RegisterRunner(&ci.Runner{
		Name: "aws-cloud", Site: "AWS", Tags: []string{"aws"},
		Exec: a.jobExecutor(workDir),
	})
	a.Hubcast = ci.NewHubcast(gh, gl, ci.SecurityCriteria{
		RequireAdminApproval: true,
		ProtectedPaths:       []string{".gitlab-ci.yml"},
	})
	return a, nil
}

// jobExecutor interprets "benchpark <suite> <system> <workspace>"
// script lines by actually running the session — the Benchpark
// executable of Table 1 row 6. Each session runs on the experiment
// engine under the pipeline's context, so cancelling the pipeline
// cancels its benchmark matrices. The job log is a stream of
// structured slog records carrying the pipeline's span ID, so CI
// output correlates with the run's trace.
func (a *Automation) jobExecutor(workDir string) ci.JobExecutor {
	return func(ctx context.Context, job *ci.CIJob) (string, error) {
		var buf strings.Builder
		log := telemetry.SpanLogger(ctx, telemetry.NewLogger(&buf, slog.LevelInfo)).
			With("job", job.Name)
		for _, line := range job.Script {
			fields := strings.Fields(line)
			if len(fields) != 4 || fields[0] != "benchpark" {
				log.Info("skipped: not a benchpark invocation", "line", line)
				continue
			}
			suite, system, wsName := fields[1], fields[2], fields[3]
			dir, err := os.MkdirTemp(workDir, wsName+"-*")
			if err != nil {
				return buf.String(), err
			}
			sess, err := a.Benchpark.Setup(suite, system, dir)
			if err != nil {
				return buf.String(), err
			}
			rep, erep, err := sess.Run(ctx, RunOptions{})
			// CI keeps every job's workspace under workDir, failed runs'
			// partial ones included.
			if serr := sess.Workspace.Save(); err == nil {
				err = serr
			}
			if err != nil {
				return buf.String(), err
			}
			log.Info("benchpark run finished", "line", line,
				"experiments", rep.Total, "succeeded", rep.Succeeded, "failed", rep.Failed)
			// Per-job cache provenance: which layers served the run, and
			// how much of it was replayed vs executed fresh.
			for _, cs := range erep.Cache {
				log.Info("cache layer", "layer", cs.Layer, "hits", cs.Hits, "misses", cs.Misses)
			}
			if rep.Failed > 0 {
				return buf.String(), &ExperimentFailuresError{Report: erep}
			}
			if a.Results != nil {
				// The key hashes the job identity, the result content and a
				// per-deployment push sequence: a client-level retry reuses
				// it (idempotent), while the next pipeline over the same
				// deterministic benchmarks mints a fresh one, so nightly
				// series actually accrue.
				seq := a.pushSeq.Add(1)
				_, resp, err := sess.Push(ctx, a.Results, job.Name,
					fmt.Sprintf("%s-%d", job.Name, seq),
					fmt.Sprintf("%s|%s|%d|", job.Name, erep.Label, seq), rep, erep)
				if err != nil {
					log.Error("results push failed", "error", err.Error())
					return buf.String(), err
				}
				if resp != nil {
					log.Info("results pushed", "accepted", resp.Accepted, "duplicate", resp.Duplicate)
				}
			}
		}
		return buf.String(), nil
	}
}

// RunNightly executes the CI pipeline against the canonical
// main branch — the "in service" stage of Section 1, where continuous
// benchmarking tracks system performance over time. Results accrue in
// the shared metrics database; the caller can then run regression
// detection over the series. Cancellation propagates through the
// pipeline into the benchmark engine.
func (a *Automation) RunNightly(ctx context.Context) (*ci.Pipeline, error) {
	head, ok := a.GitHub.Canonical.Head("main")
	if !ok || head == "" {
		return nil, fmt.Errorf("benchpark: canonical main has no commits")
	}
	commit, ok := a.GitHub.Canonical.Get(head)
	if !ok {
		return nil, fmt.Errorf("benchpark: dangling main head")
	}
	a.GitLab.Mirror.ImportCommit(commit, "main")
	// Nightly runs are triggered by the bot and pre-trusted: they
	// execute under the service owner's identity.
	return a.GitLab.RunPipeline(ctx, head, "benchpark-bot", "olga")
}

// ContributionResult summarizes one PR's trip through the Figure 6
// loop.
type ContributionResult struct {
	PR       *ci.PullRequest
	Pipeline *ci.Pipeline
	Results  []metricsdb.Result
}

// SubmitContribution opens a PR from a contributor's fork, has
// an admin approve it, syncs through Hubcast (running the pipelines on
// the site runners), and merges on success. Cancellation propagates
// through Hubcast into the pipeline's benchmark runs.
func (a *Automation) SubmitContribution(ctx context.Context, author, title string, files map[string]string, approver string) (*ContributionResult, error) {
	fork := a.GitHub.Fork(author + "/benchpark")
	if _, err := fork.Commit("contribution", author, title, files); err != nil {
		return nil, err
	}
	pr, err := a.GitHub.OpenPR(title, author, fork, "contribution", "main")
	if err != nil {
		return nil, err
	}
	if err := a.GitHub.Approve(pr.ID, approver); err != nil {
		return nil, err
	}
	before := a.Benchpark.Metrics.Len()
	pipeline, err := a.Hubcast.Sync(ctx, pr.ID)
	if err != nil {
		return nil, err
	}
	if pipeline.Status() == ci.JobSuccess {
		if err := a.GitHub.Merge(pr.ID); err != nil {
			return nil, err
		}
	}
	var fresh []metricsdb.Result
	for _, r := range a.Benchpark.Metrics.Query(metricsdb.Filter{}) {
		if r.Seq > before {
			fresh = append(fresh, r)
		}
	}
	return &ContributionResult{PR: pr, Pipeline: pipeline, Results: fresh}, nil
}
