package ci

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/telemetry"
	"repro/internal/yamlite"
)

// ---------------------------------------------------------------------------
// GitLab side: mirrored repo, CI pipelines, runners, Jacamar
// ---------------------------------------------------------------------------

// JobStatus is a CI job's state.
type JobStatus string

const (
	// JobPending: not yet picked up by a runner.
	JobPending JobStatus = "pending"
	// JobSuccess: script completed.
	JobSuccess JobStatus = "success"
	// JobFailed: script failed.
	JobFailed JobStatus = "failed"
	// JobSkipped: no runner with matching tags.
	JobSkipped JobStatus = "skipped"
)

// CIJob is one job of a pipeline, parsed from .gitlab-ci.yml.
type CIJob struct {
	Name   string
	Stage  string
	Script []string
	Tags   []string

	Status JobStatus
	// RunAs is the account Jacamar executed the job under (setuid).
	RunAs string
	Log   string
	// Cache is the job's incremental-pipeline provenance: one entry
	// per cache layer the job's benchmark runs touched (concretize,
	// buildcache, run). A fully warm job shows Misses == 0 on the run
	// layer — the pipeline re-ran nothing for it.
	Cache []CacheProvenance
}

// CacheProvenance records one cache layer's traffic during a job, so
// a pipeline's results carry exactly which experiments were replayed
// and which were executed fresh.
type CacheProvenance struct {
	Layer  string
	Hits   int
	Misses int
}

// Pipeline is one CI run for a commit.
type Pipeline struct {
	ID  int
	SHA string
	// TraceID is the run's distributed-trace identity (empty when the
	// pipeline ran untraced). Results pushed from this pipeline's jobs
	// carry it into the shared metrics database as provenance.
	TraceID string
	Stages  []string
	Jobs    []*CIJob
	// TriggeredBy is the GitHub author whose push caused the run;
	// ApprovedBy is the admin whose approval let it reach HPC.
	TriggeredBy, ApprovedBy string
}

// Status reports the aggregate pipeline state.
func (p *Pipeline) Status() JobStatus {
	status := JobSuccess
	for _, j := range p.Jobs {
		switch j.Status {
		case JobFailed:
			return JobFailed
		case JobPending:
			status = JobPending
		}
	}
	return status
}

// ParseCIConfig parses a .gitlab-ci.yml document into ordered jobs.
// Top-level keys other than "stages" are jobs with stage/script/tags.
func ParseCIConfig(src string) ([]string, []*CIJob, error) {
	doc, err := yamlite.ParseMap(src)
	if err != nil {
		return nil, nil, fmt.Errorf("ci: parsing .gitlab-ci.yml: %w", err)
	}
	stages := doc.GetStrings("stages")
	if len(stages) == 0 {
		stages = []string{"test"}
	}
	var jobs []*CIJob
	for _, key := range doc.Keys() {
		if key == "stages" {
			continue
		}
		jm := doc.GetMap(key)
		if jm == nil {
			return nil, nil, fmt.Errorf("ci: job %q is not a mapping", key)
		}
		job := &CIJob{
			Name:   key,
			Stage:  jm.GetString("stage"),
			Script: jm.GetStrings("script"),
			Tags:   jm.GetStrings("tags"),
			Status: JobPending,
		}
		if job.Stage == "" {
			job.Stage = "test"
		}
		if len(job.Script) == 0 {
			return nil, nil, fmt.Errorf("ci: job %q has no script", key)
		}
		if !slices.Contains(stages, job.Stage) {
			return nil, nil, fmt.Errorf("ci: job %q uses undeclared stage %q", key, job.Stage)
		}
		jobs = append(jobs, job)
	}
	if len(jobs) == 0 {
		return nil, nil, fmt.Errorf("ci: .gitlab-ci.yml declares no jobs")
	}
	return stages, jobs, nil
}

// JobExecutor runs one job's script and returns its log output.
// The Benchpark core wires this to actual benchmark execution; the
// context cancels in-flight benchmark matrices when the pipeline is
// aborted.
type JobExecutor func(ctx context.Context, job *CIJob) (log string, err error)

// Runner is a GitLab runner registered at an HPC site, with tags
// selecting which jobs it accepts and a Jacamar executor.
type Runner struct {
	Name string
	Site string
	Tags []string
	Exec JobExecutor
}

func (r *Runner) accepts(job *CIJob) bool {
	for _, tag := range job.Tags {
		if !slices.Contains(r.Tags, tag) {
			return false
		}
	}
	return true
}

// AuditEntry records one Jacamar execution for the site's logs
// (Section 3.3.2: "actions of a job ... tied back to the user").
type AuditEntry struct {
	Site, Job, RunAs, Triggered string
}

// GitLab hosts the mirrored repository, runners and pipelines.
type GitLab struct {
	Mirror *Repo

	mu        sync.Mutex
	runners   []*Runner
	pipelines []*Pipeline
	audit     []AuditEntry
	nextID    int
	github    *GitHub // for Jacamar account lookups
}

// NewGitLab returns a GitLab instance mirroring into the given repo.
func NewGitLab(mirror *Repo, github *GitHub) *GitLab {
	return &GitLab{Mirror: mirror, github: github}
}

// RegisterRunner adds a runner to the fleet.
func (gl *GitLab) RegisterRunner(r *Runner) {
	gl.mu.Lock()
	defer gl.mu.Unlock()
	gl.runners = append(gl.runners, r)
}

// Audit returns the Jacamar audit log.
func (gl *GitLab) Audit() []AuditEntry {
	gl.mu.Lock()
	defer gl.mu.Unlock()
	return append([]AuditEntry(nil), gl.audit...)
}

// Pipelines returns all pipelines run so far.
func (gl *GitLab) Pipelines() []*Pipeline {
	gl.mu.Lock()
	defer gl.mu.Unlock()
	return append([]*Pipeline(nil), gl.pipelines...)
}

// RunPipelineContext reads .gitlab-ci.yml from the mirrored commit and
// executes its jobs stage by stage. Jacamar decides the execution
// identity: the triggering user when they hold an account at the
// runner's site, otherwise the approving admin (Section 3.3.2). The
// context is checked before each job dispatch and passed to every
// runner, so a cancelled pipeline stops scheduling work and in-flight
// jobs can abort. Jobs not yet dispatched are marked skipped.
func (gl *GitLab) RunPipelineContext(ctx context.Context, sha, triggeredBy, approvedBy string) (*Pipeline, error) {
	content, ok := gl.Mirror.FileAt(sha, ".gitlab-ci.yml")
	if !ok {
		return nil, fmt.Errorf("ci: commit %s has no .gitlab-ci.yml", sha)
	}
	stages, jobs, err := ParseCIConfig(content)
	if err != nil {
		return nil, err
	}
	gl.mu.Lock()
	gl.nextID++
	p := &Pipeline{ID: gl.nextID, SHA: sha, Stages: stages, Jobs: jobs,
		TriggeredBy: triggeredBy, ApprovedBy: approvedBy}
	gl.pipelines = append(gl.pipelines, p)
	runners := append([]*Runner(nil), gl.runners...)
	gl.mu.Unlock()

	// One span per pipeline and per executed job (skipped jobs never
	// reach a runner and record no span).
	pctx, pspan := telemetry.StartSpan(ctx, "pipeline")
	p.TraceID = pspan.TraceID()
	pspan.SetAttr("sha", sha)
	pspan.SetAttr("triggered_by", triggeredBy)
	defer pspan.End()
	defer func() { pspan.SetAttr("status", string(p.Status())) }()

	for _, stage := range stages {
		var failed bool
		for _, job := range jobs {
			if job.Stage != stage {
				continue
			}
			if err := ctx.Err(); err != nil {
				job.Status = JobSkipped
				job.Log = "skipped: pipeline cancelled (" + err.Error() + ")"
				continue
			}
			runner := pickRunner(runners, job)
			if runner == nil {
				job.Status = JobSkipped
				job.Log = "no runner matches tags " + strings.Join(job.Tags, ",")
				continue
			}
			job.RunAs = gl.jacamarIdentity(runner.Site, triggeredBy, approvedBy)
			gl.mu.Lock()
			gl.audit = append(gl.audit, AuditEntry{
				Site: runner.Site, Job: job.Name, RunAs: job.RunAs, Triggered: triggeredBy,
			})
			gl.mu.Unlock()
			jctx, jspan := telemetry.StartSpan(pctx, "job:"+job.Name)
			jspan.SetAttr("stage", stage)
			jspan.SetAttr("runner", runner.Name)
			log, err := runner.Exec(jctx, job)
			job.Log = log
			if err != nil {
				jspan.SetError(err)
				jspan.SetAttr("status", string(JobFailed))
				jspan.End()
				job.Status = JobFailed
				job.Log += "\nerror: " + err.Error()
				failed = true
				continue
			}
			jspan.SetAttr("status", string(JobSuccess))
			jspan.End()
			job.Status = JobSuccess
		}
		if failed {
			// Later stages do not run after a stage failure.
			for _, job := range jobs {
				if job.Status == JobPending {
					job.Status = JobSkipped
					job.Log = "skipped: earlier stage failed"
				}
			}
			break
		}
	}
	if err := ctx.Err(); err != nil {
		return p, fmt.Errorf("ci: pipeline #%d cancelled: %w", p.ID, err)
	}
	return p, nil
}

// pickRunner selects the first matching runner by name order for
// determinism.
func pickRunner(runners []*Runner, job *CIJob) *Runner {
	var candidates []*Runner
	for _, r := range runners {
		if r.accepts(job) {
			candidates = append(candidates, r)
		}
	}
	if len(candidates) == 0 {
		return nil
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i].Name < candidates[j].Name })
	return candidates[0]
}

// jacamarIdentity implements the Section 3.3.2 rule.
func (gl *GitLab) jacamarIdentity(site, triggeredBy, approvedBy string) string {
	if gl.github != nil {
		if u, ok := gl.github.UserByName(triggeredBy); ok && u.HasAccountAt(site) {
			return triggeredBy
		}
	}
	return approvedBy
}

// ---------------------------------------------------------------------------
// Hubcast: secure mirroring GitHub -> GitLab with status streaming back
// ---------------------------------------------------------------------------

// SecurityCriteria gates which PRs Hubcast mirrors for execution.
type SecurityCriteria struct {
	// RequireAdminApproval blocks mirroring until a site admin
	// approves the PR (always recommended for HPC resources).
	RequireAdminApproval bool
	// TrustedAuthorsBypass lets PRs from trusted project members
	// mirror without a fresh approval.
	TrustedAuthorsBypass bool
	// ProtectedPaths are files untrusted contributors may not touch
	// (e.g. the CI definition itself).
	ProtectedPaths []string
}

// Hubcast mirrors approved PR branches from GitHub to GitLab and
// streams pipeline status back as native checks.
type Hubcast struct {
	GitHub   *GitHub
	GitLab   *GitLab
	Criteria SecurityCriteria
}

// NewHubcast wires the two hosts together.
func NewHubcast(gh *GitHub, gl *GitLab, criteria SecurityCriteria) *Hubcast {
	return &Hubcast{GitHub: gh, GitLab: gl, Criteria: criteria}
}

// Sync evaluates the security criteria for a PR; if they pass, the PR
// head is mirrored to GitLab, the CI pipeline runs, and the status is
// streamed back to the PR. It returns the pipeline (nil when
// mirroring was refused, with the error explaining why). Cancellable
// callers use SyncContext.
//
//benchlint:compat
func (h *Hubcast) Sync(prID int) (*Pipeline, error) {
	return h.SyncContext(context.Background(), prID)
}

// SyncContext is Sync with cancellation propagated into the pipeline
// run and its benchmark jobs.
func (h *Hubcast) SyncContext(ctx context.Context, prID int) (*Pipeline, error) {
	pr, ok := h.GitHub.PR(prID)
	if !ok {
		return nil, fmt.Errorf("hubcast: no PR #%d", prID)
	}
	author, _ := h.GitHub.UserByName(pr.Author)

	// Security criteria.
	trusted := h.Criteria.TrustedAuthorsBypass && author.Trusted
	if h.Criteria.RequireAdminApproval && !trusted {
		if pr.State != PRApproved {
			return nil, fmt.Errorf("hubcast: PR #%d by %s requires site-admin approval before running on HPC resources",
				prID, pr.Author)
		}
		if pr.ApprovedSHA != pr.HeadSHA {
			return nil, fmt.Errorf("hubcast: PR #%d approval is stale: head %s moved past reviewed commit %s",
				prID, pr.HeadSHA[:8], pr.ApprovedSHA[:8])
		}
	}
	if len(h.Criteria.ProtectedPaths) > 0 && !author.Trusted {
		changed, err := pr.SourceRepo.ChangedPaths(pr.HeadSHA)
		if err != nil {
			return nil, err
		}
		for _, p := range changed {
			if slices.Contains(h.Criteria.ProtectedPaths, p) {
				return nil, fmt.Errorf("hubcast: PR #%d modifies protected path %q (changed: %s)",
					prID, p, joinPaths(changed))
			}
		}
	}

	// Mirror the commit to GitLab.
	commit, ok := pr.SourceRepo.Get(pr.HeadSHA)
	if !ok {
		return nil, fmt.Errorf("hubcast: PR head %s not found", pr.HeadSHA)
	}
	mirrorBranch := fmt.Sprintf("pr-%d", prID)
	h.GitLab.Mirror.ImportCommit(commit, mirrorBranch)

	// Report pending, run, report final.
	check := StatusCheck{Context: "benchpark/gitlab-ci", State: StatePending, Description: "pipeline running"}
	if err := h.GitHub.SetStatus(prID, check); err != nil {
		return nil, err
	}
	approver := pr.ApprovedBy
	if approver == "" {
		approver = pr.Author // trusted bypass: author vouches
	}
	pipeline, err := h.GitLab.RunPipelineContext(ctx, pr.HeadSHA, pr.Author, approver)
	if err != nil {
		check.State = StateFailure
		check.Description = err.Error()
		_ = h.GitHub.SetStatus(prID, check)
		return nil, err
	}
	switch pipeline.Status() {
	case JobSuccess:
		check.State = StateSuccess
		check.Description = fmt.Sprintf("pipeline #%d passed (%d jobs)", pipeline.ID, len(pipeline.Jobs))
	default:
		check.State = StateFailure
		check.Description = fmt.Sprintf("pipeline #%d: %s", pipeline.ID, pipeline.Status())
	}
	if err := h.GitHub.SetStatus(prID, check); err != nil {
		return nil, err
	}
	return pipeline, nil
}
