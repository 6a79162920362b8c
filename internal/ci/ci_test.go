package ci

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

const ciYAML = `
stages: [build, bench]
build-saxpy:
  stage: build
  script:
  - spack install saxpy
  tags: [cts1]
bench-saxpy:
  stage: bench
  script:
  - ramble on
  tags: [cts1]
`

// setup builds a GitHub+GitLab pair with one runner and standard users.
func setup(t *testing.T, exec JobExecutor) (*GitHub, *GitLab, *Hubcast) {
	t.Helper()
	canonical := NewRepo("benchpark")
	if _, err := canonical.Commit("main", "olga", "initial", map[string]string{
		".gitlab-ci.yml": ciYAML,
		"README.md":      "Benchpark",
	}); err != nil {
		t.Fatal(err)
	}
	gh := NewGitHub(canonical)
	gh.AddUser(User{Name: "olga", Trusted: true, SiteAdmin: true, SiteAccounts: []string{"LLNL"}})
	gh.AddUser(User{Name: "admin2", Trusted: true, SiteAdmin: true, SiteAccounts: []string{"LLNL"}})
	gh.AddUser(User{Name: "jens", Trusted: true, SiteAccounts: []string{"RIKEN"}})
	gh.AddUser(User{Name: "newcomer", Trusted: false})

	gl := NewGitLab(NewRepo("benchpark-mirror"), gh)
	if exec == nil {
		exec = func(ctx context.Context, job *CIJob) (string, error) {
			return "ran " + strings.Join(job.Script, "; "), nil
		}
	}
	gl.RegisterRunner(&Runner{Name: "cts1-runner", Site: "LLNL", Tags: []string{"cts1"}, Exec: exec})
	hub := NewHubcast(gh, gl, SecurityCriteria{
		RequireAdminApproval: true,
		TrustedAuthorsBypass: false,
		ProtectedPaths:       []string{".gitlab-ci.yml"},
	})
	return gh, gl, hub
}

func openContribution(t *testing.T, gh *GitHub, author, file, content string) *PullRequest {
	t.Helper()
	fork := gh.Fork(author + "/benchpark")
	if _, err := fork.Commit("feature", author, "add benchmark", map[string]string{file: content}); err != nil {
		t.Fatal(err)
	}
	pr, err := gh.OpenPR("add benchmark", author, fork, "feature", "main")
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

func TestCommitContentAddressing(t *testing.T) {
	r := NewRepo("x")
	sha1, _ := r.Commit("main", "a", "m", map[string]string{"f": "1"})
	if c, ok := r.Get(sha1); !ok || c.Files["f"] != "1" {
		t.Fatal("commit lookup")
	}
	sha2, _ := r.Commit("main", "a", "m2", map[string]string{"g": "2"})
	if sha1 == sha2 {
		t.Error("different commits share a SHA")
	}
	// Snapshot semantics: both files visible at head.
	if v, _ := r.FileAt(sha2, "f"); v != "1" {
		t.Error("earlier file lost")
	}
	c1, _ := r.Get(sha1)
	c2, _ := r.Get(sha2)
	if changed := changedPaths(c1.Files, c2.Files); len(changed) != 1 || changed[0] != "g" {
		t.Errorf("changed = %v", changed)
	}
	// Deletion.
	sha3, _ := r.Commit("main", "a", "rm", map[string]string{"f": ""})
	if _, ok := r.FileAt(sha3, "f"); ok {
		t.Error("deletion failed")
	}
	c3, _ := r.Get(sha3)
	if changed := changedPaths(c2.Files, c3.Files); len(changed) != 1 || changed[0] != "f" {
		t.Errorf("changed by deletion = %v", changed)
	}
}

// TestFigure6Workflow drives the full automation loop: untrusted PR →
// blocked; admin approval → Hubcast mirrors → GitLab CI runs via
// Jacamar → status streams back → merge.
func TestFigure6Workflow(t *testing.T) {
	gh, gl, hub := setup(t, nil)
	pr := openContribution(t, gh, "newcomer", "experiments/osu/ramble.yaml", "ramble: {}")

	// 1. Untrusted code must NOT run before review (Section 3.3.1).
	if _, err := hub.Sync(context.Background(), pr.ID); err == nil {
		t.Fatal("unapproved PR must not be mirrored")
	}
	if merr := gh.Merge(pr.ID); merr == nil {
		t.Fatal("merge before CI must fail")
	}

	// 2. A site admin approves.
	if err := gh.Approve(pr.ID, "olga"); err != nil {
		t.Fatal(err)
	}

	// 3. Hubcast mirrors and CI runs.
	pipeline, err := hub.Sync(context.Background(), pr.ID)
	if err != nil {
		t.Fatal(err)
	}
	if pipeline.Status() != JobSuccess {
		t.Fatalf("pipeline = %v", pipeline.Status())
	}
	if len(pipeline.Jobs) != 2 {
		t.Fatalf("jobs = %d", len(pipeline.Jobs))
	}
	// Stage ordering: build before bench.
	if pipeline.Jobs[0].Stage != "build" || pipeline.Jobs[1].Stage != "bench" {
		t.Errorf("stage order: %s, %s", pipeline.Jobs[0].Stage, pipeline.Jobs[1].Stage)
	}

	// 4. Jacamar ran the job as the APPROVER: newcomer has no LLNL account.
	for _, j := range pipeline.Jobs {
		if j.RunAs != "olga" {
			t.Errorf("job %s ran as %q, want approver olga", j.Name, j.RunAs)
		}
	}
	audit := gl.Audit()
	if len(audit) != 2 || audit[0].Triggered != "newcomer" || audit[0].RunAs != "olga" {
		t.Errorf("audit = %+v", audit)
	}

	// 5. Status streamed back as a native check.
	got, _ := gh.PR(pr.ID)
	if len(got.Checks) != 1 || got.Checks[0].State != StateSuccess {
		t.Errorf("checks = %+v", got.Checks)
	}

	// 6. Merge.
	if err := gh.Merge(pr.ID); err != nil {
		t.Fatal(err)
	}
	head, _ := gh.Canonical.Head("main")
	if v, ok := gh.Canonical.FileAt(head, "experiments/osu/ramble.yaml"); !ok || v != "ramble: {}" {
		t.Error("merged content missing from canonical main")
	}
}

func TestJacamarUsesTriggeringUserWhenAccountExists(t *testing.T) {
	gh, _, hub := setup(t, nil)
	// olga has an LLNL account and is a site admin; use a second admin
	// for approval since self-approval is rejected.
	pr := openContribution(t, gh, "olga", "docs/x.md", "x")
	if err := gh.Approve(pr.ID, "admin2"); err != nil {
		t.Fatal(err)
	}
	pipeline, err := hub.Sync(context.Background(), pr.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range pipeline.Jobs {
		if j.RunAs != "olga" {
			t.Errorf("job %s ran as %q, want triggering user olga", j.Name, j.RunAs)
		}
	}
}

func TestSelfApprovalRejected(t *testing.T) {
	gh, _, _ := setup(t, nil)
	pr := openContribution(t, gh, "olga", "docs/x.md", "x")
	if err := gh.Approve(pr.ID, "olga"); err == nil {
		t.Error("self-approval must be rejected")
	}
}

func TestNonAdminCannotApprove(t *testing.T) {
	gh, _, _ := setup(t, nil)
	pr := openContribution(t, gh, "newcomer", "docs/x.md", "x")
	if err := gh.Approve(pr.ID, "jens"); err == nil {
		t.Error("non-admin approval must be rejected")
	}
}

func TestProtectedPathBlocked(t *testing.T) {
	gh, _, hub := setup(t, nil)
	// An untrusted user tries to change the CI definition itself.
	pr := openContribution(t, gh, "newcomer", ".gitlab-ci.yml", "stages: [pwn]\np:\n  stage: pwn\n  script: [curl evil]")
	if err := gh.Approve(pr.ID, "olga"); err != nil {
		t.Fatal(err)
	}
	if _, err := hub.Sync(context.Background(), pr.ID); err == nil || !strings.Contains(err.Error(), "protected path") {
		t.Errorf("err = %v", err)
	}
}

// TestProtectedPathBlockedBehindLaterCommit: an untrusted PR that
// rewrites a protected path and then commits something else is still
// refused, and the rewritten CI file never reaches a runner — from a
// fork, and from a branch of the canonical repository itself.
func TestProtectedPathBlockedBehindLaterCommit(t *testing.T) {
	for _, source := range []string{"fork", "canonical"} {
		var ran []string
		gh, _, hub := setup(t, func(ctx context.Context, job *CIJob) (string, error) {
			ran = append(ran, job.Name)
			return "ok", nil
		})
		repo := gh.Canonical
		if source == "fork" {
			repo = gh.Fork("newcomer/benchpark")
		}
		for _, change := range []map[string]string{
			{".gitlab-ci.yml": "stages: [pwn]\np:\n  stage: pwn\n  script: [curl evil]\n  tags: [cts1]"},
			{"docs/a.md": "a"},
		} {
			if _, err := repo.Commit("feature", "newcomer", "contribution", change); err != nil {
				t.Fatal(err)
			}
		}
		pr, err := gh.OpenPR("docs", "newcomer", repo, "feature", "main")
		if err != nil {
			t.Fatal(err)
		}
		if err := gh.Approve(pr.ID, "olga"); err != nil {
			t.Fatal(err)
		}
		if _, err := hub.Sync(context.Background(), pr.ID); err == nil || !strings.Contains(err.Error(), `protected path ".gitlab-ci.yml"`) {
			t.Errorf("%s: err = %v, want the protected path refused", source, err)
		}
		if len(ran) != 0 {
			t.Errorf("%s: jobs %v ran from an untrusted CI file", source, ran)
		}
	}
}

func TestTrustedUserMayTouchProtectedPaths(t *testing.T) {
	gh, _, hub := setup(t, nil)
	pr := openContribution(t, gh, "olga", ".gitlab-ci.yml", ciYAML+"# tweak\n")
	if err := gh.Approve(pr.ID, "admin2"); err != nil {
		t.Fatal(err)
	}
	if _, err := hub.Sync(context.Background(), pr.ID); err != nil {
		t.Errorf("trusted author blocked: %v", err)
	}
}

func TestTrustedBypassCriteria(t *testing.T) {
	gh, gl, _ := setup(t, nil)
	hub := NewHubcast(gh, gl, SecurityCriteria{
		RequireAdminApproval: true,
		TrustedAuthorsBypass: true,
	})
	pr := openContribution(t, gh, "jens", "docs/riken.md", "hi")
	// No approval, but jens is trusted and bypass is on.
	if _, err := hub.Sync(context.Background(), pr.ID); err != nil {
		t.Errorf("trusted bypass failed: %v", err)
	}
}

func TestPipelineFailureStreamsFailure(t *testing.T) {
	gh, _, hub := setup(t, func(ctx context.Context, job *CIJob) (string, error) {
		if job.Stage == "bench" {
			return "", fmt.Errorf("benchmark crashed")
		}
		return "ok", nil
	})
	pr := openContribution(t, gh, "newcomer", "docs/y.md", "y")
	if err := gh.Approve(pr.ID, "olga"); err != nil {
		t.Fatal(err)
	}
	pipeline, err := hub.Sync(context.Background(), pr.ID)
	if err != nil {
		t.Fatal(err)
	}
	if pipeline.Status() != JobFailed {
		t.Errorf("status = %v", pipeline.Status())
	}
	got, _ := gh.PR(pr.ID)
	if got.Checks[0].State != StateFailure {
		t.Errorf("check = %+v", got.Checks[0])
	}
	if err := gh.Merge(pr.ID); err == nil {
		t.Error("merge with failing checks must fail")
	}
}

func TestStageFailureSkipsLaterStages(t *testing.T) {
	gh, _, hub := setup(t, func(ctx context.Context, job *CIJob) (string, error) {
		if job.Stage == "build" {
			return "", fmt.Errorf("compile error")
		}
		return "ok", nil
	})
	pr := openContribution(t, gh, "newcomer", "docs/z.md", "z")
	_ = gh.Approve(pr.ID, "olga")
	pipeline, _ := hub.Sync(context.Background(), pr.ID)
	var bench *CIJob
	for _, j := range pipeline.Jobs {
		if j.Stage == "bench" {
			bench = j
		}
	}
	if bench == nil || bench.Status != JobSkipped {
		t.Errorf("bench job = %+v", bench)
	}
}

func TestNoMatchingRunnerSkips(t *testing.T) {
	gh, gl, hub := setup(t, nil)
	gl.RegisterRunner(&Runner{Name: "riken", Site: "RIKEN", Tags: []string{"fugaku"}, Exec: func(context.Context, *CIJob) (string, error) { return "", nil }})
	// The canonical CI file, which the fork inherits, demands a tag no
	// runner offers.
	custom := `
stages: [bench]
gpu-only:
  stage: bench
  script: [run]
  tags: [mi250x]
`
	if _, err := gh.Canonical.Commit("main", "olga", "gpu-only CI", map[string]string{".gitlab-ci.yml": custom}); err != nil {
		t.Fatal(err)
	}
	fork := gh.Fork("newcomer/benchpark")
	if _, err := fork.Commit("feature", "newcomer", "gpu", map[string]string{"unused.md": "x"}); err != nil {
		t.Fatal(err)
	}
	pr, err := gh.OpenPR("gpu", "newcomer", fork, "feature", "main")
	if err != nil {
		t.Fatal(err)
	}
	if err := gh.Approve(pr.ID, "olga"); err != nil {
		t.Fatal(err)
	}
	pipeline, err := hub.Sync(context.Background(), pr.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(pipeline.Jobs) != 1 || pipeline.Jobs[0].Status != JobSkipped {
		t.Fatalf("jobs = %+v, want the one gpu-only job skipped", pipeline.Jobs)
	}
	if pipeline.Status() == JobSuccess {
		t.Error("a pipeline in which no job ran reports success")
	}
	if got, _ := gh.PR(pr.ID); len(got.Checks) != 1 || got.Checks[0].State != StateFailure {
		t.Errorf("checks = %+v, want one failure", got.Checks)
	}
	if err := gh.Merge(pr.ID); err == nil {
		t.Error("a PR whose pipeline ran no job was merged")
	}
}

func TestParseCIConfigErrors(t *testing.T) {
	cases := []string{
		"stages: [a]\njob:\n  stage: b\n  script: [x]", // undeclared stage
		"job:\n  stage: test",                          // no script
		"stages: [a]",                                  // no jobs
		"[flow",                                        // bad yaml
	}
	for _, src := range cases {
		if _, _, err := ParseCIConfig(src); err == nil {
			t.Errorf("ParseCIConfig(%q): expected error", src)
		}
	}
}

func TestOpenPREmptyBranch(t *testing.T) {
	gh, _, _ := setup(t, nil)
	empty := NewRepo("empty")
	if _, err := gh.OpenPR("x", "olga", empty, "nothing", "main"); err == nil {
		t.Error("PR from empty branch should fail")
	}
}

// TestStaleApprovalInvalidated: pushing new commits after an approval
// must not let the new code run under the old review.
func TestStaleApprovalInvalidated(t *testing.T) {
	gh, _, hub := setup(t, nil)
	fork := gh.Fork("newcomer/benchpark")
	if _, err := fork.Commit("feature", "newcomer", "v1", map[string]string{"docs/a.md": "v1"}); err != nil {
		t.Fatal(err)
	}
	pr, err := gh.OpenPR("feature", "newcomer", fork, "feature", "main")
	if err != nil {
		t.Fatal(err)
	}
	if err := gh.Approve(pr.ID, "olga"); err != nil {
		t.Fatal(err)
	}
	// The contributor sneaks in another commit after the review.
	if _, err := fork.Commit("feature", "newcomer", "v2 sneaky", map[string]string{"docs/a.md": "rm -rf"}); err != nil {
		t.Fatal(err)
	}
	if err := gh.UpdateHead(pr.ID); err != nil {
		t.Fatal(err)
	}
	got, _ := gh.PR(pr.ID)
	if got.State == PRApproved {
		t.Fatal("approval must not survive new commits")
	}
	if _, err := hub.Sync(context.Background(), pr.ID); err == nil {
		t.Fatal("hubcast must refuse the un-reviewed head")
	}
	// Fresh approval of the new head unblocks it.
	if err := gh.Approve(pr.ID, "olga"); err != nil {
		t.Fatal(err)
	}
	if _, err := hub.Sync(context.Background(), pr.ID); err != nil {
		t.Fatalf("fresh approval should run: %v", err)
	}
}

// TestStaleApprovalWithoutUpdateHead: even if nobody called UpdateHead,
// Hubcast compares the approved SHA against the live head.
func TestStaleApprovalSHACheck(t *testing.T) {
	gh, _, hub := setup(t, nil)
	fork := gh.Fork("newcomer/benchpark")
	if _, err := fork.Commit("feature", "newcomer", "v1", map[string]string{"docs/a.md": "v1"}); err != nil {
		t.Fatal(err)
	}
	pr, err := gh.OpenPR("feature", "newcomer", fork, "feature", "main")
	if err != nil {
		t.Fatal(err)
	}
	if err := gh.Approve(pr.ID, "olga"); err != nil {
		t.Fatal(err)
	}
	// Mutate HeadSHA directly to simulate a race where the webhook
	// refreshed the head but the approval state was not recomputed.
	if _, err := fork.Commit("feature", "newcomer", "v2", map[string]string{"docs/a.md": "v2"}); err != nil {
		t.Fatal(err)
	}
	head, _ := fork.Head("feature")
	pr.HeadSHA = head
	if _, err := hub.Sync(context.Background(), pr.ID); err == nil {
		t.Fatal("hubcast must detect approved SHA != head SHA")
	}
}
