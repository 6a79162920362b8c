// Package ci implements the federated continuous-integration layer of
// Section 3.3 and Figure 6: a content-addressed git hosting
// simulation (GitHub and GitLab sides), Hubcast secure mirroring of
// pull requests with security criteria and admin approval, Jacamar's
// setuid-style user attribution for CI jobs, and a GitLab-CI pipeline
// executor driven by .gitlab-ci.yml files.
package ci

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Commit is one immutable snapshot of a repository's files.
type Commit struct {
	SHA     string
	Parent  string
	Author  string
	Message string
	Files   map[string]string // full snapshot: path -> content
}

// Repo is a hosted git repository (a simplified content-addressed
// model: each commit stores a full tree snapshot).
type Repo struct {
	Name string

	mu       sync.RWMutex
	commits  map[string]*Commit
	branches map[string]string // branch -> head SHA
}

// NewRepo returns a repository with an empty main branch.
func NewRepo(name string) *Repo {
	return &Repo{
		Name:     name,
		commits:  map[string]*Commit{},
		branches: map[string]string{"main": ""},
	}
}

// Commit applies file changes on top of a branch head and advances
// the branch. Deleting a file is done by setting its content to "".
func (r *Repo) Commit(branch, author, message string, changes map[string]string) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	parent, ok := r.branches[branch]
	if !ok {
		// Creating a new branch from main.
		parent = r.branches["main"]
		r.branches[branch] = parent
	}
	files := map[string]string{}
	if parent != "" {
		for k, v := range r.commits[parent].Files {
			files[k] = v
		}
	}
	for path, content := range changes {
		if content == "" {
			delete(files, path)
		} else {
			files[path] = content
		}
	}
	c := &Commit{Parent: parent, Author: author, Message: message, Files: files}
	c.SHA = hashCommit(c)
	r.commits[c.SHA] = c
	r.branches[branch] = c.SHA
	return c.SHA, nil
}

func hashCommit(c *Commit) string {
	h := sha256.New()
	fmt.Fprintf(h, "parent:%s\nauthor:%s\nmsg:%s\n", c.Parent, c.Author, c.Message)
	paths := make([]string, 0, len(c.Files))
	for p := range c.Files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		fmt.Fprintf(h, "%s\x00%s\x00", p, c.Files[p])
	}
	return hex.EncodeToString(h.Sum(nil))[:40]
}

// Head returns the SHA at a branch head ("" if the branch is empty).
func (r *Repo) Head(branch string) (string, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	sha, ok := r.branches[branch]
	return sha, ok
}

// Get returns a commit by SHA.
func (r *Repo) Get(sha string) (*Commit, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c, ok := r.commits[sha]
	return c, ok
}

// FileAt reads one file from a commit.
func (r *Repo) FileAt(sha, path string) (string, bool) {
	c, ok := r.Get(sha)
	if !ok {
		return "", false
	}
	content, ok := c.Files[path]
	return content, ok
}

// changedPaths lists, sorted, the paths whose content differs between
// two tree snapshots, added and deleted files included.
func changedPaths(base, head map[string]string) []string {
	var out []string
	for path, content := range head {
		if old, ok := base[path]; !ok || old != content {
			out = append(out, path)
		}
	}
	for path := range base {
		if _, ok := head[path]; !ok {
			out = append(out, path)
		}
	}
	sort.Strings(out)
	return out
}

// ImportCommit copies a commit object verbatim (mirroring) and points
// a branch at it.
func (r *Repo) ImportCommit(c *Commit, branch string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.commits[c.SHA] = c
	r.branches[branch] = c.SHA
}

// ---------------------------------------------------------------------------
// GitHub side: users, pull requests, status checks
// ---------------------------------------------------------------------------

// User is a GitHub account known to the Benchpark project.
type User struct {
	Name string
	// Trusted marks project members whose PRs may run CI without
	// fresh review.
	Trusted bool
	// SiteAdmin can approve PRs for execution on HPC resources.
	SiteAdmin bool
	// SiteAccounts lists HPC sites where this user has an account —
	// Jacamar runs their jobs under their own identity there.
	SiteAccounts []string
}

// HasAccountAt reports whether the user has an account at a site.
func (u User) HasAccountAt(site string) bool {
	for _, s := range u.SiteAccounts {
		if s == site {
			return true
		}
	}
	return false
}

// CheckState is a GitHub commit-status state.
type CheckState string

const (
	// StatePending: workflow queued or running.
	StatePending CheckState = "pending"
	// StateSuccess: workflow passed.
	StateSuccess CheckState = "success"
	// StateFailure: workflow failed.
	StateFailure CheckState = "failure"
)

// StatusCheck is one native status check on a PR (streamed back
// through Hubcast).
type StatusCheck struct {
	Context     string
	State       CheckState
	Description string
}

// PRState is a pull request's lifecycle state.
type PRState string

const (
	// PROpen: awaiting review.
	PROpen PRState = "open"
	// PRApproved: reviewed and approved for CI.
	PRApproved PRState = "approved"
	// PRMerged into the target branch.
	PRMerged PRState = "merged"
)

// PullRequest models a GitHub PR, possibly from an untrusted fork.
type PullRequest struct {
	ID           int
	Title        string
	Author       string
	SourceRepo   *Repo // fork (may be the canonical repo itself)
	SourceBranch string
	TargetBranch string
	HeadSHA      string
	State        PRState
	ApprovedBy   string
	// ApprovedSHA records which commit the approval reviewed; pushing
	// new commits invalidates the approval (TOCTOU protection).
	ApprovedSHA string
	Checks      []StatusCheck
}

// GitHub hosts the canonical repository, users and PRs.
type GitHub struct {
	Canonical *Repo

	mu     sync.Mutex
	users  map[string]User
	prs    map[int]*PullRequest
	nextPR int
}

// NewGitHub returns a host around a canonical repository.
func NewGitHub(canonical *Repo) *GitHub {
	return &GitHub{Canonical: canonical, users: map[string]User{}, prs: map[int]*PullRequest{}}
}

// AddUser registers an account.
func (g *GitHub) AddUser(u User) { g.mu.Lock(); defer g.mu.Unlock(); g.users[u.Name] = u }

// UserByName looks up an account.
func (g *GitHub) UserByName(name string) (User, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	u, ok := g.users[name]
	return u, ok
}

// OpenPR opens a pull request from a source repo/branch.
func (g *GitHub) OpenPR(title, author string, source *Repo, sourceBranch, targetBranch string) (*PullRequest, error) {
	head, ok := source.Head(sourceBranch)
	if !ok || head == "" {
		return nil, fmt.Errorf("ci: source branch %s has no commits", sourceBranch)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.users[author]; !ok {
		return nil, fmt.Errorf("ci: unknown user %q", author)
	}
	g.nextPR++
	pr := &PullRequest{
		ID: g.nextPR, Title: title, Author: author,
		SourceRepo: source, SourceBranch: sourceBranch,
		TargetBranch: targetBranch, HeadSHA: head, State: PROpen,
	}
	g.prs[pr.ID] = pr
	return pr, nil
}

// Approve records a review approval. Only site admins may approve
// runs on HPC resources (Section 3.3.1).
func (g *GitHub) Approve(prID int, reviewer string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	pr, ok := g.prs[prID]
	if !ok {
		return fmt.Errorf("ci: no PR #%d", prID)
	}
	u, ok := g.users[reviewer]
	if !ok {
		return fmt.Errorf("ci: unknown reviewer %q", reviewer)
	}
	if !u.SiteAdmin {
		return fmt.Errorf("ci: %s is not a site and system administrator", reviewer)
	}
	if reviewer == pr.Author {
		return fmt.Errorf("ci: authors cannot approve their own pull requests")
	}
	pr.State = PRApproved
	pr.ApprovedBy = reviewer
	pr.ApprovedSHA = pr.HeadSHA
	return nil
}

// UpdateHead refreshes a PR after new commits on its source branch.
// If the head moved past an approval, the approval is invalidated and
// the PR returns to open — untrusted code cannot ride an old review
// onto HPC resources.
func (g *GitHub) UpdateHead(prID int) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	pr, ok := g.prs[prID]
	if !ok {
		return fmt.Errorf("ci: no PR #%d", prID)
	}
	head, ok := pr.SourceRepo.Head(pr.SourceBranch)
	if !ok || head == "" {
		return fmt.Errorf("ci: PR #%d source branch vanished", prID)
	}
	if head == pr.HeadSHA {
		return nil
	}
	pr.HeadSHA = head
	pr.Checks = nil
	if pr.State == PRApproved && pr.ApprovedSHA != head {
		pr.State = PROpen
		pr.ApprovedBy = ""
		pr.ApprovedSHA = ""
	}
	return nil
}

// PR fetches a pull request.
func (g *GitHub) PR(id int) (*PullRequest, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	pr, ok := g.prs[id]
	return pr, ok
}

// SetStatus records (or updates) a status check on a PR — what
// Hubcast streams back so contributors see native checks.
func (g *GitHub) SetStatus(prID int, check StatusCheck) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	pr, ok := g.prs[prID]
	if !ok {
		return fmt.Errorf("ci: no PR #%d", prID)
	}
	for i := range pr.Checks {
		if pr.Checks[i].Context == check.Context {
			pr.Checks[i] = check
			return nil
		}
	}
	pr.Checks = append(pr.Checks, check)
	return nil
}

// Merge merges an approved PR with all checks green.
func (g *GitHub) Merge(prID int) error {
	g.mu.Lock()
	pr, ok := g.prs[prID]
	if !ok {
		g.mu.Unlock()
		return fmt.Errorf("ci: no PR #%d", prID)
	}
	if pr.State != PRApproved {
		g.mu.Unlock()
		return fmt.Errorf("ci: PR #%d is %s, not approved", prID, pr.State)
	}
	for _, c := range pr.Checks {
		if c.State != StateSuccess {
			g.mu.Unlock()
			return fmt.Errorf("ci: PR #%d check %q is %s", prID, c.Context, c.State)
		}
	}
	if len(pr.Checks) == 0 {
		g.mu.Unlock()
		return fmt.Errorf("ci: PR #%d has no status checks; CI has not run", prID)
	}
	g.mu.Unlock()

	commit, ok := pr.SourceRepo.Get(pr.HeadSHA)
	if !ok {
		return fmt.Errorf("ci: PR head %s vanished", pr.HeadSHA)
	}
	g.Canonical.ImportCommit(commit, pr.TargetBranch)
	g.mu.Lock()
	pr.State = PRMerged
	g.mu.Unlock()
	return nil
}

// Fork clones the canonical repo's main branch into a new repo.
func (g *GitHub) Fork(name string) *Repo {
	fork := NewRepo(name)
	if head, ok := g.Canonical.Head("main"); ok && head != "" {
		c, _ := g.Canonical.Get(head)
		fork.ImportCommit(c, "main")
	}
	return fork
}

func joinPaths(paths []string) string { return strings.Join(paths, ", ") }
