package analysis

import (
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// seededMutations is the audit table behind DESIGN.md's analyzer
// list: at least one row per analyzer in Suite(), each a bug that
// analyzer exists for, seeded into a copy of the real module. A row
// passes when the analyzer flags
// the mutated tree — every finding in wantFile (default: the mutated
// file) and carrying every `want` fragment — and `go vet` on the same
// package still passes, so the row proves the analyzer sees what vet
// does not. cmd/benchlint's TestRepoIsClean pins the other half: the
// untouched tree produces nothing.
var seededMutations = []struct {
	analyzer *Analyzer
	file     string      // module-relative mutation site
	edits    [][2]string // old → new; each old text must occur exactly once
	wantFile string
	want     []string
}{
	{
		// A callee handed a fresh context: cancelling the install no
		// longer reaches the workers.
		analyzer: CtxFlow, file: "internal/install/install.go",
		edits: [][2]string{{"inst.executeParallel(ctx, order, states, workers)", "inst.executeParallel(context.Background(), order, states, workers)"}},
		want:  []string{"context.Background()"},
	},
	{
		// The sort after collecting a spec's dependency names dropped:
		// rendered specs and DAG hashes follow map order.
		analyzer: Determinism, file: "internal/spec/spec.go",
		edits: [][2]string{{"\tfor n := range s.Deps {\n\t\tnames = append(names, n)\n\t}\n\tsort.Strings(names)\n", "\tfor n := range s.Deps {\n\t\tnames = append(names, n)\n\t}\n"}},
		want:  []string{"names", "never sorted"},
	},
	{
		// A commit failure flattened into an untyped, unwrapped error.
		analyzer: StageErr, file: "internal/engine/engine.go",
		edits: [][2]string{{"System: rep.Label, Err: err}\n\t\t\treturn rep, rep.Err\n", "System: rep.Label, Err: err}\n\t\t\treturn rep, fmt.Errorf(\"engine: commit %s: %v\", name, err)\n"}},
		want:  []string{"fmt.Errorf"},
	},
	{
		// An early-out added after the self-monitor takes its lock: the
		// first sample of a server that has served nothing keeps m.mu
		// forever and the next one hangs.
		analyzer: Locks, file: "internal/resultsd/selfmonitor.go",
		edits: [][2]string{{"\tm.mu.Lock()\n\tm.seq++\n", "\tm.mu.Lock()\n\tif len(routes) == 0 {\n\t\treturn nil\n\t}\n\tm.seq++\n"}},
		want:  []string{"m.mu.Lock is not released"},
	},
	{
		// A failed CI job's span never Ended: failures vanish from the
		// pipeline trace.
		analyzer: SpanEnd, file: "internal/ci/pipeline.go",
		edits: [][2]string{{"\t\t\t\tjspan.SetAttr(\"status\", string(JobFailed))\n\t\t\t\tjspan.End()\n", "\t\t\t\tjspan.SetAttr(\"status\", string(JobFailed))\n"}},
		want:  []string{"jspan"},
	},
	{
		// Health made to wait out a running compaction: mu → compactMu
		// against the compactMu → mu order the rest of the store keeps
		// (the cycle is reported once, at the first edge on it).
		analyzer: LockOrder, file: "internal/resultstore/health.go",
		edits:    [][2]string{{"func (s *Store) Health() Health {\n\ts.mu.Lock()\n\tdefer s.mu.Unlock()\n", "func (s *Store) Health() Health {\n\ts.mu.Lock()\n\tdefer s.mu.Unlock()\n\ts.compactMu.Lock()\n\tdefer s.compactMu.Unlock()\n"}},
		wantFile: "internal/resultstore/store.go",
		want:     []string{"Store.compactMu", "Store.mu"},
	},
	{
		// Background compaction fired and forgotten so the compactor
		// loop never blocks: Close no longer waits for it.
		analyzer: GoroLeak, file: "internal/resultstore/snapshot.go",
		edits: [][2]string{{"\t\t\t_ = s.Compact()\n", "\t\t\tgo s.Compact()\n"}},
		want:  []string{"neither joined"},
	},
	{
		// Store.Append's fsync stripped out: the exact mutation a
		// power-cut data-loss bug would be.
		analyzer: WalAck, file: "internal/resultstore/store.go",
		edits: [][2]string{{"werr = s.active.Sync()", "werr = nil"}},
		want:  []string{"Append"},
	},
	{
		// A time.Now() read inside the concretizer's memoized solve: the
		// cached result is no longer a pure function of its key.
		analyzer: Purity, file: "internal/concretizer/concretizer.go",
		edits: [][2]string{
			{"c.Memo.store(key, out)", "_ = time.Now().Unix()\n\tc.Memo.store(key, out)"},
			{"\"sort\"", "\"sort\"\n\t\"time\""},
		},
		want: []string{"ConcretizeTogether", "wall clock"},
	},
	{
		// A deep merge walking the source's value map instead of its
		// ordered key list: merged documents come out in map order.
		analyzer: MapOrder, file: "internal/yamlite/yamlite.go",
		edits: [][2]string{{"\tfor _, k := range src.keys {\n\t\tsv := src.vals[k]\n", "\tfor k, sv := range src.vals {\n"}},
		want:  []string{"Merge"},
	},
	{
		// The commit hash's sorted-paths loop un-sorted in front of the
		// Fprintf that feeds the hash: a commit's SHA changes run to run.
		analyzer: MapOrder, file: "internal/ci/githost.go",
		edits: [][2]string{{"\tsort.Strings(paths)\n\tfor _, p := range paths {\n\t\tfmt.Fprintf(h, ", "\tsort.Strings(paths)\n\tfor p := range c.Files {\n\t\tfmt.Fprintf(h, "}},
		want:  []string{"hash-state update", "fmt.Fprintf"},
	},
	{
		// "Someone added a field but not to the key": an exported field
		// tagged json:"-" in the struct the concretizer hashes into its
		// config fingerprint. (core's execute key is encoded by hand and
		// held to its struct by TestExperimentKeyMatchesMarshalledStruct.)
		analyzer: KeyCover, file: "internal/concretizer/config.go",
		edits: [][2]string{{"ReuseInstalled   []string\n\t}{", "ReuseInstalled   []string\n\t\tDeadline         string `json:\"-\"`\n\t}{"}},
		want:  []string{"Deadline"},
	},
	{
		// The follower sync loop's `defer ticker.Stop()` deleted.
		analyzer: CloseCheck, file: "internal/resultsd/replica.go",
		edits: [][2]string{{"\tdefer ticker.Stop()\n", ""}},
		want:  []string{"ticker"},
	},
	{
		// The client retry path's `defer cancel()` replaced with the
		// `_ = cancel` a developer writes to silence the compiler (vet's
		// lostcancel accepts it).
		analyzer: CtxLeak, file: "internal/resultsd/client.go",
		edits: [][2]string{{"defer cancel()", "_ = cancel"}},
		want:  []string{"WithTimeout"},
	},
	{
		// A queued batch's ack channel made unbuffered: the committer
		// blocks forever acknowledging a waiter that gave up.
		analyzer: SendBlock, file: "internal/resultstore/commit.go",
		edits:    [][2]string{{"done: make(chan error, 1)}", "done: make(chan error)}"}},
		wantFile: "internal/resultstore/store.go",
		want:     []string{"s.committer", "unguarded channel send"},
	},
}

func TestSeededMutations(t *testing.T) {
	root := copyModule(t, "../..")
	covered := map[string]bool{}
	for _, m := range seededMutations {
		covered[m.analyzer.Name] = true
		t.Run(m.analyzer.Name, func(t *testing.T) {
			path := filepath.Join(root, m.file)
			orig, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// Rows share one copy of the module (its dependencies' export
			// data is built once), so each puts its site back.
			defer os.WriteFile(path, orig, 0o644)
			mutated := string(orig)
			for _, e := range m.edits {
				if n := strings.Count(mutated, e[0]); n != 1 {
					t.Fatalf("found %d occurrences of %q in %s, want 1 (mutation site moved?)", n, e[0], m.file)
				}
				mutated = strings.Replace(mutated, e[0], e[1], 1)
			}
			if err := os.WriteFile(path, []byte(mutated), 0o644); err != nil {
				t.Fatal(err)
			}

			pkg := "./" + filepath.ToSlash(filepath.Dir(m.file))
			res, err := RunModule(RunOptions{Dir: root, Patterns: []string{pkg}, Analyzers: []*Analyzer{m.analyzer}})
			if err != nil {
				t.Fatal(err)
			}
			wantFile := m.wantFile
			if wantFile == "" {
				wantFile = m.file
			}
			hits := 0
			for _, f := range res.Findings {
				if f.Analyzer != m.analyzer.Name || f.Suppressed {
					continue
				}
				hits++
				if f.File != wantFile {
					t.Errorf("finding in %s, want %s: %s", f.File, wantFile, f.Message)
				}
				for _, frag := range m.want {
					if !strings.Contains(f.Message, frag) {
						t.Errorf("finding does not mention %q: %s", frag, f.Message)
					}
				}
			}
			if hits == 0 {
				t.Fatalf("%s missed the mutation seeded into %s", m.analyzer.Name, m.file)
			}

			vet := exec.Command("go", "vet", pkg)
			vet.Dir = root
			if out, err := vet.CombinedOutput(); err != nil {
				t.Errorf("go vet already rejects this mutation, so the row proves nothing about %s: %v\n%s", m.analyzer.Name, err, out)
			}
		})
	}
	for _, a := range Suite() {
		if !covered[a.Name] {
			t.Errorf("analyzer %s has no seeded-mutation row: add one or delete the analyzer", a.Name)
		}
	}
}

// copyModule clones the module's go.mod and internal/ tree into a
// temp dir (testdata fixtures excluded — they are not part of any
// build) so tests can mutate source freely.
func copyModule(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	for _, top := range []string{"go.mod", "internal"} {
		err := filepath.WalkDir(filepath.Join(src, top), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			rel, err := filepath.Rel(src, path)
			if err != nil {
				return err
			}
			out := filepath.Join(dst, rel)
			if d.IsDir() {
				return os.MkdirAll(out, 0o755)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			return os.WriteFile(out, data, 0o644)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return dst
}
