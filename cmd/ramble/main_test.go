package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/*.golden from what this tree prints")

// TestFigure5Transcript pins what the five commands print and the
// archive they end with, logs/results.json of `ramble on` included. The
// workspace path is relative, so the rendered scripts — and with them
// the archive bytes — do not depend on where the test runs.
func TestFigure5Transcript(t *testing.T) {
	golden, err := filepath.Abs(filepath.Join("testdata", "figure5_transcript.golden"))
	if err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd) //nolint:errcheck

	got, err := transcript(t,
		[]string{"workspace", "create", "-d", "ws", "--suite", "saxpy/openmp", "--system", "cts1"},
		[]string{"workspace", "setup", "-d", "ws"},
		[]string{"on", "-d", "ws"},
		[]string{"workspace", "analyze", "-d", "ws"},
		[]string{"workspace", "archive", "-d", "ws", "-o", "ws.tar.gz"},
	)
	if err != nil {
		t.Fatalf("%v\n%s", err, got)
	}
	archive, err := os.ReadFile("ws.tar.gz")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, fmt.Sprintf("ws.tar.gz sha256 %x\n", sha256.Sum256(archive))...)

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("transcript differs:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// transcript runs the commands in order, each echoed as "$ ramble
// [args]", and returns what they printed, stopping at the first error.
func transcript(t *testing.T, cmds ...[]string) ([]byte, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	printed := make(chan []byte, 1)
	go func() {
		data, _ := io.ReadAll(r)
		printed <- data
	}()
	var runErr error
	for _, args := range cmds {
		fmt.Printf("$ ramble %v\n", args)
		if runErr = run(args); runErr != nil {
			break
		}
	}
	os.Stdout = stdout
	w.Close()
	return <-printed, runErr
}

// TestFailedExperimentsSayWhy: `ramble on` and `workspace analyze`
// count the failed experiments and print each with its reason — the
// kernel's error for `on` — and still exit 0.
func TestFailedExperimentsSayWhy(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ws")
	if err := run([]string{"workspace", "create", "-d", dir, "--suite", "amg2023/openmp", "--system", "cts1"}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "configs", "ramble.yaml")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	edited := strings.Replace(string(data), "nz: '32'\n", "nz: '32'\n            px: '0'\n            pz: '8'\n", 1)
	if err := os.WriteFile(path, []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := transcript(t, []string{"on", "-d", dir}, []string{"workspace", "analyze", "-d", dir})
	if err != nil {
		t.Fatalf("%v\n%s", err, got)
	}
	for _, want := range []string{
		"==> executed 2 experiments on cts1: 0 succeeded, 2 failed",
		"amg2023_openmp_1_8                   failed    bench: process grid 0x1x8 has non-positive extent\n",
		"==> analyzed 2 experiments: 0 succeeded, 2 failed",
		"amg2023_openmp_2_16                  failed    no output (`ramble on` did not run it, or it failed)\n",
	} {
		if !strings.Contains(string(got), want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}
}

// TestFigure5CommandSequence drives the exact five-command workflow
// of the paper's Figure 5 across separate invocations, with all state
// living in the workspace directory between commands.
func TestFigure5CommandSequence(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ws")
	// ramble workspace create
	if err := run([]string{"workspace", "create", "-d", dir, "--suite", "saxpy/openmp", "--system", "cts1"}); err != nil {
		t.Fatalf("create: %v", err)
	}
	// (workspace edit = the user touching configs/ramble.yaml; state is on disk)
	if _, err := os.Stat(filepath.Join(dir, "configs", "ramble.yaml")); err != nil {
		t.Fatalf("ramble.yaml missing: %v", err)
	}
	// ramble workspace setup
	if err := run([]string{"workspace", "setup", "-d", dir}); err != nil {
		t.Fatalf("setup: %v", err)
	}
	// ramble on
	if err := run([]string{"on", "-d", dir}); err != nil {
		t.Fatalf("on: %v", err)
	}
	// Outputs persisted on disk for the next invocation.
	outs, err := filepath.Glob(filepath.Join(dir, "experiments", "saxpy", "problem", "*", "*.out"))
	if err != nil || len(outs) != 8 {
		t.Fatalf("outputs = %d, %v", len(outs), err)
	}
	// ramble workspace analyze (fresh process: recovers outputs from disk)
	if err := run([]string{"workspace", "analyze", "-d", dir}); err != nil {
		t.Fatalf("analyze: %v", err)
	}
	// ramble workspace archive
	arch := filepath.Join(t.TempDir(), "ws.tar.gz")
	if err := run([]string{"workspace", "archive", "-d", dir, "-o", arch}); err != nil {
		t.Fatalf("archive: %v", err)
	}
	if fi, err := os.Stat(arch); err != nil || fi.Size() == 0 {
		t.Errorf("archive: %v", err)
	}
}

// TestOnIsSessionRun: `ramble on` is a Session.Run. After `workspace
// create` and `on`, the workspace's experiments/ files and
// logs/results.json are byte for byte what Setup, Session.Run and Save
// leave for the same suite and system, once each workspace's root is
// normalised out.
func TestOnIsSessionRun(t *testing.T) {
	cli := filepath.Join(t.TempDir(), "ws")
	for _, args := range [][]string{
		{"workspace", "create", "-d", cli, "--suite", "saxpy/openmp", "--system", "cts1"},
		{"on", "-d", cli},
	} {
		if err := run(args); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}
	ref := filepath.Join(t.TempDir(), "ws")
	sess, err := core.New().Setup("saxpy/openmp", "cts1", ref)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.Run(context.Background(), core.RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := sess.Workspace.Save(); err != nil {
		t.Fatal(err)
	}
	got, want := runFiles(t, cli), runFiles(t, ref)
	if want["logs/results.json"] == "" || len(got) != len(want) {
		t.Errorf("`ramble on` left %d files, Session.Run %d (results.json %d bytes)", len(got), len(want), len(want["logs/results.json"]))
	}
	for rel, data := range want {
		if got[rel] != data {
			t.Errorf("%s differs:\n--- ramble on ---\n%s\n--- Session.Run ---\n%s", rel, got[rel], data)
		}
	}
}

// TestOnRecordsTheCreatedSuite: a workspace created for saxpy/openmp
// in a directory named ws is a saxpy/openmp session when `ramble on`
// reopens it — in logs/results.json and in every manifest there — not
// one named after the directory.
func TestOnRecordsTheCreatedSuite(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ws")
	for _, args := range [][]string{
		{"workspace", "create", "-d", dir, "--suite", "saxpy/openmp", "--system", "cts1"},
		{"on", "-d", dir},
	} {
		if err := run(args); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, "logs", "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	var log struct {
		Suite   string `json:"suite"`
		Results []struct {
			Manifest string `json:"manifest"`
		} `json:"results"`
	}
	if err := json.Unmarshal(data, &log); err != nil {
		t.Fatal(err)
	}
	if log.Suite != "saxpy/openmp" || len(log.Results) != 8 {
		t.Fatalf("results.json names suite %q over %d results, want saxpy/openmp over 8", log.Suite, len(log.Results))
	}
	for _, r := range log.Results {
		if !strings.HasPrefix(r.Manifest, "suite: saxpy/openmp\nsystem-model: ") {
			t.Errorf("manifest does not name the created suite:\n%s", r.Manifest)
		}
	}
}

// runFiles returns every file under root's experiments/ and logs/,
// keyed by slash path relative to root, with root itself replaced by
// $WORKSPACE in their contents.
func runFiles(t *testing.T, root string) map[string]string {
	t.Helper()
	files := map[string]string{}
	for _, sub := range []string{"experiments", "logs"} {
		err := filepath.WalkDir(filepath.Join(root, sub), func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			data, err := os.ReadFile(path)
			rel, _ := filepath.Rel(root, path)
			files[filepath.ToSlash(rel)] = strings.ReplaceAll(string(data), root, "$WORKSPACE")
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return files
}

func TestEditBetweenCommands(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ws")
	if err := run([]string{"workspace", "create", "-d", dir, "--suite", "stream/triad", "--system", "cts1"}); err != nil {
		t.Fatal(err)
	}
	// `ramble workspace edit`: the user shrinks the problem.
	path := filepath.Join(dir, "configs", "ramble.yaml")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	edited := strings.Replace(string(data), "n: '10000000'", "n: '1000'", 1)
	if err := os.WriteFile(path, []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"on", "-d", dir}); err != nil {
		t.Fatal(err)
	}
	// The edit took effect in the generated scripts.
	scripts, _ := filepath.Glob(filepath.Join(dir, "experiments", "stream", "triad", "*", "execute_experiment.sh"))
	if len(scripts) == 0 {
		t.Fatal("no scripts")
	}
	content, _ := os.ReadFile(scripts[0])
	if !strings.Contains(string(content), "-n 1000 ") && !strings.Contains(string(content), "-n 1000\n") {
		t.Errorf("edited n not in script:\n%s", content)
	}
}

func TestErrorsWithoutWorkspace(t *testing.T) {
	for _, args := range [][]string{
		{"workspace", "setup", "-d", "/nonexistent-ws"},
		{"on", "-d", "/nonexistent-ws"},
		{"workspace", "analyze", "-d", "/nonexistent-ws"},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%v): expected error", args)
		}
	}
	if err := run([]string{"workspace", "create", "-d", t.TempDir()}); err == nil {
		t.Error("create without suite/system should fail")
	}
	if err := run([]string{"workspace"}); err == nil {
		t.Error("bare workspace should fail")
	}
	if err := run([]string{"bogus"}); err == nil {
		t.Error("unknown command should fail")
	}
	if err := run([]string{"on"}); err == nil {
		t.Error("on without -d should fail")
	}
	if err := run(nil); err != nil {
		t.Errorf("bare invocation prints usage: %v", err)
	}
}

// TestUnknownFlagsRefused: each command takes only its own flags.
func TestUnknownFlagsRefused(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ws")
	if err := run([]string{"workspace", "create", "-d", dir, "--suite", "saxpy/openmp", "--system", "cts1"}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"workspace", "analyze", "-d", dir, "--jobs", "4"}, "flag provided but not defined: -jobs"},
		{[]string{"workspace", "setup", "-d", dir, "--suite", "saxpy/openmp"}, "flag provided but not defined: -suite"},
		{[]string{"on", "-d", dir, "-o", "out.tar.gz"}, "flag provided but not defined: -o"},
		{[]string{"on", "-d", dir, "extra"}, `unexpected argument "extra"`},
		{[]string{"workspace", "setup", "-d"}, "flag needs an argument: -d"},
	} {
		if err := run(tc.args); err == nil || err.Error() != tc.want {
			t.Errorf("run(%v) = %v, want %q", tc.args, err, tc.want)
		}
	}
	if err := run([]string{"on", "-h"}); err != nil {
		t.Errorf("-h prints the usage: %v", err)
	}
}
