package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/*.golden from what this tree prints")

// TestFigure5Transcript pins what the five commands print and the
// archive they end with, recorded from the commit before the workspace
// moved into memory (ISSUE 17). The workspace path is relative, so the
// rendered scripts — and with them the archive bytes — do not depend
// on where the test runs.
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
	for _, args := range [][]string{
		{"workspace", "create", "-d", "ws", "--suite", "saxpy/openmp", "--system", "cts1"},
		{"workspace", "setup", "-d", "ws"},
		{"on", "-d", "ws"},
		{"workspace", "analyze", "-d", "ws"},
		{"workspace", "archive", "-d", "ws", "-o", "ws.tar.gz"},
	} {
		fmt.Printf("$ ramble %v\n", args)
		if runErr = run(args); runErr != nil {
			break
		}
	}
	os.Stdout = stdout
	w.Close()
	got := <-printed
	if runErr != nil {
		t.Fatalf("%v\n%s", runErr, got)
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
	edited := string(data)
	edited = replaceOnce(edited, "n: '10000000'", "n: '1000'")
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
	if !contains(string(content), "-n 1000 ") && !contains(string(content), "-n 1000\n") {
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

func contains(s, sub string) bool {
	return len(s) >= len(sub) && index(s, sub) >= 0
}

func index(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func replaceOnce(s, old, new string) string {
	i := index(s, old)
	if i < 0 {
		return s
	}
	return s[:i] + new + s[i+len(old):]
}
