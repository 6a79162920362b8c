package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule materializes a small throwaway module so the tests can
// exercise findings, suppression, and exit codes without dirtying the
// real repo.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, content := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

const badEngine = `// Package engine is a fixture.
package engine

import "context"

func run() error {
	ctx := context.TODO()
	_ = ctx
	return nil
}

func runSuppressed() {
	//benchlint:ignore ctxflow wrapper kept for the v0 CLI surface
	use(context.Background())
}

func use(ctx context.Context) { _ = ctx }
`

// TestCLITextOutputAndExitCodes pins the CLI's contract on a module
// with one live and one suppressed finding: the live one printed as
// file:line:col: analyzer: message, the suppressed one neither printed
// nor counted, exit 1; and exit 2 for a usage or load error.
func TestCLITextOutputAndExitCodes(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":                    "module tmplint\n\ngo 1.22\n",
		"internal/engine/engine.go": badEngine,
	})

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", dir}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n")
	if len(lines) != 1 || !strings.HasPrefix(lines[0], "internal/engine/engine.go:7:9: ctxflow: context.TODO()") {
		t.Errorf("want the one live finding as file:line:col: analyzer: message, got:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "benchlint: 1 finding(s) in 1 package(s)") {
		t.Errorf("the suppressed finding counted, or the summary is missing:\n%s", stderr.String())
	}

	// An unknown flag (-fix included: benchlint only reports), a
	// package pattern and an unloadable module are usage or load
	// errors.
	for _, args := range [][]string{
		{"-C", dir, "-json"},
		{"-C", dir, "-fix"},
		{"-C", dir, "./..."},
		{"-C", filepath.Join(dir, "missing")},
	} {
		stdout.Reset()
		stderr.Reset()
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit code = %d, want 2 (stderr: %s)", args, code, stderr.String())
		}
	}
}

// TestRepoIsClean is the acceptance gate in test form: the repo's own
// packages must carry zero unsuppressed findings.
func TestRepoIsClean(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", "../.."}, &stdout, &stderr); code != 0 {
		t.Fatalf("benchlint on the repo exited %d:\n%s%s", code, stdout.String(), stderr.String())
	}
}
