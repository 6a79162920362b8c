package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTestModule materializes a throwaway module for runner-level
// tests (mirrors cmd/benchlint's helper; duplicated because testdata
// fixtures cannot express go.mod-rooted modules).
func writeTestModule(t *testing.T, files map[string]string) string {
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

// TestCrossPackageLockOrder drives the fact system end to end through
// the runner: the leaf package's helper exports an
// Acquires fact, the top package closes a lock-order cycle through a
// call to it, and lockorder reports the cycle exactly once.
func TestCrossPackageLockOrder(t *testing.T) {
	dir := writeTestModule(t, map[string]string{
		"go.mod": "module xmod\n\ngo 1.22\n",
		"a/a.go": `package a

import "sync"

type A struct{ Mu sync.Mutex }

func AcquireA(x *A) {
	x.Mu.Lock()
	x.Mu.Unlock()
}
`,
		"b/b.go": `package b

import (
	"sync"

	"xmod/a"
)

type B struct{ mu sync.Mutex }

func BA(x *a.A, y *B) {
	y.mu.Lock()
	defer y.mu.Unlock()
	a.AcquireA(x)
}

func AB(x *a.A, y *B) {
	x.Mu.Lock()
	defer x.Mu.Unlock()
	y.mu.Lock()
	defer y.mu.Unlock()
}
`,
	})

	res, err := RunModule(dir, []*Analyzer{LockOrder})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) != 1 {
		t.Fatalf("want exactly 1 lockorder finding, got %v", res.Findings)
	}
	f := res.Findings[0]
	if f.Analyzer != "lockorder" || f.File != "b/b.go" {
		t.Errorf("finding = %+v, want lockorder in b/b.go", f)
	}
	if !strings.Contains(f.Message, "a.A.Mu") || !strings.Contains(f.Message, "b.B.mu") {
		t.Errorf("cycle message does not name both lock classes: %s", f.Message)
	}
}
