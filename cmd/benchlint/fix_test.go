package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixableEngine has exactly two findings, both with mechanical fixes:
// a span never Ended (spanend inserts the defer) and a fresh context
// in a function that already has a ctx parameter (ctxflow reroutes
// it).
const fixableEngine = `// Package engine is a fixture.
package engine

import "context"

type tracer struct{}

type span struct{}

func (tracer) StartSpan(ctx context.Context, name string) (context.Context, *span) {
	return ctx, &span{}
}

func (*span) End() {}

func work(ctx context.Context, t tracer) error {
	ctx, s := t.StartSpan(ctx, "work")
	_ = ctx
	_ = s
	return nil
}

func mint(ctx context.Context) {
	use(context.Background())
}

func use(ctx context.Context) { _ = ctx }
`

// TestCLIFixDiffIdempotent pins the spanend and ctxflow repairs end to
// end: without -fix the findings gate and the tree is untouched, -fix
// applies both, the fixed tree is clean, and a second -fix is a no-op.
func TestCLIFixDiffIdempotent(t *testing.T) {
	files := map[string]string{
		"go.mod":                    "module tmplint\n\ngo 1.22\n",
		"internal/engine/engine.go": fixableEngine,
	}
	dir := writeModule(t, files)
	src := filepath.Join(dir, "internal", "engine", "engine.go")

	// A plain run reports both findings and writes nothing.
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", dir}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, stderr.String())
	}
	after, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != fixableEngine {
		t.Error("a run without -fix modified the source tree")
	}

	// -fix applies both; repaired findings no longer gate the exit.
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-C", dir, "-fix"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-fix exit code = %d, want 0\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	fixed, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(fixed), "defer s.End()") || !strings.Contains(string(fixed), "use(ctx)") {
		t.Fatalf("-fix did not apply both edits:\n%s", fixed)
	}

	// The fixed tree is clean and gofmt-stable: a second -fix run
	// finds nothing and changes nothing (idempotence).
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-C", dir, "-fix"}, &stdout, &stderr); code != 0 {
		t.Fatalf("second -fix exit code = %d, want 0\n%s%s", code, stdout.String(), stderr.String())
	}
	again, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(fixed) {
		t.Errorf("-fix is not idempotent:\nfirst:\n%s\nsecond:\n%s", fixed, again)
	}

	// And the plain run agrees: no findings remain.
	if code := run([]string{"-C", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("fixed module still has findings (exit %d):\n%s", code, stdout.String())
	}
}

// unsortedMetrics has exactly one finding, with a mechanical fix:
// a map-range feeding a hash (maporder rewrites it to sorted keys).
// It lives outside determinism's scope so only maporder fires.
const unsortedMetrics = `// Package metrics is a fixture.
package metrics

import (
	"crypto/sha256"
)

func Digest(m map[string]string) []byte {
	h := sha256.New()
	for k, v := range m {
		h.Write([]byte(k + "=" + v))
	}
	return h.Sum(nil)
}
`

// TestCLIFixMapOrderIdempotent pins the maporder sort-keys rewrite
// end to end: -fix collects, sorts, and ranges the keys (inserting
// the sort import), the fixed tree is clean, and a second -fix is a
// no-op.
func TestCLIFixMapOrderIdempotent(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":                      "module tmplint\n\ngo 1.22\n",
		"internal/metrics/metrics.go": unsortedMetrics,
	})
	src := filepath.Join(dir, "internal", "metrics", "metrics.go")

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", dir, "-fix"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-fix exit code = %d, want 0\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	fixed, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"sort"`, "sort.Strings(ks)", "for _, k := range ks", "v := m[k]"} {
		if !strings.Contains(string(fixed), want) {
			t.Errorf("fixed source missing %q:\n%s", want, fixed)
		}
	}

	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-C", dir, "-fix"}, &stdout, &stderr); code != 0 {
		t.Fatalf("second -fix exit code = %d, want 0\n%s%s", code, stdout.String(), stderr.String())
	}
	again, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(fixed) {
		t.Errorf("maporder fix is not idempotent:\nfirst:\n%s\nsecond:\n%s", fixed, again)
	}

	if code := run([]string{"-C", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("fixed module still has findings (exit %d):\n%s", code, stdout.String())
	}
}

// TestCLIListJSON pins the machine-readable analyzer inventory the
// verify gate asserts against.
func TestCLIListJSON(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list", "-json"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list -json exit code = %d", code)
	}
	var entries []struct {
		Name  string   `json:"name"`
		Doc   string   `json:"doc"`
		Scope []string `json:"scope"`
		Fixes bool     `json:"fixes"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &entries); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, stdout.String())
	}
	wantNames := []string{"ctxflow", "determinism", "stageerr", "locks", "spanend", "lockorder", "goroleak", "walack", "purity", "maporder", "keycover", "closecheck", "ctxleak", "sendblock"}
	if len(entries) != len(wantNames) {
		t.Fatalf("inventory has %d analyzers, want %d:\n%s", len(entries), len(wantNames), stdout.String())
	}
	wantFixes := map[string]bool{"ctxflow": true, "spanend": true, "maporder": true, "keycover": true, "closecheck": true, "ctxleak": true}
	for i, e := range entries {
		if e.Name != wantNames[i] {
			t.Errorf("entry %d = %q, want %q", i, e.Name, wantNames[i])
		}
		if e.Doc == "" {
			t.Errorf("%s: empty doc", e.Name)
		}
		if e.Scope == nil {
			t.Errorf("%s: scope must be [] not null", e.Name)
		}
		if e.Fixes != wantFixes[e.Name] {
			t.Errorf("%s: fixes = %v, want %v", e.Name, e.Fixes, wantFixes[e.Name])
		}
	}
}

// leakyResultsd has exactly two findings, both in the resource-leak
// tier with mechanical fixes: a cancel func not called on the error
// path (ctxleak defers it after the acquisition) and a ticker never
// stopped (closecheck defers the Stop).
const leakyResultsd = `// Package resultsd is a fixture.
package resultsd

import (
	"context"
	"time"
)

func attempt(ctx context.Context, fail bool) error {
	cctx, cancel := context.WithCancel(ctx)
	if fail {
		return context.Canceled
	}
	cancel()
	return cctx.Err()
}

func tick(d time.Duration, done chan struct{}) {
	t := time.NewTicker(d)
	for {
		select {
		case <-done:
			return
		case <-t.C:
		}
	}
}
`

// TestCLIFixLeakTierIdempotent pins the closecheck and ctxleak
// repairs end to end: -fix defers the cancel and the Stop, the fixed
// tree is clean, and a second -fix is a no-op.
func TestCLIFixLeakTierIdempotent(t *testing.T) {
	files := map[string]string{
		"go.mod":                        "module tmplint\n\ngo 1.22\n",
		"internal/resultsd/resultsd.go": leakyResultsd,
	}
	dir := writeModule(t, files)
	src := filepath.Join(dir, "internal", "resultsd", "resultsd.go")

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", dir, "-fix"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-fix exit code = %d, want 0\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	fixed, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"defer cancel()", "defer t.Stop()"} {
		if !strings.Contains(string(fixed), want) {
			t.Fatalf("-fix did not insert %q:\n%s", want, fixed)
		}
	}

	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-C", dir, "-fix"}, &stdout, &stderr); code != 0 {
		t.Fatalf("second -fix exit code = %d, want 0\n%s%s", code, stdout.String(), stderr.String())
	}
	again, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(fixed) {
		t.Errorf("-fix is not idempotent:\nfirst:\n%s\nsecond:\n%s", fixed, again)
	}

	if code := run([]string{"-C", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("fixed module still has findings (exit %d):\n%s", code, stdout.String())
	}
}
