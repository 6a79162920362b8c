package analysis

import (
	"bufio"
	"fmt"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// runOnDir loads one testdata fixture package and runs a single
// analyzer over it through the production per-package path
// (computePackageFacts + runPackage), with scope filtering bypassed
// (fixtures live under testdata/, outside determinism's and
// stageerr's scopes). A fixture may import this module's packages
// ("repro/internal/..."), which the guards analyzer names by their
// module-relative paths. File names in the returned findings are
// relative to the fixture directory.
func runOnDir(t *testing.T, a *Analyzer, dir string) []Finding {
	t.Helper()
	pkg, err := LoadDir(dir)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	abs, _ := filepath.Abs(dir)
	pf := computePackageFacts(pkg, "", abs, nil)
	unscoped := *a
	unscoped.Scope = nil
	out := runPackage(pkg, []*Analyzer{&unscoped}, "repro", abs, pf, map[string]*PackageFacts{pkg.ImportPath: pf})
	SortFindings(out)
	return out
}

// wantComments scans a fixture directory for `//want <analyzer>`
// markers and returns the expected file:line → analyzer pairs.
func wantComments(t *testing.T, dir string) map[string][]string {
	t.Helper()
	wants := map[string][]string{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			text := sc.Text()
			idx := strings.Index(text, "//want ")
			if idx < 0 {
				continue
			}
			key := fmt.Sprintf("%s:%d", e.Name(), line)
			wants[key] = append(wants[key], strings.Fields(text[idx+len("//want "):])...)
		}
		f.Close()
	}
	return wants
}

// TestAnalyzerGoldens runs every analyzer over its bad+good fixture
// pair: each //want marker must produce exactly one unsuppressed
// finding on that line, and nothing else may be reported.
func TestAnalyzerGoldens(t *testing.T) {
	for _, a := range Suite() {
		t.Run(a.Name, func(t *testing.T) {
			dir := filepath.Join("testdata", a.Name)
			findings := runOnDir(t, a, dir)
			wants := wantComments(t, dir)

			got := map[string][]string{}
			for _, f := range findings {
				if f.Suppressed {
					continue
				}
				if f.Col <= 0 {
					t.Errorf("finding without a column: %s", f)
				}
				key := fmt.Sprintf("%s:%d", f.File, f.Line)
				got[key] = append(got[key], f.Analyzer)
			}
			for key, analyzers := range wants {
				g := got[key]
				if len(g) != len(analyzers) {
					t.Errorf("%s: want %d %s finding(s), got %v", key, len(analyzers), a.Name, g)
				}
				delete(got, key)
			}
			for key, analyzers := range got {
				t.Errorf("unexpected finding(s) at %s: %v", key, analyzers)
			}
		})
	}
}

// TestSuppressionDirective pins the ignore-directive contract: the
// ctxflow fixture's good.go silences one Background call on the line
// below its directive and one on an inner line of a multi-line
// composite literal (the statement-anchored case); both findings are
// kept, marked suppressed at their own lines, with their reasons.
func TestSuppressionDirective(t *testing.T) {
	findings := runOnDir(t, CtxFlow, filepath.Join("testdata", "ctxflow"))
	var got []string
	for _, f := range findings {
		if f.Suppressed {
			got = append(got, fmt.Sprintf("%s:%d: %s", f.File, f.Line, f.Reason))
		}
	}
	want := []string{
		"good.go:7: fixture exercises the suppression directive",
		"good.go:21: fixture anchors the directive to the statement",
	}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("suppressed findings = %q, want %q", got, want)
	}
}

// TestExactPositions pins full file:line:col positions for the
// ctxflow and locks bad fixtures, so position regressions (not just
// line drift) are caught.
func TestExactPositions(t *testing.T) {
	cases := []struct {
		a    *Analyzer
		want []string
	}{
		{CtxFlow, []string{
			"bad.go:8:9: ctxflow",
			"bad.go:14:9: ctxflow",
			"bad.go:19:29: ctxflow",
			"bad.go:24:28: ctxflow",
			"bad.go:35:9: ctxflow",
		}},
		{Locks, []string{
			"bad.go:17:2: locks",
			"bad.go:27:2: locks",
			"bad.go:39:2: locks",
			"bad.go:51:2: locks",
			"bad.go:64:2: locks",
		}},
	}
	for _, c := range cases {
		t.Run(c.a.Name, func(t *testing.T) {
			var got []string
			for _, f := range runOnDir(t, c.a, filepath.Join("testdata", c.a.Name)) {
				if !f.Suppressed && f.File == "bad.go" {
					got = append(got, fmt.Sprintf("%s:%d:%d: %s", f.File, f.Line, f.Col, f.Analyzer))
				}
			}
			if strings.Join(got, "\n") != strings.Join(c.want, "\n") {
				t.Errorf("positions:\n got %v\nwant %v", got, c.want)
			}
		})
	}
}

// TestRunModuleLoadsWholeModule exercises the loader end to end over
// the real module through RunModule, the only way production loads
// one: every package parses and type-checks (any failure is
// RunModule's error).
func TestRunModuleLoadsWholeModule(t *testing.T) {
	res, err := RunModule("../..", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Module.Path != "repro" {
		t.Fatalf("module path = %q, want repro", res.Module.Path)
	}
	if len(res.Packages) < 20 {
		t.Fatalf("loaded %d packages, expected the full module", len(res.Packages))
	}
}

// TestEveryScopeIsNeeded holds each Scope to the reason it exists:
// run over the whole module without its list, a scoped analyzer must
// report a finding in some package outside the list. One that would
// stay silent there loses its list and checks every package, like the
// rest of the suite.
func TestEveryScopeIsNeeded(t *testing.T) {
	var unscoped []*Analyzer
	scopes := map[string][]string{}
	for _, a := range Suite() {
		if len(a.Scope) > 0 {
			u := *a
			u.Scope = nil
			unscoped = append(unscoped, &u)
			scopes[a.Name] = a.Scope
		}
	}
	res, err := RunModule("../..", unscoped)
	if err != nil {
		t.Fatal(err)
	}
	outside := map[string]int{}
	for _, f := range res.Findings {
		if !f.Suppressed && !slices.Contains(scopes[f.Analyzer], path.Dir(f.File)) {
			outside[f.Analyzer]++
		}
	}
	for name, scope := range scopes {
		if outside[name] == 0 {
			t.Errorf("%s reports nothing outside its scope %v: delete the scope", name, scope)
		}
	}
}

// TestMalformedDirective checks that a broken or unknown directive
// surfaces as a finding instead of silently disabling a check.
func TestMalformedDirective(t *testing.T) {
	// The retired compat directive fails here, and so anywhere in the
	// module: it is not a directive the parser knows.
	for _, c := range []struct{ directive, want string }{
		{"//benchlint:ignore ctxflow", "needs an analyzer name and a reason"},
		{"//benchlint:compat", "unknown //benchlint:compat directive"},
	} {
		dir := t.TempDir()
		src := "package fixture\n\n" + c.directive + "\nfunc f() {}\n"
		if err := os.WriteFile(filepath.Join(dir, "m.go"), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		pkg, err := LoadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		findings := runPackage(pkg, nil, "fixture", dir, nil, nil)
		if len(findings) != 1 || findings[0].Analyzer != "directive" || !strings.Contains(findings[0].Message, c.want) {
			t.Fatalf("%s: want one directive finding %q, got %v", c.directive, c.want, findings)
		}
		if findings[0].Line != 3 {
			t.Errorf("%s: directive finding on line %d, want 3", c.directive, findings[0].Line)
		}
	}
}
