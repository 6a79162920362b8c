// Command benchlint runs the project's invariant static-analysis
// suite (internal/analysis) over the module: the machine-checked
// rules the continuous-benchmarking engine's correctness rests on.
//
// Usage:
//
//	benchlint [flags] [packages]
//
//	-C dir      run in dir (the module to lint; default ".")
//	-json       emit findings as JSON
//	-run list   comma-separated analyzer subset (default: all)
//	-list       print the analyzers and exit (-json for machine form)
//	-fix        apply suggested fixes to the source tree
//	-v          also print suppressed findings in text mode
//
// Packages default to ./...; any go list pattern works. Every run
// loads and analyzes every matched package. benchlint exits 0 when
// the module is clean, 1 on unsuppressed findings, and 2 on usage or
// load errors. With -fix, findings repaired by an applied fix no
// longer count against the exit code. Suppress a single finding with
// `//benchlint:ignore <analyzer> <reason>` on (or directly above) the
// offending line — or above the statement it sits in — and mark a
// documented compatibility wrapper that may mint context.Background()
// with `//benchlint:compat` in its doc comment.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dir     = fs.String("C", ".", "module directory to lint")
		jsonOut = fs.Bool("json", false, "emit findings as JSON")
		runList = fs.String("run", "", "comma-separated analyzers to run (default all)")
		list    = fs.Bool("list", false, "list analyzers and exit")
		fix     = fs.Bool("fix", false, "apply suggested fixes to the source tree")
		verbose = fs.Bool("v", false, "print suppressed findings too")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := analysis.Suite()
	if *runList != "" {
		selected, ok := analysis.ByName(strings.Split(*runList, ","))
		if !ok {
			fmt.Fprintf(stderr, "benchlint: unknown analyzer in -run=%s (have:", *runList)
			for _, a := range analysis.Suite() {
				fmt.Fprintf(stderr, " %s", a.Name)
			}
			fmt.Fprintln(stderr, ")")
			return 2
		}
		analyzers = selected
	}
	if *list {
		return listAnalyzers(stdout, stderr, analyzers, *jsonOut)
	}

	res, err := analysis.RunModule(analysis.RunOptions{
		Dir:       *dir,
		Patterns:  fs.Args(),
		Analyzers: analyzers,
	})
	if err != nil {
		fmt.Fprintf(stderr, "benchlint: %v\n", err)
		return 2
	}
	findings := res.Findings

	// fixed[i] marks findings whose fixes -fix applied: they no longer
	// gate the exit code.
	fixed := make([]bool, len(findings))
	if *fix {
		contents, applied, err := analysis.ApplyFixes(res.Module.Root, findings)
		if err != nil {
			fmt.Fprintf(stderr, "benchlint: %v\n", err)
			return 2
		}
		for _, file := range sortedFiles(contents) {
			if err := os.WriteFile(filepath.Join(res.Module.Root, file), contents[file], 0o644); err != nil {
				fmt.Fprintf(stderr, "benchlint: %v\n", err)
				return 2
			}
			fmt.Fprintf(stderr, "benchlint: fixed %s\n", file)
		}
		fixed = applied
	}

	unsuppressed := 0
	for i, f := range findings {
		if !f.Suppressed && !fixed[i] {
			unsuppressed++
		}
	}

	if *jsonOut {
		out := struct {
			Module   string             `json:"module"`
			Packages int                `json:"packages"`
			Findings []analysis.Finding `json:"findings"`
		}{
			Module:   res.Module.Path,
			Packages: len(res.Packages),
			Findings: findings,
		}
		if out.Findings == nil {
			out.Findings = []analysis.Finding{}
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(stderr, "benchlint: %v\n", err)
			return 2
		}
	} else {
		for i, f := range findings {
			if f.Suppressed {
				if *verbose {
					fmt.Fprintf(stdout, "%s (suppressed: %s)\n", f, f.Reason)
				}
				continue
			}
			if fixed[i] {
				continue
			}
			fmt.Fprintln(stdout, f.String())
		}
		if unsuppressed > 0 {
			fmt.Fprintf(stderr, "benchlint: %d finding(s) in %d package(s)\n", unsuppressed, len(res.Packages))
		}
	}
	if unsuppressed > 0 {
		return 1
	}
	return 0
}

// listAnalyzers prints the analyzer inventory, human- or
// machine-readable. The JSON form is what the verify gate pins the
// expected analyzer set against.
func listAnalyzers(stdout, stderr io.Writer, analyzers []*analysis.Analyzer, jsonOut bool) int {
	if jsonOut {
		type entry struct {
			Name  string   `json:"name"`
			Doc   string   `json:"doc"`
			Scope []string `json:"scope"`
			Fixes bool     `json:"fixes"`
		}
		out := make([]entry, 0, len(analyzers))
		for _, a := range analyzers {
			scope := a.Scope
			if scope == nil {
				scope = []string{}
			}
			out = append(out, entry{Name: a.Name, Doc: a.Doc, Scope: scope, Fixes: a.EmitsFixes})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(stderr, "benchlint: %v\n", err)
			return 2
		}
		return 0
	}
	for _, a := range analyzers {
		scope := "all packages"
		if len(a.Scope) > 0 {
			scope = strings.Join(a.Scope, ", ")
		}
		fixes := ""
		if a.EmitsFixes {
			fixes = " (fixes)"
		}
		fmt.Fprintf(stdout, "%-12s %s [%s]%s\n", a.Name, a.Doc, scope, fixes)
	}
	return 0
}

// sortedFiles returns the changed-file keys in stable order.
func sortedFiles(m map[string][]byte) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
