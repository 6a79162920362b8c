// Command benchlint runs the project's invariant static-analysis
// suite (internal/analysis) over every package of the module: the
// machine-checked rules the continuous-benchmarking engine's
// correctness rests on.
//
// Usage:
//
//	benchlint [-C dir] [-fix]
//
//	-C dir      run in dir (the module to lint; default ".")
//	-fix        apply suggested fixes to the source tree
//
// benchlint prints each unsuppressed finding as
// file:line:col: analyzer: message and exits 0 when the module is
// clean, 1 on unsuppressed findings, and 2 on usage or load errors.
// With -fix, findings repaired by an applied fix no longer count
// against the exit code. Suppress a single finding with
// `//benchlint:ignore <analyzer> <reason>` on (or directly above) the
// offending line — or above the statement it sits in.
package main

import (
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("C", ".", "module directory to lint")
	fix := fs.Bool("fix", false, "apply suggested fixes to the source tree")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchlint: unexpected argument %q: every package of the module is analyzed\n", fs.Arg(0))
		return 2
	}

	res, err := analysis.RunModule(*dir, analysis.Suite())
	if err != nil {
		fmt.Fprintf(stderr, "benchlint: %v\n", err)
		return 2
	}

	// fixed[i] marks findings whose fixes -fix applied: they no longer
	// gate the exit code.
	fixed := make([]bool, len(res.Findings))
	if *fix {
		contents, applied, err := analysis.ApplyFixes(res.Module.Root, res.Findings)
		if err != nil {
			fmt.Fprintf(stderr, "benchlint: %v\n", err)
			return 2
		}
		for _, file := range slices.Sorted(maps.Keys(contents)) {
			if err := os.WriteFile(filepath.Join(res.Module.Root, file), contents[file], 0o644); err != nil {
				fmt.Fprintf(stderr, "benchlint: %v\n", err)
				return 2
			}
			fmt.Fprintf(stderr, "benchlint: fixed %s\n", file)
		}
		fixed = applied
	}

	unsuppressed := 0
	for i, f := range res.Findings {
		if !f.Suppressed && !fixed[i] {
			fmt.Fprintln(stdout, f)
			unsuppressed++
		}
	}
	if unsuppressed > 0 {
		fmt.Fprintf(stderr, "benchlint: %d finding(s) in %d package(s)\n", unsuppressed, len(res.Packages))
		return 1
	}
	return 0
}
