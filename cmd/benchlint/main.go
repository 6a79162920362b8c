// Command benchlint runs the project's invariant static-analysis
// suite (internal/analysis) over every package of the module: the
// machine-checked rules the continuous-benchmarking engine's
// correctness rests on.
//
// Usage:
//
//	benchlint [-C dir]
//
//	-C dir      run in dir (the module to lint; default ".")
//
// benchlint prints each unsuppressed finding as
// file:line:col: analyzer: message and exits 0 when the module is
// clean, 1 on unsuppressed findings, and 2 on usage or load errors.
// Each message says what to change; the repair is made by hand.
// Suppress a single finding with
// `//benchlint:ignore <analyzer> <reason>` on (or directly above) the
// offending line — or above the statement it sits in.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("C", ".", "module directory to lint")
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

	unsuppressed := 0
	for _, f := range res.Findings {
		if !f.Suppressed {
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
