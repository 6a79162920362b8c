package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
)

func TestRunListCommands(t *testing.T) {
	for _, args := range [][]string{
		{"suites"},
		{"systems"},
		{"components"},
		{"help"},
		{},
	} {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

func TestRunSpecCmd(t *testing.T) {
	if err := run([]string{"spec", "cts1", "saxpy+openmp"}); err != nil {
		t.Errorf("spec: %v", err)
	}
	if err := run([]string{"spec", "nosuchsystem", "saxpy"}); err == nil {
		t.Error("unknown system should fail")
	}
	if err := run([]string{"spec", "cts1"}); err == nil {
		t.Error("missing spec should fail")
	}
	if err := run([]string{"spec", "cts1", "@@@"}); err == nil {
		t.Error("bad spec should fail")
	}
}

func TestRunFindCmd(t *testing.T) {
	if err := run([]string{"find", "cts1"}); err != nil {
		t.Errorf("find: %v", err)
	}
	if err := run([]string{"find", "cts1", "cmake"}); err != nil {
		t.Errorf("find with constraint: %v", err)
	}
	if err := run([]string{"find"}); err == nil {
		t.Error("missing system should fail")
	}
}

func TestRunSuiteEndToEnd(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"saxpy/openmp", "cts1", dir}); err != nil {
		t.Fatalf("suite run: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "logs", "results.json")); err != nil {
		t.Errorf("results artifact missing: %v", err)
	}
}

func TestRunBadArgs(t *testing.T) {
	if err := run([]string{"only-one-arg-that-is-not-a-command", "x"}); err == nil {
		t.Error("wrong arity should fail")
	}
	if err := run([]string{"nope/nope", "cts1", t.TempDir()}); err == nil {
		t.Error("unknown suite should fail")
	}
	if err := run([]string{"figure14", "not-a-number"}); err == nil {
		t.Error("bad scale should fail")
	}
}

func TestRunArchiveCmd(t *testing.T) {
	out := filepath.Join(t.TempDir(), "ws.tar.gz")
	if err := run([]string{"archive", "saxpy/openmp", "cts1", out}); err != nil {
		t.Fatalf("archive: %v", err)
	}
	fi, err := os.Stat(out)
	if err != nil || fi.Size() == 0 {
		t.Errorf("archive file: %v", err)
	}
	if err := run([]string{"archive", "saxpy/openmp"}); err == nil {
		t.Error("wrong arity should fail")
	}
}

func TestRunFigure14WithSVG(t *testing.T) {
	svg := filepath.Join(t.TempDir(), "fig14.svg")
	if err := run([]string{"figure14", "36", "72", "144", "-svg", svg}); err != nil {
		t.Fatalf("figure14: %v", err)
	}
	data, err := os.ReadFile(svg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "<svg") || !strings.Contains(string(data), "circle") {
		t.Error("svg content wrong")
	}
	if err := run([]string{"figure14", "-svg"}); err == nil {
		t.Error("-svg without path should fail")
	}
}

func TestRunCIDemo(t *testing.T) {
	if err := run([]string{"ci-demo"}); err != nil {
		t.Fatalf("ci-demo: %v", err)
	}
}

func TestRunDashboardCmd(t *testing.T) {
	html := filepath.Join(t.TempDir(), "dash.html")
	if err := run([]string{"dashboard", html}); err != nil {
		t.Fatalf("dashboard: %v", err)
	}
	data, err := os.ReadFile(html)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"<table>", "saxpy", "stream"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("html missing %q", want)
		}
	}
}

// provisions numbers this test binary's cluster registrations, so every
// run of a test under -count=N provisions a cluster of its own name in
// the process-wide system registry.
var provisions atomic.Int64

// perRun returns base suffixed with a name no earlier run has taken.
func perRun(base string) string {
	return fmt.Sprintf("%s-%d", base, provisions.Add(1))
}

func TestRunProvisionCmd(t *testing.T) {
	name := perRun("cli-test-burst")
	if err := run([]string{"provision", name, "c5n.18xlarge", "8"}); err != nil {
		t.Fatalf("provision: %v", err)
	}
	if err := run([]string{"provision", name, "c5n.18xlarge", "8"}); err == nil {
		t.Error("duplicate name should fail")
	}
	if err := run([]string{"provision", "x", "bad-type", "8"}); err == nil {
		t.Error("bad type should fail")
	}
	if err := run([]string{"provision", "y", "c5n.18xlarge", "NaN"}); err == nil {
		t.Error("bad count should fail")
	}
}

func TestRunReportCmd(t *testing.T) {
	if testing.Short() {
		t.Skip("report reruns the reproduction experiments")
	}
	out := filepath.Join(t.TempDir(), "report.md")
	if err := run([]string{"report", out}); err != nil {
		t.Fatalf("report: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "Figure 14") || !strings.Contains(string(data), "MATCH") {
		t.Error("report content wrong")
	}
}

// TestRunPrintsEveryFOM: a suite run prints each experiment's FOMs,
// whatever its benchmark names them.
func TestRunPrintsEveryFOM(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return run([]string{"lulesh/hydro", "cts1", t.TempDir()})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fom_zs=", "grind_time="} {
		if !strings.Contains(out, want) {
			t.Errorf("run output lacks %q:\n%s", want, out)
		}
	}
}

func TestRunSuiteFailurePath(t *testing.T) {
	// saxpy/cuda on a CPU system fails at setup, through the CLI.
	if err := run([]string{"saxpy/cuda", "cts1", t.TempDir()}); err == nil {
		t.Error("incompatible suite should fail")
	}
}

// parseGlobal parses args the way run does before dispatch, with the
// global flags allowed anywhere.
func parseGlobal(args []string) (execOpts, []string, error) {
	var opts execOpts
	rest, err := parseAnywhere(opts.flagSet("benchpark"), args)
	return opts, rest, err
}

func TestGlobalFlagsParsing(t *testing.T) {
	opts, rest, err := parseGlobal([]string{"--jobs", "4", "suites", "--timeout", "30s"})
	if err != nil {
		t.Fatal(err)
	}
	if opts.jobs != 4 || opts.timeout.Seconds() != 30 {
		t.Errorf("opts = %+v", opts)
	}
	if len(rest) != 1 || rest[0] != "suites" {
		t.Errorf("rest = %v", rest)
	}
	for _, bad := range [][]string{
		{"--jobs"},             // missing value
		{"--jobs", "x"},        // not a number
		{"--jobs", "0"},        // not positive
		{"--timeout"},          // missing value
		{"--timeout", "bogus"}, // not a duration
		{"--timeout", "-5s"},   // not positive
	} {
		if _, _, err := parseGlobal(bad); err == nil {
			t.Errorf("parseGlobal(%v) should fail", bad)
		}
	}
}

// TestRunSuiteWithJobsFlag runs a suite through the CLI with a bounded
// worker pool and an ample deadline — the flags flow into the engine.
func TestRunSuiteWithJobsFlag(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"--jobs", "2", "--timeout", "10m", "saxpy/openmp", "cts1", dir}); err != nil {
		t.Fatalf("suite run with flags: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "logs", "results.json")); err != nil {
		t.Errorf("results artifact missing: %v", err)
	}
}

// TestRunSuiteWithTraceOut runs a suite with every trace format and
// checks the export lands on disk in the right shape.
func TestRunSuiteWithTraceOut(t *testing.T) {
	out := t.TempDir()

	trace := filepath.Join(out, "trace.json")
	if err := run([]string{"run", "--trace-out=" + trace, "saxpy/openmp", "cts1", filepath.Join(out, "ws1")}); err != nil {
		t.Fatalf("traced run: %v", err)
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"format": "benchpark-trace-1"`, `"session"`, `"engine.run"`, "engine_stage_seconds"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("trace missing %q", want)
		}
	}

	cali := filepath.Join(out, "trace.cali")
	if err := run([]string{"--trace-out", cali, "saxpy/openmp", "cts1", filepath.Join(out, "ws2")}); err != nil {
		t.Fatalf("cali run: %v", err)
	}
	if data, err = os.ReadFile(cali); err != nil || !strings.Contains(string(data), "regions") {
		t.Errorf("caliper profile: %v %.60s", err, data)
	}

	prom := filepath.Join(out, "metrics.prom")
	if err := run([]string{"--trace-out", prom, "saxpy/openmp", "cts1", filepath.Join(out, "ws3")}); err != nil {
		t.Fatalf("prom run: %v", err)
	}
	if data, err = os.ReadFile(prom); err != nil || !strings.Contains(string(data), "# TYPE") {
		t.Errorf("prometheus exposition: %v %.60s", err, data)
	}
}

// TestTraceOutPrintsEachCacheLayerOnce: a traced run over a cache
// directory names every cache layer once, in its "==> cache[layer]"
// line; the stage timings do not repeat them.
func TestTraceOutPrintsEachCacheLayerOnce(t *testing.T) {
	dir := t.TempDir()
	out, err := captureStdout(t, func() error {
		return run([]string{"--cache-dir", filepath.Join(dir, "cache"), "--trace-out", filepath.Join(dir, "t.json"),
			"saxpy/openmp", "cts1", filepath.Join(dir, "ws")})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, layer := range []string{"concretize", "buildcache", "run"} {
		if n := len(regexp.MustCompile(`\b`+layer+`\b`).FindAllString(out, -1)); n != 1 {
			t.Errorf("stdout names the %s layer %d times, want once:\n%s", layer, n, out)
		}
	}
}

func TestLogLevelFlagValidation(t *testing.T) {
	if _, _, err := parseGlobal([]string{"--log-level", "loud"}); err == nil {
		t.Error("bad log level should fail at parse time")
	}
	opts, rest, err := parseGlobal([]string{"--log-level=debug", "--trace-out=t.json", "suites"})
	if err != nil {
		t.Fatal(err)
	}
	if opts.logLevel != "debug" || opts.traceOut != "t.json" {
		t.Errorf("opts = %+v", opts)
	}
	if len(rest) != 1 || rest[0] != "suites" {
		t.Errorf("rest = %v", rest)
	}
}

func TestRunSuiteTimeoutCancels(t *testing.T) {
	// A 1ns deadline expires before the engine's first stage; the run
	// must fail with a cancellation error instead of hanging.
	err := run([]string{"--timeout", "1ns", "saxpy/openmp", "cts1", t.TempDir()})
	if err == nil {
		t.Fatal("expired deadline should fail the run")
	}
	if !strings.Contains(err.Error(), "deadline") {
		t.Errorf("error = %v, want a deadline error", err)
	}
}

// TestSubcommandsHonourTimeout: every subcommand that runs a session
// runs it under the global deadline, so an expired one fails it.
func TestSubcommandsHonourTimeout(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{"archive", "saxpy/openmp", "cts1", filepath.Join(dir, "out.tgz")},
		{"dashboard"},
		{"provision", perRun("timeout-burst"), "c5n.18xlarge", "2", "saxpy/openmp"},
		{"report", filepath.Join(dir, "report.md")},
	} {
		t.Run(args[0], func(t *testing.T) {
			err := run(append([]string{"--timeout", "1ns"}, args...))
			if err == nil || !strings.Contains(err.Error(), "deadline") {
				t.Errorf("err = %v, want a deadline error", err)
			}
		})
	}
}
