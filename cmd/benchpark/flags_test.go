package main

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/metricsdb"
	"repro/internal/resultsd"
)

// captureStdout runs f with os.Stdout redirected into a pipe and
// returns what f printed.
func captureStdout(t *testing.T, f func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	ferr := f()
	w.Close()
	os.Stdout = old
	return <-out, ferr
}

// TestFlagSurface pins the command line every site runs the same way:
// the -x, --x and --x=v spellings, global flags on either side of the
// subcommand, flags after positional arguments, and every value the
// CLI refuses.
func TestFlagSurface(t *testing.T) {
	_, ts := startTestResultsd(t)
	if _, err := resultsd.NewClient(ts.URL).Push(context.Background(), "seed", []metricsdb.Result{{
		Benchmark: "saxpy", System: "cts1", Experiment: "e1",
		FOMs: map[string]float64{"saxpy_time": 1},
	}}); err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	ws := func(name string) string { return filepath.Join(tmp, name) }
	// badAddr makes a serve that parsed its flags fail at listen, before
	// it could serve, so a refusal is told apart by its message.
	badAddr := []string{"--addr", "127.0.0.1:99999", "--data", ws("serve-data")}
	serve := func(args ...string) []string { return append(append([]string{"serve"}, badAddr...), args...) }

	for _, tc := range []struct {
		args    []string
		fail    bool   // run must return an error
		errHas  string // ... that contains this
		outHas  string // stdout must contain this
		fileHas string // this file must exist afterwards
	}{
		// The three spellings, before the subcommand.
		{args: []string{"-jobs", "3", "saxpy/openmp", "cts1", ws("a")}, outHas: "(3 workers)"},
		{args: []string{"--jobs=2", "run", "saxpy/openmp", "cts1", ws("b")}, outHas: "(2 workers)"},
		{args: []string{"--jobs", "6", "-j", "5", "saxpy/openmp", "cts1", ws("c")}, outHas: "(5 workers)"},
		// Global flags after the subcommand, among and after positionals.
		{args: []string{"run", "saxpy/openmp", "--jobs", "4", "cts1", ws("d")}, outHas: "(4 workers)"},
		{args: []string{"saxpy/openmp", "cts1", ws("e"), "-j", "7"}, outHas: "(7 workers)"},
		{args: []string{"run", "--trace-out=" + ws("t.json"), "saxpy/openmp", "cts1", ws("f")}, fileHas: ws("t.json")},
		{args: []string{"suites", "--timeout=5s", "-cache-dir", ws("cache")}, outHas: "saxpy/openmp"},
		{args: []string{"--log-level=warn", "components"}, outHas: "Benchmark"},
		// Subcommand flags after positional arguments.
		{args: []string{"figure14", "36", "72", "144", "-svg", ws("f14.svg")}, fileHas: ws("f14.svg")},
		{args: []string{"report", ws("r.md"), "-full", "--timeout", "1ns"}, fail: true, errHas: "deadline", fileHas: ws("r.md")},
		{args: []string{"loadtest", ts.URL, "--runners", "4", "--batches", "1", "--results", "1"},
			outHas: "4 runners x 1 batches x 1 results"},
		{args: []string{"history", ts.URL, "saxpy", "saxpy_time", "--system", "cts1"}, outHas: "1 samples"},
		{args: []string{"history", ts.URL, "saxpy", "saxpy_time", "--system=ats2", "--timeout", "1m"}, outHas: "no results"},
		// In spec syntax a leading '-' is a disabled variant, not a flag.
		{args: []string{"spec", "cts1", "amg2023", "-caliper"}, outHas: "amg2023~caliper"},

		// Refused global values, on either side of the subcommand.
		{args: []string{"--jobs"}, fail: true},
		{args: []string{"--jobs", "x"}, fail: true},
		{args: []string{"--jobs", "0"}, fail: true},
		{args: []string{"suites", "--jobs", "0"}, fail: true},
		{args: []string{"suites", "-j"}, fail: true},
		{args: []string{"--timeout"}, fail: true},
		{args: []string{"--timeout", "bogus"}, fail: true},
		{args: []string{"--timeout", "-5s"}, fail: true},
		{args: []string{"suites", "--timeout=0s"}, fail: true},
		{args: []string{"--log-level", "loud"}, fail: true},
		{args: []string{"suites", "--log-level=loud"}, fail: true},
		{args: []string{"suites", "--no-cache"}, fail: true, errHas: "-no-cache"},
		// Refused subcommand arguments.
		{args: []string{"figure14", "-svg"}, fail: true},
		{args: []string{"figure14", "not-a-number"}, fail: true},
		{args: []string{"history", "http://x", "saxpy"}, fail: true},
		{args: []string{"history", "http://x", "saxpy", "t", "--window"}, fail: true, errHas: "window"},
		{args: []string{"history", "http://x", "saxpy", "t", "--window", "1"}, fail: true, errHas: "window"},
		{args: []string{"history", "http://x", "saxpy", "t", "--threshold", "0"}, fail: true, errHas: "threshold"},
		{args: []string{"history", "http://x", "saxpy", "t", "--bogus", "v"}, fail: true, errHas: "bogus"},
		{args: []string{"history", "http://127.0.0.1:1", "saxpy", "t"}, fail: true},
		{args: []string{"loadtest"}, fail: true},
		{args: []string{"loadtest", ts.URL, "--runners", "0"}, fail: true, errHas: "runners"},
		{args: []string{"loadtest", ts.URL, "--batches", "x"}, fail: true, errHas: "batches"},
		{args: []string{"loadtest", ts.URL, "--out", ws("lt.json")}, fail: true, errHas: "-out"},
		{args: []string{"loadtest", "http://127.0.0.1:1", "--runners", "1", "--batches", "1", "--results", "1"},
			fail: true, errHas: "1 of 1 batches were not acknowledged", outHas: "1 errors"},
		{args: []string{"serve", "--addr"}, fail: true},
		{args: []string{"serve", "--data"}, fail: true},
		{args: []string{"serve", "unexpected-arg"}, fail: true, errHas: "unexpected-arg"},
		{args: serve("--metrics"), fail: true, errHas: "-metrics"},
		{args: serve("--shards", "0"), fail: true, errHas: "shards"},
		{args: serve("--shard-queue", "0"), fail: true, errHas: "shard-queue"},
		{args: serve("--shard-slow", "1ms"), fail: true, errHas: "-shard-slow"},
		{args: serve("--selfmonitor", "0s"), fail: true, errHas: "selfmonitor"},
		{args: serve("--sync-interval", "bogus"), fail: true, errHas: "sync-interval"},
		{args: serve("--replica-of", ts.URL, "--shards", "2"), fail: true, errHas: "mutually exclusive"},
	} {
		out, err := captureStdout(t, func() error { return run(tc.args) })
		switch {
		case tc.fail && err == nil:
			t.Errorf("run(%q) succeeded, want an error", tc.args)
		case !tc.fail && err != nil:
			t.Errorf("run(%q): %v", tc.args, err)
		case err != nil && !strings.Contains(err.Error(), tc.errHas):
			t.Errorf("run(%q) = %v, want an error naming %q", tc.args, err, tc.errHas)
		}
		if !strings.Contains(out, tc.outHas) {
			t.Errorf("run(%q) printed %q, want %q in it", tc.args, out, tc.outHas)
		}
		if tc.fileHas != "" {
			if _, err := os.Stat(tc.fileHas); err != nil {
				t.Errorf("run(%q): %v", tc.args, err)
			}
		}
	}
}

// TestSuitesListing pins `benchpark suites`: every embedded suite, one
// a line, sorted by name.
func TestSuitesListing(t *testing.T) {
	const want = `amg2023/cube
amg2023/cuda
amg2023/openmp
amg2023/rocm
hpcg/hpcg
lulesh/hydro
osu/allreduce
osu/bcast
saxpy/cuda
saxpy/openmp
saxpy/rocm
stream/triad
`
	out, err := captureStdout(t, func() error { return run([]string{"suites"}) })
	if err != nil {
		t.Fatal(err)
	}
	if out != want {
		t.Errorf("benchpark suites printed:\n%s\nwant:\n%s", out, want)
	}
}
