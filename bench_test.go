// Benchmark harness regenerating every table and figure of the paper
// (see DESIGN.md section 4 for the experiment index):
//
//	BenchmarkTable1_Components   Table 1   component matrix
//	BenchmarkFig1_Workflow       Fig 1c    nine-step run workflow (saxpy on cts1)
//	BenchmarkFig2_SpackEnv       Fig 2     spack env create/add/concretize/install
//	BenchmarkFig5_RambleWorkflow Fig 5     ramble workspace lifecycle
//	BenchmarkFig6_Automation     Fig 6     PR → Hubcast → GitLab CI → metrics
//	BenchmarkFig10_SaxpyMatrix   Fig 10    the 8-experiment saxpy matrix
//	BenchmarkFig14_ExtraP        Fig 14    Extra-P model of MPI_Bcast on CTS
//	BenchmarkSec4_Matrix         Sec 4     2 benchmarks × 3 systems
//	BenchmarkAblation_*          DESIGN.md design-choice ablations
//
// Run with: go test -bench=. -benchmem
package repro

import (
	"context"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/buildcache"
	"repro/internal/concretizer"
	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/hpcsim"
	"repro/internal/install"
	"repro/internal/pkgrepo"
	"repro/internal/ramble"
	"repro/internal/scheduler"
	"repro/internal/spec"
)

// onceEach lets every benchmark print its reproduction rows exactly
// once regardless of b.N.
var onceEach sync.Map

func printOnce(name, text string) {
	if _, loaded := onceEach.LoadOrStore(name, true); !loaded {
		fmt.Printf("\n===== %s =====\n%s\n", name, text)
	}
}

// BenchmarkTable1_Components regenerates Table 1.
func BenchmarkTable1_Components(b *testing.B) {
	var tbl string
	for i := 0; i < b.N; i++ {
		tbl = core.ComponentTable()
	}
	if !strings.Contains(tbl, "CI testing") {
		b.Fatal("table incomplete")
	}
	printOnce("Table 1: Components of Benchpark", tbl)
}

// BenchmarkFig1_Workflow runs the complete Figure 1c workflow:
// workspace generation, software install, batch execution, analysis.
func BenchmarkFig1_Workflow(b *testing.B) {
	var summary string
	for i := 0; i < b.N; i++ {
		bp := core.New()
		dir := b.TempDir()
		sess, err := bp.Setup("saxpy/openmp", "cts1", dir)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := sess.RunAll()
		if err != nil {
			b.Fatal(err)
		}
		if rep.Failed != 0 || rep.Total != 8 {
			b.Fatalf("workflow: %d/%d failed", rep.Failed, rep.Total)
		}
		summary = fmt.Sprintf("9-step workflow: %d experiments succeeded; %d packages installed; batch makespan %.1fs (simulated)",
			rep.Succeeded, sess.Installer.DB.Len(), sess.Scheduler.Makespan())
	}
	printOnce("Figure 1c: run workflow (saxpy on cts1)", summary)
}

// BenchmarkFig2_SpackEnv runs the Figure 2 environment workflow for
// amg2023+caliper.
func BenchmarkFig2_SpackEnv(b *testing.B) {
	cts, err := hpcsim.Get("cts1")
	if err != nil {
		b.Fatal(err)
	}
	var rows strings.Builder
	for i := 0; i < b.N; i++ {
		cfg, err := core.ConcretizerConfig(cts)
		if err != nil {
			b.Fatal(err)
		}
		e := env.New("figure2") // spack env create --dir . ; activate
		if err := e.Add("amg2023+caliper"); err != nil {
			b.Fatal(err) // spack add amg2023+caliper
		}
		c := concretizer.New(pkgrepo.Builtin(), cfg)
		if err := e.Concretize(c); err != nil {
			b.Fatal(err) // spack --config-scope ... concretize
		}
		inst := install.New(pkgrepo.Builtin())
		rep, err := e.Install(inst) // spack install
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Fprintf(&rows, "$ spack env create --dir . && spack env activate --dir .\n")
			fmt.Fprintf(&rows, "$ spack add amg2023+caliper\n$ spack concretize\n")
			lf, _ := e.Lock()
			fmt.Fprintf(&rows, "  concretized %d packages: %s\n", len(lf.Nodes),
				strings.Join(lf.PackageNames(), ", "))
			fmt.Fprintf(&rows, "$ spack install\n  built=%d external=%d makespan=%.0fs (simulated)\n",
				rep.Count(install.Built), rep.Count(install.UsedExternal), rep.Makespan)
		}
	}
	printOnce("Figure 2: Spack environment workflow", rows.String())
}

// BenchmarkFig5_RambleWorkflow exercises the five Ramble commands on
// the paper's Figure 10 configuration.
func BenchmarkFig5_RambleWorkflow(b *testing.B) {
	var summary string
	for i := 0; i < b.N; i++ {
		bp := core.New()
		sess, err := bp.Setup("saxpy/openmp", "cts1", b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		// create+edit happened in Setup; now setup/on/analyze:
		if err := sess.Workspace.Setup(nil); err != nil {
			b.Fatal(err)
		}
		if err := sess.Workspace.On(func(e *ramble.Experiment) (string, float64, error) {
			return "Kernel done\nsaxpy_time: 0.001 s\n", 0.001, nil
		}); err != nil {
			b.Fatal(err)
		}
		rep, err := sess.Workspace.Analyze()
		if err != nil {
			b.Fatal(err)
		}
		summary = fmt.Sprintf("ramble workspace create/edit/setup + ramble on + analyze: %d experiments, %d FOM sets extracted",
			rep.Total, rep.Succeeded)
	}
	printOnce("Figure 5: Ramble workflow", summary)
}

// BenchmarkFig6_Automation drives the automation loop with real
// benchmark payloads in the CI jobs.
func BenchmarkFig6_Automation(b *testing.B) {
	var rows strings.Builder
	for i := 0; i < b.N; i++ {
		bp := core.New()
		auto, err := core.NewAutomation(bp, b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		res, err := auto.SubmitContributionContext(context.Background(), "jens", "bench contribution",
			map[string]string{"docs/n.md": "x"}, "olga")
		if err != nil {
			b.Fatal(err)
		}
		if res.PR.State != "merged" {
			b.Fatalf("PR state %v", res.PR.State)
		}
		if i == 0 {
			fmt.Fprintf(&rows, "PR #%d by jens → approval by olga → Hubcast mirror → GitLab CI\n", res.PR.ID)
			for _, j := range res.Pipeline.Jobs {
				fmt.Fprintf(&rows, "  job %-12s %-8s jacamar-ran-as=%s\n", j.Name, j.Status, j.RunAs)
			}
			fmt.Fprintf(&rows, "→ %d results in metrics DB → status streamed back → merged\n", len(res.Results))
		}
	}
	printOnce("Figure 6: Benchpark automation workflow", rows.String())
}

// BenchmarkFig10_SaxpyMatrix regenerates the 8 experiments of the
// Figure 10 matrix and reports their figures of merit.
func BenchmarkFig10_SaxpyMatrix(b *testing.B) {
	var rows strings.Builder
	for i := 0; i < b.N; i++ {
		bp := core.New()
		sess, err := bp.Setup("saxpy/openmp", "cts1", b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		rep, err := sess.RunAll()
		if err != nil {
			b.Fatal(err)
		}
		if rep.Total != 8 || rep.Failed != 0 {
			b.Fatalf("matrix: %d/%d", rep.Failed, rep.Total)
		}
		if i == 0 {
			fmt.Fprintf(&rows, "%-34s %-10s %s\n", "experiment", "status", "saxpy_time(s)")
			for _, e := range rep.Experiments {
				fmt.Fprintf(&rows, "%-34s %-10s %s\n", e.Name, e.Status, e.FOMs["saxpy_time"])
			}
		}
	}
	printOnce("Figure 10: saxpy experiment matrix (2 zip × 4 matrix = 8)", rows.String())
}

// fig14Scales picks the sweep: the paper's full range with
// BENCHPARK_FULL_FIG14=1, a reduced one otherwise (the 3456-rank
// simulation is real message passing and takes tens of seconds).
func fig14Scales() []int {
	if os.Getenv("BENCHPARK_FULL_FIG14") != "" {
		return []int{64, 128, 256, 512, 1024, 2048, 3456}
	}
	return []int{64, 128, 256, 512, 1024}
}

// BenchmarkFig14_ExtraP reproduces Figure 14: measurements of
// MPI_Bcast total time on the CTS architecture and the Extra-P model.
func BenchmarkFig14_ExtraP(b *testing.B) {
	var rows strings.Builder
	for i := 0; i < b.N; i++ {
		study, err := core.Figure14Study(fig14Scales())
		if err != nil {
			b.Fatal(err)
		}
		res, err := study.Run(core.New())
		if err != nil {
			b.Fatal(err)
		}
		if res.Model.I != 1 || res.Model.J != 0 {
			b.Fatalf("model %s is not linear in p", res.Model)
		}
		b.ReportMetric(res.Model.C1, "slope_s/proc")
		if i == 0 {
			fmt.Fprintf(&rows, "paper:    -0.6355857931034596 + 0.04660217702356169 * p^(1)\n")
			fmt.Fprintf(&rows, "measured: %s\n\n", res.Model)
			fmt.Fprintf(&rows, "%10s %16s %16s\n", "nprocs", "measured(s)", "model(s)")
			for _, m := range res.Measurements {
				fmt.Fprintf(&rows, "%10.0f %16.3f %16.3f\n", m.P, m.Value, res.Model.Eval(m.P))
			}
			fmt.Fprintf(&rows, "\n%s", core.RenderFigure14(res))
		}
	}
	printOnce("Figure 14: Extra-P model of MPI_Bcast on CTS", rows.String())
}

// BenchmarkSec4_Matrix builds and runs both paper benchmarks on all
// three paper systems.
func BenchmarkSec4_Matrix(b *testing.B) {
	var rows strings.Builder
	suites := []struct{ suite, system string }{
		{"saxpy/openmp", "cts1"}, {"amg2023/openmp", "cts1"},
		{"saxpy/cuda", "ats2"}, {"amg2023/cuda", "ats2"},
		{"saxpy/rocm", "ats4"}, {"amg2023/rocm", "ats4"},
	}
	for i := 0; i < b.N; i++ {
		bp := core.New()
		for _, s := range suites {
			sess, err := bp.Setup(s.suite, s.system, b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			rep, err := sess.RunAll()
			if err != nil {
				b.Fatalf("%s on %s: %v", s.suite, s.system, err)
			}
			if rep.Failed > 0 {
				b.Fatalf("%s on %s: %d failed", s.suite, s.system, rep.Failed)
			}
			if i == 0 {
				fmt.Fprintf(&rows, "%-16s on %-6s: %d/%d experiments passed\n",
					s.suite, s.system, rep.Succeeded, rep.Total)
			}
		}
	}
	printOnce("Section 4: benchmarks × systems build-and-run matrix", rows.String())
}

// BenchmarkAblation_Unify compares unified vs independent
// concretization: distinct installs needed for the saxpy+amg2023
// environment (DESIGN.md ablation A1).
func BenchmarkAblation_Unify(b *testing.B) {
	cts, err := hpcsim.Get("cts1")
	if err != nil {
		b.Fatal(err)
	}
	var rows strings.Builder
	for i := 0; i < b.N; i++ {
		counts := map[bool]int{}
		for _, unify := range []bool{true, false} {
			cfg, err := core.ConcretizerConfig(cts)
			if err != nil {
				b.Fatal(err)
			}
			// One root pins an older cmake; without unification the
			// other root's DAG concretizes to the newest cmake, so the
			// environment needs two cmake installs.
			e := env.New("ablation")
			_ = e.Add("adiak ^cmake@3.20.6")
			_ = e.Add("amg2023+caliper")
			e.Unify = unify
			c := concretizer.New(pkgrepo.Builtin(), cfg)
			if err := e.Concretize(c); err != nil {
				b.Fatal(err)
			}
			counts[unify] = e.DistinctInstalls()
		}
		if counts[true] >= counts[false] {
			b.Fatalf("unify should reduce installs: %v", counts)
		}
		if i == 0 {
			fmt.Fprintf(&rows, "unify: true  → %d distinct installs (one shared cmake)\n", counts[true])
			fmt.Fprintf(&rows, "unify: false → %d distinct installs (duplicate cmake versions)\n", counts[false])
		}
	}
	printOnce("Ablation A1: unified concretization (Figure 3 'unify: true')", rows.String())
}

// BenchmarkAblation_BuildCache compares a cold source build against a
// second site hitting the community binary cache (ablation A2,
// Section 7.2's rolling binary cache).
func BenchmarkAblation_BuildCache(b *testing.B) {
	cts, err := hpcsim.Get("cts1")
	if err != nil {
		b.Fatal(err)
	}
	var rows strings.Builder
	for i := 0; i < b.N; i++ {
		cfg, err := core.ConcretizerConfig(cts)
		if err != nil {
			b.Fatal(err)
		}
		c := concretizer.New(pkgrepo.Builtin(), cfg)
		e := env.New("cache-ablation")
		_ = e.Add("amg2023+caliper")
		if err := e.Concretize(c); err != nil {
			b.Fatal(err)
		}
		cache := buildcache.New()
		siteA := install.New(pkgrepo.Builtin())
		siteA.Cache = cache
		siteA.PushToCache = true
		repA, err := e.Install(siteA)
		if err != nil {
			b.Fatal(err)
		}
		siteB := install.New(pkgrepo.Builtin())
		siteB.Cache = cache
		repB, err := e.Install(siteB)
		if err != nil {
			b.Fatal(err)
		}
		if repB.Makespan >= repA.Makespan {
			b.Fatalf("cache did not help: %v vs %v", repB.Makespan, repA.Makespan)
		}
		b.ReportMetric(repA.Makespan/repB.Makespan, "cache_speedup")
		if i == 0 {
			fmt.Fprintf(&rows, "site A (source builds): %4.0fs simulated, %d built\n",
				repA.Makespan, repA.Count(install.Built))
			fmt.Fprintf(&rows, "site B (binary cache):  %4.0fs simulated, %d fetched → %.1fx faster\n",
				repB.Makespan, repB.Count(install.FetchedFromCache), repA.Makespan/repB.Makespan)
		}
	}
	printOnce("Ablation A2: community binary cache (Section 7.2)", rows.String())
}

// BenchmarkAblation_Backfill compares FIFO and EASY-backfill
// scheduling of a mixed-width CI benchmark queue (ablation A3).
func BenchmarkAblation_Backfill(b *testing.B) {
	cts, err := hpcsim.Get("cts1")
	if err != nil {
		b.Fatal(err)
	}
	var rows strings.Builder
	for i := 0; i < b.N; i++ {
		waits := map[bool]float64{}
		for _, backfill := range []bool{false, true} {
			s := scheduler.New(cts)
			s.Backfill = backfill
			// A CI-like queue: two wide scaling studies that cannot
			// coexist, with narrow smoke tests queued behind them. The
			// narrow jobs fit the idle nodes and finish before the
			// second wide job could start — the classic backfill case.
			wide := cts.Nodes - 100
			for _, name := range []string{"scaling-A", "scaling-B"} {
				if _, err := s.Submit(name, wide, 7200, func() (float64, error) { return 600, nil }); err != nil {
					b.Fatal(err)
				}
			}
			var narrow []*scheduler.Job
			for j := 0; j < 8; j++ {
				jb, err := s.Submit(fmt.Sprintf("smoke%d", j), 10, 300, func() (float64, error) { return 120, nil })
				if err != nil {
					b.Fatal(err)
				}
				narrow = append(narrow, jb)
			}
			if err := s.Drain(); err != nil {
				b.Fatal(err)
			}
			var totalWait float64
			for _, jb := range narrow {
				totalWait += jb.WaitTime()
			}
			waits[backfill] = totalWait / float64(len(narrow))
		}
		if waits[true] >= waits[false] {
			b.Fatalf("backfill should cut narrow-job wait: %v", waits)
		}
		b.ReportMetric(waits[false]-waits[true], "wait_saved_s")
		if i == 0 {
			fmt.Fprintf(&rows, "FIFO:     smoke tests wait %5.0fs on average behind the wide head job\n", waits[false])
			fmt.Fprintf(&rows, "backfill: smoke tests wait %5.0fs (run in the %d idle nodes)\n", waits[true], 100)
		}
	}
	printOnce("Ablation A3: EASY backfill in the batch scheduler", rows.String())
}

// BenchmarkAblation_Reuse compares fresh concretization against
// --reuse of an installed stack when a second environment arrives
// with overlapping needs (DESIGN.md: Spack's reuse-first solving).
func BenchmarkAblation_Reuse(b *testing.B) {
	cts, err := hpcsim.Get("cts1")
	if err != nil {
		b.Fatal(err)
	}
	var rows strings.Builder
	for i := 0; i < b.N; i++ {
		// An older cmake is already installed site-wide.
		cfg, err := core.ConcretizerConfig(cts)
		if err != nil {
			b.Fatal(err)
		}
		base := concretizer.New(pkgrepo.Builtin(), cfg)
		oldCmake, err := base.Concretize(spec.MustParse("cmake@3.20.6"))
		if err != nil {
			b.Fatal(err)
		}
		inst := install.New(pkgrepo.Builtin())
		if _, err := inst.Install(oldCmake); err != nil {
			b.Fatal(err)
		}

		rebuilds := map[bool]int{}
		for _, reuse := range []bool{false, true} {
			cfg2, err := core.ConcretizerConfig(cts)
			if err != nil {
				b.Fatal(err)
			}
			if reuse {
				cfg2.ReuseInstalled = []*spec.Spec{oldCmake}
			}
			c := concretizer.New(pkgrepo.Builtin(), cfg2)
			adiakSpec, err := c.Concretize(spec.MustParse("adiak"))
			if err != nil {
				b.Fatal(err)
			}
			rep, err := inst.Install(adiakSpec)
			if err != nil {
				b.Fatal(err)
			}
			rebuilds[reuse] = rep.Count(install.Built)
		}
		if rebuilds[true] >= rebuilds[false] {
			b.Fatalf("reuse did not reduce rebuilds: %v", rebuilds)
		}
		if i == 0 {
			fmt.Fprintf(&rows, "fresh concretization: %d packages rebuilt (new cmake@3.23.1 chain)\n", rebuilds[false])
			fmt.Fprintf(&rows, "--reuse:              %d packages rebuilt (installed cmake@3.20.6 reused)\n", rebuilds[true])
		}
	}
	printOnce("Ablation A4: --reuse of installed specs", rows.String())
}
