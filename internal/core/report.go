package core

import (
	"context"
	"fmt"
	"io"
	"strings"

	"repro/internal/buildcache"
	"repro/internal/concretizer"
	"repro/internal/env"
	"repro/internal/install"
	"repro/internal/pkgrepo"
	"repro/internal/ramble"
)

// section4Cells is the paper's Section 4 demonstration: both
// benchmarks on each of the three paper systems.
var section4Cells = []struct{ suite, system string }{
	{"saxpy/openmp", "cts1"}, {"amg2023/openmp", "cts1"},
	{"saxpy/cuda", "ats2"}, {"amg2023/cuda", "ats2"},
	{"saxpy/rocm", "ats4"}, {"amg2023/rocm", "ats4"},
}

// figure14Reduced is the report's default Figure 14 sweep;
// figure14Full is the paper's, to 3456 processes.
var (
	figure14Reduced = []int{36, 72, 144, 288, 576, 1152}
	figure14Full    = []int{64, 128, 256, 512, 1024, 2048, 3456}
)

// reproduction holds the runs the report renders.
type reproduction struct {
	bp       *Benchpark               // its metrics DB holds every run's results
	saxpy    *ramble.AnalysisReport   // Figures 7-13: saxpy/openmp on cts1
	section4 []*ramble.AnalysisReport // one per section4Cells entry
	fig14    *StudyResult
	// A1: distinct installs of one environment with unify=true, then
	// unify=false.
	a1 [2]int
	// A2: one environment installed from source, then from the cache
	// the first install filled.
	a2 [2]*install.Report
}

// GenerateReport runs the reproduction experiments and writes a
// markdown paper-vs-measured report — the programmatic counterpart of
// EXPERIMENTS.md. With full=true the Figure 14 sweep extends to the
// paper's 3456 processes (minutes of wall time); otherwise a reduced
// sweep is used. Every run honours ctx and uses jobs workers (<=0
// means runtime.NumCPU()). It returns the first error of a run or of
// a write to w.
func GenerateReport(ctx context.Context, w io.Writer, full bool, jobs int) error {
	r, err := reproduce(ctx, full, jobs)
	if err != nil {
		return err
	}
	return r.write(w)
}

// reproduce runs every experiment the report renders on one fresh
// deployment.
func reproduce(ctx context.Context, full bool, jobs int) (*reproduction, error) {
	r := &reproduction{bp: New()}
	run := func(suite, system string) (rep *ramble.AnalysisReport, err error) {
		err = r.bp.WithScratchSession(suite, system, func(s *Session) error {
			rep, _, err = s.Run(ctx, RunOptions{Jobs: jobs})
			return err
		})
		return rep, err
	}
	var err error
	if r.saxpy, err = run("saxpy/openmp", "cts1"); err != nil {
		return nil, err
	}
	for _, cell := range section4Cells {
		rep, err := run(cell.suite, cell.system)
		if err != nil {
			return nil, err
		}
		r.section4 = append(r.section4, rep)
	}

	scales := figure14Reduced
	if full {
		scales = figure14Full
	}
	study, err := Figure14Study(scales)
	if err != nil {
		return nil, err
	}
	if r.fig14, err = study.Run(ctx, r.bp, jobs); err != nil {
		return nil, err
	}

	// The ablations concretize for cts1, Figure 14's system.
	cfg, err := ConcretizerConfig(study.System)
	if err != nil {
		return nil, err
	}
	for i, unify := range []bool{true, false} {
		e, err := concretized(cfg, "report-a1", unify, "adiak ^cmake@3.20.6", "amg2023+caliper")
		if err != nil {
			return nil, err
		}
		r.a1[i] = e.DistinctInstalls()
	}
	e, err := concretized(cfg, "report-a2", true, "amg2023+caliper")
	if err != nil {
		return nil, err
	}
	cache := buildcache.New()
	for i := range r.a2 {
		site := install.New(pkgrepo.Builtin())
		site.Cache = cache
		if r.a2[i], err = e.Install(ctx, site); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// concretized returns the environment name of specs, concretized
// under cfg with the given unify setting.
func concretized(cfg *concretizer.Config, name string, unify bool, specs ...string) (*env.Environment, error) {
	e := env.New(name)
	for _, s := range specs {
		if err := e.Add(s); err != nil {
			return nil, err
		}
	}
	e.Unify = unify
	return e, e.Concretize(concretizer.New(pkgrepo.Builtin(), cfg))
}

// write renders the report as markdown and hands it to w in one
// write, whose error it returns.
func (r *reproduction) write(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# Benchpark reproduction report\n\n")
	fmt.Fprintf(&b, "Regenerated programmatically by `benchpark report`.\n\n")

	fmt.Fprintf(&b, "## Table 1 — component matrix\n\n```\n%s```\n\n", ComponentTable())

	fmt.Fprintf(&b, "## Figures 7-13 — the saxpy suite on cts1\n\n")
	fmt.Fprintf(&b, "Paper: 8 experiments (size_threads matrix × zipped vectors), FOM `Kernel done`.\n\n")
	fmt.Fprintf(&b, "| experiment | status | saxpy_time (s) |\n|---|---|---|\n")
	for _, e := range r.saxpy.Experiments {
		fmt.Fprintf(&b, "| %s | %s | %s |\n", e.Name, e.Status, e.FOMs["saxpy_time"])
	}
	fmt.Fprintf(&b, "\nMeasured: %d/%d passed.\n\n", r.saxpy.Succeeded, r.saxpy.Total)

	fmt.Fprintf(&b, "## Section 4 — benchmarks × systems\n\n")
	fmt.Fprintf(&b, "| suite | system | experiments | passed |\n|---|---|---|---|\n")
	for i, cell := range section4Cells {
		fmt.Fprintf(&b, "| %s | %s | %d | %d |\n", cell.suite, cell.system, r.section4[i].Total, r.section4[i].Succeeded)
	}
	fmt.Fprintf(&b, "\n")

	fmt.Fprintf(&b, "## Figure 14 — Extra-P model of MPI_Bcast on CTS\n\n")
	fmt.Fprintf(&b, "Paper model: `-0.6355857931034596 + 0.04660217702356169 * p^(1)`\n\n")
	fmt.Fprintf(&b, "Measured model: `%s` (adj. R² %.4f, SMAPE %.2f%%)\n\n",
		r.fig14.Model, r.fig14.Model.RSquared, r.fig14.Model.SMAPE)
	fmt.Fprintf(&b, "| nprocs | measured (s) | model (s) |\n|---|---|---|\n")
	for _, m := range r.fig14.Measurements {
		fmt.Fprintf(&b, "| %.0f | %.3f | %.3f |\n", m.P, m.Value, r.fig14.Model.Eval(m.P))
	}
	match := "MATCH"
	if r.fig14.Model.I != 1 || r.fig14.Model.J != 0 {
		match = "MISMATCH"
	}
	fmt.Fprintf(&b, "\nModel family: p^(%g)·log2^%d — %s with the paper's linear term.\n\n",
		r.fig14.Model.I, r.fig14.Model.J, match)

	fmt.Fprintf(&b, "## Ablations\n\n")
	fmt.Fprintf(&b, "- **A1 unified concretization**: unify=true → %d installs; unify=false → %d installs\n",
		r.a1[0], r.a1[1])
	fmt.Fprintf(&b, "- **A2 binary cache**: source %.0fs vs cache %.0fs simulated (%.1fx)\n",
		r.a2[0].Makespan, r.a2[1].Makespan, r.a2[0].Makespan/r.a2[1].Makespan)
	fmt.Fprintf(&b, "\n_Generated on simulated hardware; see DESIGN.md §2 for substitutions._\n")
	_, err := io.WriteString(w, b.String())
	return err
}
