package core

import (
	"context"
	"fmt"
	"io"

	"repro/internal/buildcache"
	"repro/internal/concretizer"
	"repro/internal/env"
	"repro/internal/hpcsim"
	"repro/internal/install"
	"repro/internal/pkgrepo"
)

// GenerateReport runs the reproduction experiments and writes a
// markdown paper-vs-measured report — the programmatic counterpart of
// EXPERIMENTS.md. With full=true the Figure 14 sweep extends to the
// paper's 3456 processes (minutes of wall time); otherwise a reduced
// sweep is used. Every run honours ctx and uses jobs workers (<=0
// means runtime.NumCPU()).
func GenerateReport(ctx context.Context, w io.Writer, full bool, jobs int) error {
	bp := New()
	fmt.Fprintf(w, "# Benchpark reproduction report\n\n")
	fmt.Fprintf(w, "Regenerated programmatically by `benchpark report`.\n\n")

	// ---- Table 1 -------------------------------------------------------
	fmt.Fprintf(w, "## Table 1 — component matrix\n\n```\n%s```\n\n", ComponentTable())

	// ---- Figure 10 matrix ------------------------------------------------
	err := bp.WithScratchSession("saxpy/openmp", "cts1", func(sess *Session) error {
		rep, _, err := sess.Run(ctx, RunOptions{Jobs: jobs})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "## Figures 7-13 — the saxpy suite on cts1\n\n")
		fmt.Fprintf(w, "Paper: 8 experiments (size_threads matrix × zipped vectors), FOM `Kernel done`.\n\n")
		fmt.Fprintf(w, "| experiment | status | saxpy_time (s) |\n|---|---|---|\n")
		for _, e := range rep.Experiments {
			fmt.Fprintf(w, "| %s | %s | %s |\n", e.Name, e.Status, e.FOMs["saxpy_time"])
		}
		fmt.Fprintf(w, "\nMeasured: %d/%d passed.\n\n", rep.Succeeded, rep.Total)
		return nil
	})
	if err != nil {
		return err
	}

	// ---- Section 4 matrix ---------------------------------------------------
	fmt.Fprintf(w, "## Section 4 — benchmarks × systems\n\n")
	fmt.Fprintf(w, "| suite | system | experiments | passed |\n|---|---|---|---|\n")
	for _, cell := range []struct{ suite, system string }{
		{"saxpy/openmp", "cts1"}, {"amg2023/openmp", "cts1"},
		{"saxpy/cuda", "ats2"}, {"amg2023/cuda", "ats2"},
		{"saxpy/rocm", "ats4"}, {"amg2023/rocm", "ats4"},
	} {
		err := bp.WithScratchSession(cell.suite, cell.system, func(s *Session) error {
			r, _, err := s.Run(ctx, RunOptions{Jobs: jobs})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "| %s | %s | %d | %d |\n", cell.suite, cell.system, r.Total, r.Succeeded)
			return nil
		})
		if err != nil {
			return err
		}
	}
	fmt.Fprintln(w)

	// ---- Figure 14 ---------------------------------------------------------------
	scales := []int{36, 72, 144, 288, 576, 1152}
	if full {
		scales = []int{64, 128, 256, 512, 1024, 2048, 3456}
	}
	study, err := Figure14Study(scales)
	if err != nil {
		return err
	}
	res, err := study.Run(ctx, bp, jobs)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "## Figure 14 — Extra-P model of MPI_Bcast on CTS\n\n")
	fmt.Fprintf(w, "Paper model: `-0.6355857931034596 + 0.04660217702356169 * p^(1)`\n\n")
	fmt.Fprintf(w, "Measured model: `%s` (adj. R² %.4f, SMAPE %.2f%%)\n\n",
		res.Model, res.Model.RSquared, res.Model.SMAPE)
	fmt.Fprintf(w, "| nprocs | measured (s) | model (s) |\n|---|---|---|\n")
	for _, m := range res.Measurements {
		fmt.Fprintf(w, "| %.0f | %.3f | %.3f |\n", m.P, m.Value, res.Model.Eval(m.P))
	}
	match := "MATCH"
	if res.Model.I != 1 || res.Model.J != 0 {
		match = "MISMATCH"
	}
	fmt.Fprintf(w, "\nModel family: p^(%g)·log2^%d — %s with the paper's linear term.\n\n",
		res.Model.I, res.Model.J, match)

	// ---- Ablations -----------------------------------------------------------------
	fmt.Fprintf(w, "## Ablations\n\n")
	cts, err := hpcsim.Get("cts1")
	if err != nil {
		return err
	}
	// A1: unify
	counts := map[bool]int{}
	for _, unify := range []bool{true, false} {
		cfg, err := ConcretizerConfig(cts)
		if err != nil {
			return err
		}
		e := env.New("report-a1")
		_ = e.Add("adiak ^cmake@3.20.6")
		_ = e.Add("amg2023+caliper")
		e.Unify = unify
		if err := e.Concretize(concretizer.New(pkgrepo.Builtin(), cfg)); err != nil {
			return err
		}
		counts[unify] = e.DistinctInstalls()
	}
	fmt.Fprintf(w, "- **A1 unified concretization**: unify=true → %d installs; unify=false → %d installs\n",
		counts[true], counts[false])

	// A2: binary cache
	cfg, err := ConcretizerConfig(cts)
	if err != nil {
		return err
	}
	e := env.New("report-a2")
	_ = e.Add("amg2023+caliper")
	if err := e.Concretize(concretizer.New(pkgrepo.Builtin(), cfg)); err != nil {
		return err
	}
	cache := buildcache.New()
	siteA := install.New(pkgrepo.Builtin())
	siteA.Cache = cache
	repA, err := e.Install(ctx, siteA)
	if err != nil {
		return err
	}
	siteB := install.New(pkgrepo.Builtin())
	siteB.Cache = cache
	repB, err := e.Install(ctx, siteB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "- **A2 binary cache**: source %.0fs vs cache %.0fs simulated (%.1fx)\n",
		repA.Makespan, repB.Makespan, repA.Makespan/repB.Makespan)
	fmt.Fprintf(w, "\n_Generated on simulated hardware; see DESIGN.md §2 for substitutions._\n")
	return nil
}
