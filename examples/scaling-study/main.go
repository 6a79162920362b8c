// Scaling-study performs the performance-analysis workflow Section 5
// of the paper plans: run AMG2023 at several scales on the three
// Section 4 systems, compose the Caliper profiles with Thicket, and
// fit Extra-P scaling models — finishing with the Figure 14 MPI_Bcast
// model on the CTS architecture.
//
//	go run ./examples/scaling-study          (reduced Figure 14 sweep)
//	go run ./examples/scaling-study -full    (full sweep to 3456 ranks)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/extrap"
	"repro/internal/hpcsim"
)

func main() {
	full := flag.Bool("full", false, "sweep MPI_Bcast to 3456 ranks as in the paper's Figure 14")
	flag.Parse()
	if err := run(context.Background(), *full); err != nil {
		fmt.Fprintln(os.Stderr, "scaling-study:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, full bool) error {
	bp := core.New()

	fmt.Println("== AMG2023 strong-ish scaling across the Section 4 systems ==")
	fmt.Printf("%-8s %-10s %-30s %s\n", "system", "FOM", "Extra-P model of solve FOM", "fit")
	for _, sysName := range []string{"cts1", "ats2", "ats4"} {
		sys, err := hpcsim.Get(sysName)
		if err != nil {
			return err
		}
		study := &core.ScalingStudy{
			System:    sys,
			Benchmark: "amg2023",
			Workload:  "problem1",
			FOM:       "solve_time",
			Vars: map[string]string{
				"nx": "16", "ny": "16", "nz": "16", "tolerance": "1e-6",
			},
			Scales: []int{8, 16, 32, 64},
		}
		res, err := study.Run(ctx, bp, 0)
		if err != nil {
			return fmt.Errorf("%s: %w", sysName, err)
		}
		fmt.Printf("%-8s %-10s %-30s R²=%.3f\n", sysName, "solve_time", res.Model.String(), res.Model.RSquared)
	}

	fmt.Println("\n== Strong scaling: fixed 16×16×64 global grid on cts1 ==")
	ctsSys, _ := hpcsim.Get("cts1")
	strong, err := core.AMGStrongScalingStudy(ctsSys, 16, 16, 64, []int{2, 4, 8, 16})
	if err != nil {
		return err
	}
	strongRes, err := strong.Run(ctx, bp, 0)
	if err != nil {
		return err
	}
	fmt.Printf("%10s %16s %10s %12s\n", "nprocs", "solve time (s)", "speedup", "efficiency")
	for _, row := range core.ParallelEfficiency(strongRes.Measurements) {
		fmt.Printf("%10.0f %16.6f %9.2fx %11.0f%%\n", row.P, row.Time, row.Speedup, 100*row.Efficiency)
	}
	fmt.Printf("Extra-P model: %s\n", strongRes.Model)

	fmt.Println("\n== Thicket view of one ensemble (amg2023 on cts1) ==")
	cts, _ := hpcsim.Get("cts1")
	study := &core.ScalingStudy{
		System: cts, Benchmark: "amg2023", Workload: "problem1",
		FOM:    "solve_time",
		Vars:   map[string]string{"nx": "16", "ny": "16", "nz": "16", "tolerance": "1e-6"},
		Scales: []int{8, 16, 32},
	}
	res, err := study.Run(ctx, bp, 0)
	if err != nil {
		return err
	}
	fmt.Print(res.Thicket.Table("nprocs", []string{"main/setup", "main/solve", "main/solve/matvec"}))

	fmt.Println("\n== Figure 14: Extra-P model of MPI_Bcast on CTS ==")
	scales := []int{36, 72, 144, 288, 576, 1152}
	if full {
		scales = []int{64, 128, 256, 512, 1024, 2048, 3456}
	}
	f14, err := core.Figure14Study(scales)
	if err != nil {
		return err
	}
	fmt.Printf("sweeping nprocs = %v (each point is a real simulated broadcast)\n\n", scales)
	f14res, err := f14.Run(ctx, bp, 0)
	if err != nil {
		return err
	}
	fmt.Print(core.RenderFigure14(f14res))
	fmt.Println("\npaper's model:   -0.6355857931034596 + 0.04660217702356169 * p^(1)")
	fmt.Printf("our model:       %s\n", f14res.Model)
	if multi, err := extrap.FitMultiTerm(f14res.Measurements); err == nil {
		fmt.Printf("two-term PMNF:   %s (SMAPE %.2f%%)\n", multi, multi.SMAPE)
	}
	fmt.Printf("(metrics database now holds %d results across %v)\n",
		bp.Metrics.Len(), bp.Metrics.Systems())
	return nil
}
