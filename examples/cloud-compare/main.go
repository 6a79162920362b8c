// Cloud-compare reproduces the Section 7.1 incident and the Section
// 7.2 "cloud as another platform" workflow:
//
//  1. a benchmark binary is built on an on-premise Icelake system and
//     copied, with identical dependencies, to a near-identical cloud
//     instance — where it crashes, because the cloud hides one
//     hardware feature (avx512_vnni) that the vendor math library
//     uses;
//
//  2. archspec-based diagnosis pinpoints the missing feature;
//
//  3. rebuilding through Benchpark's concretizer for the *detected*
//     cloud microarchitecture fixes the run, and the two systems can
//     then be compared quantitatively with the same reproducible
//     experiment specification.
//
//     go run ./examples/cloud-compare
package main

import (
	"context"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/hpcsim"
	"repro/internal/metricsdb"
)

func main() {
	if err := run(context.Background()); err != nil {
		fmt.Fprintln(os.Stderr, "cloud-compare:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context) error {
	onprem, err := hpcsim.Get("onprem-icelake")
	if err != nil {
		return err
	}
	cloud, err := hpcsim.Get("cloud-m6i")
	if err != nil {
		return err
	}

	// --- 1. move the binary by hand (the pre-Benchpark workflow) --------
	fmt.Println("== Section 7.1: the same binary on near-identical systems ==")
	opArch, err := onprem.Microarch()
	if err != nil {
		return err
	}
	fmt.Printf("on-premise system %s detects microarchitecture %q\n", onprem.Name, opArch.Name)
	fmt.Printf("binary built with target=%s\n\n", opArch.Name)

	if ok, _ := onprem.CanRunBinary(opArch.Name); !ok {
		return fmt.Errorf("binary must run where it was built")
	}
	fmt.Printf("on %s:    microbenchmark executes correctly\n", onprem.Name)
	ok, reason := cloud.CanRunBinary(opArch.Name)
	if ok {
		return fmt.Errorf("expected the cloud run to crash")
	}
	fmt.Printf("on %s:  CRASH — %s\n", cloud.Name, reason)

	// --- 2. diagnosis ------------------------------------------------------
	fmt.Println("\n== Diagnosis via archspec (days of vendor debugging in the paper) ==")
	cloudArch, err := cloud.Microarch()
	if err != nil {
		return err
	}
	fmt.Printf("cloud instance detects only %q (it hides avx512_vnni from guests)\n", cloudArch.Name)
	fmt.Printf("root cause: vendor math library dispatches on a hardware feature missing in the cloud\n")

	// --- 3. rebuild through Benchpark for the detected target ---------------
	fmt.Println("\n== Rebuild via the concretizer for the detected cloud target ==")
	bp := core.New()
	dir, err := os.MkdirTemp("", "benchpark-cloud-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	for _, sysName := range []string{"onprem-icelake", "cloud-m6i"} {
		sess, err := bp.Setup("saxpy/openmp", sysName, dir+"-"+sysName)
		if err != nil {
			return err
		}
		rep, _, err := sess.Run(ctx, core.RunOptions{})
		if err != nil {
			return err
		}
		s, err := sess.InstalledSpec("saxpy")
		if err != nil {
			return err
		}
		fmt.Printf("%-16s built saxpy target=%-16s %d/%d experiments passed\n",
			sysName, s.Target, rep.Succeeded, rep.Total)
		if err := os.RemoveAll(dir + "-" + sysName); err != nil {
			return err
		}
	}

	// --- 4. competitive performance comparison -------------------------------
	fmt.Println("\n== Section 7.2: competitive performance benchmarking ==")
	fmt.Printf("%-16s %12s %14s\n", "system", "nprocs", "bcast total(s)")
	for _, sysName := range []string{"onprem-icelake", "cloud-m6i"} {
		sys, _ := hpcsim.Get(sysName)
		study := &core.ScalingStudy{
			System: sys, Benchmark: "osu-micro-benchmarks", Workload: "osu_bcast",
			FOM:    "total_time",
			Vars:   map[string]string{"message_size": "8192", "iterations": "10000"},
			Scales: []int{64, 128, 256},
		}
		res, err := study.Run(ctx, bp, 0)
		if err != nil {
			return err
		}
		for _, m := range res.Measurements {
			fmt.Printf("%-16s %12.0f %14.3f\n", sysName, m.P, m.Value)
		}
	}
	onpremT := bp.Metrics.Series(metricsdb.Filter{System: "onprem-icelake", Workload: "osu_bcast"}, "total_time")
	cloudT := bp.Metrics.Series(metricsdb.Filter{System: "cloud-m6i", Workload: "osu_bcast"}, "total_time")
	if len(onpremT) > 0 && len(cloudT) > 0 {
		ratio := cloudT[len(cloudT)-1].Value / onpremT[len(onpremT)-1].Value
		fmt.Printf("\ncloud/on-prem bcast slowdown at 256 ranks: %.1fx (ENA latency vs InfiniBand)\n", ratio)
	}
	fmt.Println("\nBenchpark's reproducible manifests make this comparison shareable across sites,")
	fmt.Println("\"especially when cross-site access for individuals is impractical\" (Section 7.1).")
	return nil
}
