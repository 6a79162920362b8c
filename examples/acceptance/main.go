// Acceptance demonstrates the second stage of the Section 1 system
// lifecycle: "benchmarking is also critical for determining if the
// delivered system reaches the expected performance." The center
// froze a suite of benchmarks with contractual thresholds during
// procurement; at delivery, the same reproducible experiments run on
// the installed machine and an acceptance report flags every
// shortfall.
//
// Two deliveries are evaluated: one healthy, and one with a memory
// subsystem misconfiguration (a realistic acceptance failure).
//
//	go run ./examples/acceptance
package main

import (
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/hpcsim"
	"repro/internal/metricsdb"
	"repro/internal/ramble"
)

// criterion is one line of the acceptance contract.
type criterion struct {
	Benchmark string
	Workload  string
	FOM       string
	// Threshold is the contractual minimum, or the maximum for a FOM
	// that is better lower (ramble.FOMLowerIsBetter), derived from the
	// vendor's committed numbers.
	Threshold      float64
	Vars           map[string]string
	Ranks, PerNode int
	Threads        int
}

// contract is what the vendor committed to for an ats4-class machine
// (thresholds set at 90% of the model's nominal performance, the
// usual acceptance margin).
var contract = []criterion{
	{Benchmark: "stream", Workload: "triad", FOM: "triad_bw", Threshold: 180,
		Vars: map[string]string{"n": "4000000", "iterations": "3"}, Ranks: 1, PerNode: 1, Threads: 64},
	{Benchmark: "hpcg", Workload: "hpcg", FOM: "gflops", Threshold: 25,
		Vars: map[string]string{"nx": "16", "ny": "16", "nz": "16", "iterations": "30"}, Ranks: 16, PerNode: 8},
	{Benchmark: "amg2023", Workload: "problem1", FOM: "solve_time", Threshold: 0.02,
		Vars: map[string]string{"nx": "16", "ny": "16", "nz": "16", "tolerance": "1e-6"}, Ranks: 16, PerNode: 8},
	{Benchmark: "osu-micro-benchmarks", Workload: "osu_bcast", FOM: "avg_latency", Threshold: 40,
		Vars: map[string]string{"workload": "osu_bcast", "message_size": "8192", "iterations": "1000"}, Ranks: 64, PerNode: 16},
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "acceptance:", err)
		os.Exit(1)
	}
}

func measure(sys *hpcsim.System, c criterion) (float64, error) {
	b, err := bench.Get(c.Benchmark)
	if err != nil {
		return 0, err
	}
	out, err := b.Run(bench.Params{
		System: sys, Ranks: c.Ranks, RanksPerNode: c.PerNode, Threads: c.Threads,
		Vars: c.Vars,
	})
	if err != nil {
		return 0, err
	}
	app, err := ramble.GetApplication(c.Benchmark)
	if err != nil {
		return 0, err
	}
	foms := metricsdb.ParseFOMs(app.ExtractFOMs(out.Text))
	v, ok := foms[c.FOM]
	if !ok {
		return 0, fmt.Errorf("%s: FOM %s missing", c.Benchmark, c.FOM)
	}
	return v, nil
}

// evaluate runs the full contract against a delivered system.
func evaluate(name string, sys *hpcsim.System) (bool, error) {
	fmt.Printf("== Acceptance run: %s ==\n", name)
	fmt.Printf("%-22s %-12s %14s %14s %8s\n", "benchmark", "FOM", "measured", "threshold", "verdict")
	pass := true
	for _, c := range contract {
		v, err := measure(sys, c)
		if err != nil {
			return false, err
		}
		ok := v >= c.Threshold
		rel := ">="
		if ramble.FOMLowerIsBetter(c.Benchmark, c.FOM) {
			ok = v <= c.Threshold
			rel = "<="
		}
		verdict := "PASS"
		if !ok {
			verdict = "FAIL"
			pass = false
		}
		fmt.Printf("%-22s %-12s %14.4g %11.4g %s %8s\n", c.Benchmark, c.FOM, v, c.Threshold, rel, verdict)
	}
	return pass, nil
}

func run() error {
	delivered, err := hpcsim.Get("ats4")
	if err != nil {
		return err
	}

	ok, err := evaluate("delivered ats4 (healthy)", delivered)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("healthy delivery unexpectedly failed acceptance")
	}
	fmt.Println("=> system ACCEPTED")
	fmt.Println()

	// Second delivery: DIMMs populated in the wrong channels, halving
	// effective memory bandwidth — a classic acceptance catch.
	misconfigured := delivered.Clone()
	misconfigured.Name = "ats4-misconfigured"
	misconfigured.Node.MemBWGBs /= 2
	ok, err = evaluate("delivered ats4 (memory misconfiguration)", misconfigured)
	if err != nil {
		return err
	}
	if ok {
		return fmt.Errorf("misconfigured delivery slipped through acceptance")
	}
	fmt.Println("=> system REJECTED: memory-bound benchmarks miss their committed thresholds.")
	fmt.Println("   The same frozen manifests pinpoint the regression for the vendor —")
	fmt.Println("   no re-negotiation of what \"the benchmark\" was (Section 7's frozen-in-time role).")
	return nil
}
