// Procurement demonstrates the paper's Section 1 headline use case:
// "benchmarking is used to communicate HPC center workloads with HPC
// vendors ... It also helps evaluate which of the proposed HPC
// systems will result in the best performance for a particular HPC
// center workload."
//
// A center defines its workload as a weighted mix of Benchpark
// benchmarks, runs the identical reproducible experiments on the
// incumbent system and every candidate, and scores candidates by the
// weighted geometric mean of their speedups over the incumbent —
// a standard procurement scorecard (SSI-style).
//
//	go run ./examples/procurement
package main

import (
	"fmt"
	"math"
	"os"
	"sort"

	"repro/internal/bench"
	"repro/internal/hpcsim"
	"repro/internal/metricsdb"
	"repro/internal/ramble"
)

// workloadComponent is one entry of the center's workload mix.
type workloadComponent struct {
	Benchmark      string
	Workload       string
	FOM            string
	Weight         float64
	Vars           map[string]string
	Ranks, PerNode int
}

// centerWorkload mirrors a typical mixed procurement suite.
var centerWorkload = []workloadComponent{
	{Benchmark: "amg2023", Workload: "problem1", FOM: "fom", Weight: 0.35,
		Vars: map[string]string{"nx": "16", "ny": "16", "nz": "16", "tolerance": "1e-6"}, Ranks: 16, PerNode: 8},
	{Benchmark: "hpcg", Workload: "hpcg", FOM: "gflops", Weight: 0.25,
		Vars: map[string]string{"nx": "16", "ny": "16", "nz": "16", "iterations": "30"}, Ranks: 16, PerNode: 8},
	{Benchmark: "stream", Workload: "triad", FOM: "triad_bw", Weight: 0.15,
		Vars: map[string]string{"n": "4000000", "iterations": "3"}, Ranks: 1, PerNode: 1},
	{Benchmark: "lulesh", Workload: "hydro", FOM: "fom_zs", Weight: 0.15,
		Vars: map[string]string{"size": "16", "iterations": "15"}, Ranks: 8, PerNode: 8},
	{Benchmark: "osu-micro-benchmarks", Workload: "osu_bcast", FOM: "total_time", Weight: 0.10,
		Vars: map[string]string{"workload": "osu_bcast", "message_size": "8192", "iterations": "10000"}, Ranks: 64, PerNode: 16},
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "procurement:", err)
		os.Exit(1)
	}
}

func measure(sys *hpcsim.System, comp workloadComponent) (float64, error) {
	b, err := bench.Get(comp.Benchmark)
	if err != nil {
		return 0, err
	}
	threads := 1
	if comp.Benchmark == "stream" {
		threads = sys.Node.Cores()
	}
	out, err := b.Run(bench.Params{
		System: sys, Ranks: comp.Ranks, RanksPerNode: comp.PerNode, Threads: threads,
		Vars: comp.Vars,
	})
	if err != nil {
		return 0, err
	}
	app, err := ramble.GetApplication(comp.Benchmark)
	if err != nil {
		return 0, err
	}
	foms := metricsdb.ParseFOMs(app.ExtractFOMs(out.Text))
	v, ok := foms[comp.FOM]
	if !ok {
		return 0, fmt.Errorf("%s: FOM %s missing from output", comp.Benchmark, comp.FOM)
	}
	return v, nil
}

func run() error {
	incumbentName := "cts1"
	candidates := []string{"ats2", "ats4", "cloud-c5n"}

	incumbent, err := hpcsim.Get(incumbentName)
	if err != nil {
		return err
	}
	fmt.Printf("Center workload (%d components) — baseline: %s\n\n", len(centerWorkload), incumbentName)

	baseline := map[string]float64{}
	for _, comp := range centerWorkload {
		v, err := measure(incumbent, comp)
		if err != nil {
			return fmt.Errorf("baseline %s: %w", comp.Benchmark, err)
		}
		baseline[comp.Benchmark] = v
		fmt.Printf("  %-22s weight %.2f  %s=%.4g\n", comp.Benchmark, comp.Weight, comp.FOM, v)
	}

	type score struct {
		name  string
		total float64
		per   map[string]float64
	}
	var scores []score
	for _, candName := range candidates {
		cand, err := hpcsim.Get(candName)
		if err != nil {
			return err
		}
		s := score{name: candName, per: map[string]float64{}}
		logSum, weightSum := 0.0, 0.0
		for _, comp := range centerWorkload {
			v, err := measure(cand, comp)
			if err != nil {
				return fmt.Errorf("%s %s: %w", candName, comp.Benchmark, err)
			}
			speedup := v / baseline[comp.Benchmark]
			if ramble.FOMLowerIsBetter(comp.Benchmark, comp.FOM) {
				speedup = baseline[comp.Benchmark] / v
			}
			s.per[comp.Benchmark] = speedup
			logSum += comp.Weight * math.Log(speedup)
			weightSum += comp.Weight
		}
		s.total = math.Exp(logSum / weightSum)
		scores = append(scores, s)
	}
	sort.Slice(scores, func(i, j int) bool { return scores[i].total > scores[j].total })

	fmt.Printf("\nScorecard (weighted geometric-mean speedup vs %s):\n", incumbentName)
	fmt.Printf("%-12s %8s", "system", "score")
	for _, comp := range centerWorkload {
		fmt.Printf(" %12s", comp.Benchmark[:min(12, len(comp.Benchmark))])
	}
	fmt.Println()
	for _, s := range scores {
		fmt.Printf("%-12s %8.2f", s.name, s.total)
		for _, comp := range centerWorkload {
			fmt.Printf(" %11.2fx", s.per[comp.Benchmark])
		}
		fmt.Println()
	}
	fmt.Printf("\nRecommendation: %s delivers %.1fx the center workload throughput of %s.\n",
		scores[0].name, scores[0].total, incumbentName)
	fmt.Println("Every number above is regenerable from the same Benchpark manifests on each system.")
	return nil
}
