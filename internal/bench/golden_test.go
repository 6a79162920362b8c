package bench

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
)

// goldenCase is one kernel execution pinned bit for bit.
type goldenCase struct {
	bench, system       string
	ranks, ppn, threads int
	variant             string
	vars                map[string]string
}

func (g goldenCase) name() string {
	keys := make([]string, 0, len(g.vars))
	for k, v := range g.vars {
		keys = append(keys, k+"="+v)
	}
	sort.Strings(keys)
	return fmt.Sprintf("%s %s ranks=%d ppn=%d threads=%d %s", g.bench, g.system, g.ranks, g.ppn, g.threads, strings.Join(keys, ","))
}

// goldenCases is every experiment of the eleven nightly-matrix
// sessions (benchmarks/sysbench's nightlyMatrix over the suites of
// core/configs.go, with the ranks, placement and variables the
// session hands each kernel), plus the kernels and collective shapes
// the matrix does not reach: gups, osu_latency, a binomial broadcast,
// a power-of-two Allreduce and a slab-decomposed AMG.
func goldenCases() []goldenCase {
	var cases []goldenCase
	// saxpy/{openmp,cuda,rocm}: (ppn, nodes) zipped, n × n_threads crossed.
	for _, sv := range [][2]string{
		{"cts1", "openmp"}, {"cloud-c5n", "openmp"}, {"fugaku-a64fx", "openmp"},
		{"ats2", "cuda"}, {"ats4", "rocm"},
	} {
		for _, ppn := range []int{8, 4} {
			for _, n := range []string{"512", "1024"} {
				for _, threads := range []int{2, 4} {
					cases = append(cases, goldenCase{"saxpy", sv[0], 8, ppn, threads, sv[1],
						map[string]string{"n": n, "variant": sv[1]}})
				}
			}
		}
	}
	cases = append(cases, goldenCase{"stream", "cts1", 1, 1, 36, "",
		map[string]string{"n": "10000000", "iterations": "10"}})
	for _, ranks := range []int{8, 16} {
		cases = append(cases,
			goldenCase{"hpcg", "cts1", ranks, 8, 1, "",
				map[string]string{"nx": "16", "ny": "16", "nz": "16", "iterations": "50", "papi": "1"}},
			goldenCase{"lulesh", "cts1", ranks, 8, 1, "",
				map[string]string{"size": "16", "iterations": "20"}})
	}
	for _, workload := range []string{"osu_bcast", "osu_allreduce"} {
		for _, ranks := range []int{36, 72, 144} {
			cases = append(cases, goldenCase{"osu-micro-benchmarks", "cts1", ranks, 36, 1, "",
				map[string]string{"workload": workload, "message_size": "8192", "iterations": "32000"}})
		}
	}
	cases = append(cases,
		goldenCase{"amg2023", "cts1", 8, 8, 1, "", map[string]string{
			"px": "2", "py": "2", "pz": "2", "nx": "16", "ny": "16", "nz": "16",
			"tolerance": "1e-6", "max_iterations": "200"}},
		goldenCase{"amg2023", "cts1", 4, 4, 1, "", map[string]string{
			"nx": "16", "ny": "16", "nz": "16", "tolerance": "1e-6"}},
		goldenCase{"gups", "cts1", 4, 4, 1, "", map[string]string{
			"log2_table_size": "10", "updates_per_rank": "256", "rounds": "3"}},
		goldenCase{"osu-micro-benchmarks", "cts1", 2, 1, 1, "", map[string]string{
			"workload": "osu_latency", "message_size": "8192", "iterations": "1000"}},
		goldenCase{"osu-micro-benchmarks", "ats2", 12, 4, 1, "", map[string]string{
			"workload": "osu_bcast", "message_size": "8192", "iterations": "1000"}},
		goldenCase{"osu-micro-benchmarks", "cts1", 16, 8, 1, "", map[string]string{
			"workload": "osu_allreduce", "message_size": "8192", "iterations": "1000"}},
	)
	return cases
}

// goldenLine runs one case and renders what the golden file pins: the
// kernel's text, the bits of its simulated elapsed time and the hash of
// its merged Caliper profile.
func goldenLine(t *testing.T, g goldenCase) string {
	t.Helper()
	b, err := Get(g.bench)
	if err != nil {
		t.Fatal(err)
	}
	out, err := b.Run(Params{
		System: system(t, g.system), Ranks: g.ranks, RanksPerNode: g.ppn,
		Threads: g.threads, Variant: g.variant, Vars: g.vars,
	})
	if err != nil {
		t.Fatalf("%s: %v", g.name(), err)
	}
	prof, err := out.Profile.JSON()
	if err != nil {
		t.Fatalf("%s: %v", g.name(), err)
	}
	return fmt.Sprintf("%s\t%016x\t%x\t%q", g.name(), math.Float64bits(out.Elapsed),
		sha256.Sum256([]byte(prof)), out.Text)
}

// TestKernelsGolden pins every simulated number the nightly matrix
// produces. The table runs twice in one process: rank goroutines are
// scheduled differently each time, so a result that depended on the
// schedule would differ between the passes or from the file. To record
// the file anew — only when the simulation is meant to change — delete
// it and run the test.
func TestKernelsGolden(t *testing.T) {
	const path = "testdata/kernels.golden"
	cases := goldenCases()
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		var b strings.Builder
		for _, g := range cases {
			b.WriteString(goldenLine(t, g) + "\n")
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s did not exist and has been recorded from this tree; review it and run again", path)
	}
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(cases) {
		t.Fatalf("%s has %d lines, the table %d cases", path, len(want), len(cases))
	}
	for pass := 1; pass <= 2; pass++ {
		for i, g := range cases {
			if got := goldenLine(t, g); got != want[i] {
				t.Errorf("pass %d:\n got %s\nwant %s", pass, got, want[i])
			}
		}
	}
}
