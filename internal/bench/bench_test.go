package bench

import (
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/caliper"
	"repro/internal/hpcsim"
	"repro/internal/mpisim"
)

func system(t testing.TB, name string) *hpcsim.System {
	t.Helper()
	s, err := hpcsim.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRegistry(t *testing.T) {
	names := Names()
	for _, want := range []string{"saxpy", "amg2023", "stream", "osu-micro-benchmarks"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("benchmark %s not registered (have %v)", want, names)
		}
	}
	if _, err := Get("nope"); err == nil {
		t.Error("unknown benchmark should error")
	}
}

// TestSaxpyFigure8FOM checks the exact FOM and success criteria of the
// paper's Figure 8: the output must match the regex "Kernel done".
func TestSaxpyFigure8FOM(t *testing.T) {
	b, _ := Get("saxpy")
	out, err := b.Run(Params{
		System: system(t, "cts1"), Ranks: 8, RanksPerNode: 8, Threads: 2,
		Vars: map[string]string{"n": "512"},
	})
	if err != nil {
		t.Fatal(err)
	}
	fom := regexp.MustCompile(`(?P<done>Kernel done)`)
	if !fom.MatchString(out.Text) {
		t.Errorf("FOM regex did not match output:\n%s", out.Text)
	}
	if !strings.Contains(out.Text, "checksum") || strings.Contains(out.Text, "MISMATCH") {
		t.Errorf("checksum failed:\n%s", out.Text)
	}
	if out.Elapsed <= 0 {
		t.Error("no simulated time")
	}
	if out.Profile.Region("main/saxpy_kernel").Count == 0 {
		t.Errorf("caliper regions = %v", out.Profile.Paths())
	}
	if v, _ := out.Metadata.Get("cluster"); v != "cts1" {
		t.Errorf("metadata cluster = %q", v)
	}
}

func TestSaxpyScalesWithN(t *testing.T) {
	b, _ := Get("saxpy")
	run := func(n string) float64 {
		out, err := b.Run(Params{
			System: system(t, "cts1"), Ranks: 4, RanksPerNode: 4, Threads: 1,
			Vars: map[string]string{"n": n},
		})
		if err != nil {
			t.Fatal(err)
		}
		return out.Elapsed
	}
	small, large := run("100000"), run("100000000")
	if large < 100*small {
		t.Errorf("100000000 elements (%g s) should dwarf 100000 (%g s)", large, small)
	}
}

func TestSaxpyGPUVariants(t *testing.T) {
	b, _ := Get("saxpy")
	// cuda on ats2 works; rocm on ats2 fails; cuda on cts1 fails.
	if _, err := b.Run(Params{System: system(t, "ats2"), Ranks: 4, RanksPerNode: 4,
		Variant: "cuda", Vars: map[string]string{"n": "4096"}}); err != nil {
		t.Errorf("cuda on ats2: %v", err)
	}
	if _, err := b.Run(Params{System: system(t, "ats2"), Ranks: 4, RanksPerNode: 4,
		Variant: "rocm", Vars: map[string]string{"n": "4096"}}); err == nil {
		t.Error("rocm on ats2 should fail (V100 is CUDA)")
	}
	if _, err := b.Run(Params{System: system(t, "cts1"), Ranks: 4, RanksPerNode: 4,
		Variant: "cuda", Vars: map[string]string{"n": "4096"}}); err == nil {
		t.Error("cuda on cts1 should fail (no GPUs)")
	}
	if _, err := b.Run(Params{System: system(t, "ats4"), Ranks: 4, RanksPerNode: 4,
		Variant: "rocm", Vars: map[string]string{"n": "4096"}}); err != nil {
		t.Errorf("rocm on ats4: %v", err)
	}
}

func TestSaxpyInvalidParams(t *testing.T) {
	b, _ := Get("saxpy")
	if _, err := b.Run(Params{System: system(t, "cts1"), Ranks: 2, RanksPerNode: 2,
		Vars: map[string]string{"n": "-5"}}); err == nil {
		t.Error("negative n should fail")
	}
	if _, err := b.Run(Params{System: system(t, "cts1"), Ranks: 2, RanksPerNode: 2,
		Vars: map[string]string{"n": "abc"}}); err == nil {
		t.Error("non-numeric n should fail")
	}
}

func TestStream(t *testing.T) {
	b, _ := Get("stream")
	out, err := b.Run(Params{
		System: system(t, "cts1"), Ranks: 2, RanksPerNode: 2, Threads: 9,
		Vars: map[string]string{"n": "1000000", "iterations": "3"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.Text, "Triad:") || !strings.Contains(out.Text, "Kernel done") {
		t.Errorf("output:\n%s", out.Text)
	}
	if strings.Contains(out.Text, "VALIDATION FAILED") {
		t.Error("triad arithmetic wrong")
	}
	// Reported node bandwidth should be below the hardware peak and
	// positive.
	m := regexp.MustCompile(`Triad: ([0-9.]+) GB/s`).FindStringSubmatch(out.Text)
	if m == nil {
		t.Fatalf("no bandwidth in output:\n%s", out.Text)
	}
	bw, _ := strconv.ParseFloat(m[1], 64)
	if bw <= 0 || bw > system(t, "cts1").Node.MemBWGBs*1.05 {
		t.Errorf("triad bandwidth %v GB/s implausible (peak %v)", bw, system(t, "cts1").Node.MemBWGBs)
	}
}

func TestOSUBcastOutput(t *testing.T) {
	b, _ := Get("osu-micro-benchmarks")
	out, err := b.Run(Params{
		System: system(t, "cts1"), Ranks: 16, RanksPerNode: 16,
		Vars: map[string]string{"workload": "osu_bcast", "message_size": "65536", "iterations": "1000"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Total time:", "Avg latency:", "Kernel done"} {
		if !strings.Contains(out.Text, want) {
			t.Errorf("output missing %q:\n%s", want, out.Text)
		}
	}
}

// TestOSUBcastLinearShape verifies the Figure 14 property end to end
// through the benchmark: on cts1 the reported Total time grows
// close to linearly with process count.
func TestOSUBcastLinearShape(t *testing.T) {
	b, _ := Get("osu-micro-benchmarks")
	total := func(p int) float64 {
		out, err := b.Run(Params{
			System: system(t, "cts1"), Ranks: p, RanksPerNode: 16,
			// Small message: the latency term dominates, which is the
			// linear regime Figure 14 plots.
			Vars: map[string]string{"workload": "osu_bcast", "message_size": "8192", "iterations": "32000"},
		})
		if err != nil {
			t.Fatal(err)
		}
		m := regexp.MustCompile(`Total time: ([0-9.]+) s`).FindStringSubmatch(out.Text)
		if m == nil {
			t.Fatalf("no total time:\n%s", out.Text)
		}
		v, _ := strconv.ParseFloat(m[1], 64)
		return v
	}
	t32, t64, t128 := total(32), total(64), total(128)
	if t64 <= t32 || t128 <= t64 {
		t.Fatalf("total time not increasing: %v %v %v", t32, t64, t128)
	}
	// Linear shape: successive doubling ratios approach 2.
	r1, r2 := t64/t32, t128/t64
	if r1 < 1.5 || r2 < 1.6 {
		t.Errorf("bcast on cts1 not near-linear: ratios %.2f %.2f (times %v %v %v)", r1, r2, t32, t64, t128)
	}
}

func TestOSUAllreduceAndLatency(t *testing.T) {
	b, _ := Get("osu-micro-benchmarks")
	if _, err := b.Run(Params{System: system(t, "ats2"), Ranks: 8, RanksPerNode: 8,
		Vars: map[string]string{"workload": "osu_allreduce", "message_size": "4096", "iterations": "100"}}); err != nil {
		t.Errorf("allreduce: %v", err)
	}
	out, err := b.Run(Params{System: system(t, "ats2"), Ranks: 2, RanksPerNode: 1,
		Vars: map[string]string{"workload": "osu_latency", "message_size": "8", "iterations": "100"}})
	if err != nil {
		t.Fatalf("latency: %v", err)
	}
	m := regexp.MustCompile(`Avg latency: ([0-9.]+) us`).FindStringSubmatch(out.Text)
	if m == nil {
		t.Fatalf("no latency:\n%s", out.Text)
	}
	lat, _ := strconv.ParseFloat(m[1], 64)
	// Round trip across EDR: a few microseconds.
	if lat < 1 || lat > 100 {
		t.Errorf("ping-pong latency %v us implausible", lat)
	}
	if _, err := b.Run(Params{System: system(t, "ats2"), Ranks: 4, RanksPerNode: 4,
		Vars: map[string]string{"workload": "osu_nothing"}}); err == nil {
		t.Error("unknown workload should fail")
	}
}

func TestAMGConverges(t *testing.T) {
	b, _ := Get("amg2023")
	out, err := b.Run(Params{
		System: system(t, "cts1"), Ranks: 4, RanksPerNode: 4,
		Vars: map[string]string{"nx": "16", "ny": "16", "nz": "16", "tolerance": "1e-8"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.Text, "converged") {
		t.Errorf("solver did not converge:\n%s", out.Text)
	}
	m := regexp.MustCompile(`Relative residual: ([0-9.e+-]+)`).FindStringSubmatch(out.Text)
	if m == nil {
		t.Fatalf("no residual:\n%s", out.Text)
	}
	res, _ := strconv.ParseFloat(m[1], 64)
	if res > 1e-8 {
		t.Errorf("residual %v above tolerance", res)
	}
	for _, want := range []string{"Setup time:", "Solve time:", "Figure of Merit", "Kernel done"} {
		if !strings.Contains(out.Text, want) {
			t.Errorf("output missing %q", want)
		}
	}
	// Caliper hierarchy captured setup/solve/vcycle/matvec.
	for _, region := range []string{"main/setup", "main/solve"} {
		if out.Profile.Region(region).Count == 0 {
			t.Errorf("region %s missing; have %v", region, out.Profile.Paths())
		}
	}
}

func TestAMGMultigridAcceleratesCG(t *testing.T) {
	// The MG preconditioner must reduce CG iterations vs unpreconditioned
	// behaviour; as a proxy, iterations must be far below the grid
	// dimension bound and independent-ish of modest size growth.
	b, _ := Get("amg2023")
	iters := func(n string) int {
		out, err := b.Run(Params{
			System: system(t, "cts1"), Ranks: 2, RanksPerNode: 2,
			Vars: map[string]string{"nx": n, "ny": n, "nz": n, "tolerance": "1e-8"},
		})
		if err != nil {
			t.Fatal(err)
		}
		m := regexp.MustCompile(`Iterations: (\d+)`).FindStringSubmatch(out.Text)
		if m == nil {
			t.Fatalf("no iterations:\n%s", out.Text)
		}
		v, _ := strconv.Atoi(m[1])
		return v
	}
	i16, i32 := iters("16"), iters("32")
	if i16 > 60 || i32 > 80 {
		t.Errorf("MG-PCG iterations too high: 16³→%d, 32³→%d", i16, i32)
	}
}

func TestAMGGPUVariant(t *testing.T) {
	b, _ := Get("amg2023")
	out, err := b.Run(Params{
		System: system(t, "ats2"), Ranks: 4, RanksPerNode: 4, Variant: "cuda",
		Vars: map[string]string{"nx": "16", "ny": "16", "nz": "16"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.Text, "variant=cuda") {
		t.Errorf("variant not recorded:\n%s", out.Text)
	}
}

func TestAMGWeakScalingElapsed(t *testing.T) {
	// Same per-rank grid on more ranks: simulated time should grow only
	// mildly (halo + allreduce overhead), not linearly.
	b, _ := Get("amg2023")
	elapsed := func(ranks int) float64 {
		out, err := b.Run(Params{
			System: system(t, "cts1"), Ranks: ranks, RanksPerNode: 8,
			Vars: map[string]string{"nx": "16", "ny": "16", "nz": "8", "tolerance": "1e-6"},
		})
		if err != nil {
			t.Fatal(err)
		}
		return out.Elapsed
	}
	e2, e16 := elapsed(2), elapsed(16)
	if e16 > 8*e2 {
		t.Errorf("weak scaling broke: %g → %g (8x ranks)", e2, e16)
	}
}

func TestEffectiveMemBWModel(t *testing.T) {
	cts := system(t, "cts1")
	// More threads help until saturation.
	one := effectiveMemBW(cts, 1, 1)
	four := effectiveMemBW(cts, 1, 4)
	many := effectiveMemBW(cts, 1, 64)
	if four <= one {
		t.Error("threads should increase bandwidth before saturation")
	}
	if many > cts.Node.MemBWGBs*1e9 {
		t.Error("bandwidth cannot exceed node peak")
	}
	// Sharing: 36 ranks each get 1/36 of peak.
	share := effectiveMemBW(cts, 36, 1)
	if share > cts.Node.MemBWGBs*1e9/36*1.01 {
		t.Errorf("per-rank share %g too high", share)
	}
}

func TestParamsVarHelpers(t *testing.T) {
	p := Params{Vars: map[string]string{"a": "5", "f": "2.5", "s": "x", "empty": ""}}
	r := varReader{vars: p.Vars}
	if v := r.int("a", 0); v != 5 {
		t.Errorf("int = %d", v)
	}
	if v, w := r.int("missing", 7), r.int("empty", 8); v != 7 || w != 8 {
		t.Errorf("int defaults = %d, %d", v, w)
	}
	if v := r.float("f", 0); v != 2.5 {
		t.Errorf("float = %v", v)
	}
	if r.err != nil {
		t.Fatalf("well-formed reads: %v", r.err)
	}
	r.int("s", 0)
	r.float("a2", 1)
	r.float("s", 0)
	if r.err == nil || r.err.Error() != `bench: variable s="x" is not an integer` {
		t.Errorf("the first malformed read's error is kept: %v", r.err)
	}
	if v := p.Var("s", "d"); v != "x" {
		t.Errorf("Var = %q", v)
	}
	if v := p.Var("none", "d"); v != "d" {
		t.Errorf("Var default = %q", v)
	}
}

// kernelVars is every integer or float variable each registered kernel
// reads.
var kernelVars = map[string][]string{
	"amg2023":              {"nx", "ny", "nz", "px", "py", "pz", "max_iterations", "tolerance"},
	"gups":                 {"log2_table_size", "updates_per_rank", "rounds"},
	"hpcg":                 {"nx", "ny", "nz", "iterations"},
	"lulesh":               {"size", "iterations"},
	"osu-micro-benchmarks": {"message_size", "iterations"},
	"saxpy":                {"n", "inject_failure"},
	"stream":               {"n", "iterations"},
}

// TestMalformedVariablesRefused: every kernel refuses a malformed value
// of each variable it reads, before any rank runs, with an error that
// names the variable.
func TestMalformedVariablesRefused(t *testing.T) {
	for _, name := range Names() {
		vars, ok := kernelVars[name]
		if !ok {
			t.Errorf("%s: kernelVars does not list the variables it reads", name)
			continue
		}
		b, _ := Get(name)
		for _, v := range vars {
			_, err := b.Run(Params{System: system(t, "cts1"), Ranks: 2, RanksPerNode: 2,
				Vars: map[string]string{v: "1x"}})
			if want := fmt.Sprintf("bench: variable %s=%q is not", v, "1x"); err == nil || !strings.HasPrefix(err.Error(), want) {
				t.Errorf("%s with %s=1x: %v, want %q…", name, v, err, want)
			}
		}
	}
}

// TestUnbalancedRegionsFailTheRun: a rank whose Caliper regions do not
// nest fails the whole run, naming the rank and both regions.
func TestUnbalancedRegionsFailTheRun(t *testing.T) {
	p := Params{System: system(t, "cts1"), Ranks: 4, RanksPerNode: 4}
	_, err := runRanks("test", p, func(c *mpisim.Comm, rec *caliper.Recorder) (string, error) {
		rec.Begin("outer")
		rec.Begin("inner")
		if c.Rank() == 2 {
			rec.End("outer")
		}
		c.Barrier()
		rec.End("inner")
		rec.End("outer")
		return "text", nil
	})
	want := `mpisim: rank 2: caliper: End("outer") does not match open region "inner"`
	if err == nil || err.Error() != want {
		t.Errorf("runRanks = %v, want %q", err, want)
	}
}

func TestHPCG(t *testing.T) {
	b, _ := Get("hpcg")
	out, err := b.Run(Params{
		System: system(t, "cts1"), Ranks: 4, RanksPerNode: 4,
		Vars: map[string]string{"nx": "16", "ny": "16", "nz": "16", "iterations": "25"},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`HPCG rating \(GFLOP/s\): ([0-9.]+)`).FindStringSubmatch(out.Text)
	if m == nil {
		t.Fatalf("no rating in output:\n%s", out.Text)
	}
	gflops, _ := strconv.ParseFloat(m[1], 64)
	if gflops <= 0 {
		t.Errorf("gflops = %v", gflops)
	}
	// Memory-bound: the rating must be far below the 4-rank peak
	// compute rate but positive.
	peak := 4 * system(t, "cts1").Node.GFlopsPerCore
	if gflops > peak {
		t.Errorf("gflops %v exceeds peak %v", gflops, peak)
	}
	// CG must reduce the residual from ||b|| = sqrt(n_global).
	rm := regexp.MustCompile(`Final residual: ([0-9.e+-]+)`).FindStringSubmatch(out.Text)
	res, _ := strconv.ParseFloat(rm[1], 64)
	if res >= 128 { // sqrt(4*4096) = 128
		t.Errorf("residual %v did not decrease", res)
	}
	if out.Profile.Region("main/cg/spmv").Count == 0 {
		t.Errorf("regions = %v", out.Profile.Paths())
	}
}

func TestHPCGWithPAPIModifierVars(t *testing.T) {
	b, _ := Get("hpcg")
	out, err := b.Run(Params{
		System: system(t, "cts1"), Ranks: 2, RanksPerNode: 2,
		Vars: map[string]string{"nx": "8", "ny": "8", "nz": "8", "papi": "1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.Text, "papi.PAPI_FP_OPS") {
		t.Errorf("papi counters missing:\n%s", out.Text)
	}
}

func TestLulesh(t *testing.T) {
	b, _ := Get("lulesh")
	out, err := b.Run(Params{
		System: system(t, "cts1"), Ranks: 4, RanksPerNode: 4,
		Vars: map[string]string{"size": "12", "iterations": "10"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"FOM (z/s):", "Grind time", "Kernel done"} {
		if !strings.Contains(out.Text, want) {
			t.Errorf("output missing %q:\n%s", want, out.Text)
		}
	}
	m := regexp.MustCompile(`FOM \(z/s\): ([0-9.e+]+)`).FindStringSubmatch(out.Text)
	fom, _ := strconv.ParseFloat(m[1], 64)
	if fom <= 0 {
		t.Errorf("fom = %v", fom)
	}
	// Per-step regions recorded.
	for _, region := range []string{"main/timesteps/halo", "main/timesteps/stencil", "main/timesteps/dt_allreduce"} {
		if out.Profile.Region(region).Count == 0 {
			t.Errorf("region %s missing; have %v", region, out.Profile.Paths())
		}
	}
	// dt allreduce ran every step on every rank: 10 steps × 4 ranks.
	if got := out.Profile.Region("main/timesteps/dt_allreduce").Count; got != 40 {
		t.Errorf("dt_allreduce count = %d", got)
	}
}

func TestLuleshEnergyConserved(t *testing.T) {
	b, _ := Get("lulesh")
	out, err := b.Run(Params{
		System: system(t, "cts1"), Ranks: 2, RanksPerNode: 2,
		Vars: map[string]string{"size": "8", "iterations": "30"},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`Final origin energy: ([0-9.e+-]+)`).FindStringSubmatch(out.Text)
	e, _ := strconv.ParseFloat(m[1], 64)
	if e < 0 || math.IsNaN(e) {
		t.Errorf("energy = %v", e)
	}
	// The sink term only removes energy; total must not exceed deposit.
	if e > 3.95e7 {
		t.Errorf("energy grew: %v", e)
	}
}

func TestLuleshValidation(t *testing.T) {
	b, _ := Get("lulesh")
	if _, err := b.Run(Params{System: system(t, "cts1"), Ranks: 2, RanksPerNode: 2,
		Vars: map[string]string{"size": "2"}}); err == nil {
		t.Error("tiny size should fail")
	}
}

func TestGUPS(t *testing.T) {
	b, _ := Get("gups")
	out, err := b.Run(Params{
		System: system(t, "cts1"), Ranks: 8, RanksPerNode: 8,
		Vars: map[string]string{"log2_table_size": "12", "updates_per_rank": "256", "rounds": "2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`GUPS: ([0-9.]+)`).FindStringSubmatch(out.Text)
	if m == nil {
		t.Fatalf("no GUPS in output:\n%s", out.Text)
	}
	g, _ := strconv.ParseFloat(m[1], 64)
	if g <= 0 {
		t.Errorf("gups = %v", g)
	}
	if out.Profile.Region("main/updates/alltoall").Count != 16 { // 2 rounds × 8 ranks
		t.Errorf("alltoall count = %d", out.Profile.Region("main/updates/alltoall").Count)
	}
	// Determinism: identical checksum across runs.
	out2, err := b.Run(Params{
		System: system(t, "cts1"), Ranks: 8, RanksPerNode: 8,
		Vars: map[string]string{"log2_table_size": "12", "updates_per_rank": "256", "rounds": "2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	cks := regexp.MustCompile(`Table checksum: ([0-9]+)`)
	if cks.FindStringSubmatch(out.Text)[1] != cks.FindStringSubmatch(out2.Text)[1] {
		t.Error("GUPS checksum not deterministic")
	}
}

// TestSaxpyThreadScaling: more OpenMP threads reduce the memory-bound
// kernel time until the bandwidth saturates, then plateau.
func TestSaxpyThreadScaling(t *testing.T) {
	b, _ := Get("saxpy")
	timeFor := func(threads int) float64 {
		out, err := b.Run(Params{
			System: system(t, "cts1"), Ranks: 1, RanksPerNode: 1, Threads: threads,
			Vars: map[string]string{"n": "50000000"},
		})
		if err != nil {
			t.Fatal(err)
		}
		return out.Elapsed
	}
	t1, t4, t18, t36 := timeFor(1), timeFor(4), timeFor(18), timeFor(36)
	if t4 >= t1 || t18 >= t4 {
		t.Errorf("threads should help below saturation: %g %g %g", t1, t4, t18)
	}
	// Beyond half the cores (saturation) no further gain.
	if t36 < t18*0.99 {
		t.Errorf("past saturation should plateau: t18=%g t36=%g", t18, t36)
	}
}

// TestAMG3DDecomposition: the same problem solved with a 2×2×2
// process grid converges, and its converged residual matches the
// slab decomposition's (same global operator).
func TestAMG3DDecomposition(t *testing.T) {
	b, _ := Get("amg2023")
	run := func(px, py, pz int) (string, string) {
		out, err := b.Run(Params{
			System: system(t, "cts1"), Ranks: 8, RanksPerNode: 8,
			Vars: map[string]string{
				"nx": "8", "ny": "8", "nz": "8", "tolerance": "1e-8",
				"px": itoaT(px), "py": itoaT(py), "pz": itoaT(pz),
			},
		})
		if err != nil {
			t.Fatalf("P %dx%dx%d: %v", px, py, pz, err)
		}
		if !strings.Contains(out.Text, "converged") {
			t.Fatalf("P %dx%dx%d did not converge:\n%s", px, py, pz, out.Text)
		}
		iters := regexp.MustCompile(`Iterations: (\d+)`).FindStringSubmatch(out.Text)[1]
		res := regexp.MustCompile(`Relative residual: ([0-9.e+-]+)`).FindStringSubmatch(out.Text)[1]
		return iters, res
	}
	cubeIters, _ := run(2, 2, 2)
	slabIters, _ := run(1, 1, 8)
	xIters, _ := run(8, 1, 1)
	t.Logf("iterations: cube=%s slab=%s x-slab=%s", cubeIters, slabIters, xIters)
	// All decompositions converge; iteration counts may differ by a
	// few (the local preconditioner sees different subdomains) but
	// must stay in the same regime.
	for _, s := range []string{cubeIters, slabIters, xIters} {
		n, _ := strconv.Atoi(s)
		if n > 60 {
			t.Errorf("iterations = %s, preconditioning regressed", s)
		}
	}
}

func TestAMGBadDecompositionRejected(t *testing.T) {
	b, _ := Get("amg2023")
	for _, tc := range []struct {
		grid map[string]string
		want string
	}{
		{map[string]string{"px": "3", "py": "1", "pz": "1"}, "needs 3 ranks"},
		{map[string]string{"px": "3", "py": "2"}, "do not fill a 3x2x* grid"},
		// A zero extent with pz left to fill used to divide by zero.
		{map[string]string{"px": "0"}, "process grid 0x1x0 has non-positive extent"},
		{map[string]string{"py": "0", "pz": "0"}, "process grid 1x0x0 has non-positive extent"},
	} {
		vars := map[string]string{"nx": "8", "ny": "8", "nz": "8"}
		for k, v := range tc.grid {
			vars[k] = v
		}
		_, err := b.Run(Params{System: system(t, "cts1"), Ranks: 8, RanksPerNode: 8, Vars: vars})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: %v, want an error containing %q", tc.grid, err, tc.want)
		}
	}
}

func itoaT(n int) string { return strconv.Itoa(n) }
