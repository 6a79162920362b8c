package repro

import (
	"context"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dashboard"
	"repro/internal/hpcsim"
	"repro/internal/metricsdb"
	"repro/internal/ramble"
)

// TestIntegrationContinuousBenchmarking simulates a deployment over
// several "days": nightly suites run on two systems, results
// accumulate in one metrics database, the dashboard summarizes them,
// and an injected system change is caught as a regression.
func TestIntegrationContinuousBenchmarking(t *testing.T) {
	bp := core.New()

	// Three nights of saxpy on two systems.
	for night := 0; night < 3; night++ {
		for _, sysName := range []string{"cts1", "cloud-c5n"} {
			sess, err := bp.Setup("saxpy/openmp", sysName, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			rep, _, err := sess.Run(context.Background(), core.RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed > 0 {
				t.Fatalf("night %d on %s: %d failed", night, sysName, rep.Failed)
			}
		}
	}
	// 3 nights × 2 systems × 8 experiments.
	if got := bp.Metrics.Len(); got != 48 {
		t.Fatalf("metrics results = %d, want 48", got)
	}

	// Determinism across nights: identical FOM series per experiment.
	series := bp.Metrics.Series(metricsdb.Filter{
		Benchmark: "saxpy", System: "cts1", Experiment: "saxpy_openmp_512_1_8_2",
	}, "saxpy_time")
	if len(series) != 3 {
		t.Fatalf("series = %v", series)
	}
	if series[0].Value != series[1].Value || series[1].Value != series[2].Value {
		t.Errorf("nightly runs not reproducible: %v", series)
	}

	// The dashboard reflects both systems.
	dash := dashboard.Text(bp.Metrics)
	if !strings.Contains(dash, "cts1") || !strings.Contains(dash, "cloud-c5n") {
		t.Errorf("dashboard:\n%s", dash)
	}

	// The same experiment is slower on the cloud (higher network
	// latency shows in multi-node runs).
	ctsRes := bp.Metrics.Query(metricsdb.Filter{System: "cts1", Experiment: "saxpy_openmp_512_2_8_2"})
	cloudRes := bp.Metrics.Query(metricsdb.Filter{System: "cloud-c5n", Experiment: "saxpy_openmp_512_2_8_2"})
	if len(ctsRes) == 0 || len(cloudRes) == 0 {
		t.Fatal("missing cross-system results")
	}
	if cloudRes[0].FOMs["saxpy_time"] <= ctsRes[0].FOMs["saxpy_time"] {
		t.Errorf("cloud (%v) should be slower than cts1 (%v) on 2-node runs",
			cloudRes[0].FOMs["saxpy_time"], ctsRes[0].FOMs["saxpy_time"])
	}
}

// TestIntegrationManifestReproducibility: the manifest stored with a
// result is enough to identify the exact software stack (Section 5).
func TestIntegrationManifestReproducibility(t *testing.T) {
	bp := core.New()
	sess, err := bp.Setup("amg2023/openmp", "cts1", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.Run(context.Background(), core.RunOptions{}); err != nil {
		t.Fatal(err)
	}
	results := bp.Metrics.Query(metricsdb.Filter{Benchmark: "amg2023"})
	if len(results) == 0 {
		t.Fatal("no results")
	}
	m := results[0].Manifest
	model := "system-model: " + sess.System.Fingerprint()[:16]
	for _, want := range []string{"suite: amg2023/openmp\n" + model + "\n", "root: amg2023@1.0"} {
		if !strings.Contains(m, want) {
			t.Errorf("manifest missing %q:\n%s", want, m)
		}
	}
	// The system and the experiment are the result's own fields, so
	// every experiment of the environment shares the one text.
	for _, r := range results[1:] {
		if r.Manifest != m {
			t.Errorf("%s has manifest %q, %s has %q", r.Experiment, r.Manifest, results[0].Experiment, m)
		}
	}
	// The database round-trips through JSON with manifests intact.
	js, err := bp.Metrics.SaveJSON()
	if err != nil {
		t.Fatal(err)
	}
	db2, err := metricsdb.LoadJSON(js)
	if err != nil {
		t.Fatal(err)
	}
	if db2.Query(metricsdb.Filter{Benchmark: "amg2023"})[0].Manifest != m {
		t.Error("manifest lost in persistence")
	}
}

// TestIntegrationHPCGSuite runs the hpcg suite (with the papi
// modifier) end to end and checks the modifier FOMs flow to the
// metrics database.
func TestIntegrationHPCGSuite(t *testing.T) {
	bp := core.New()
	sess, err := bp.Setup("hpcg/hpcg", "ats4", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := sess.Run(context.Background(), core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed > 0 || rep.Total != 2 {
		t.Fatalf("hpcg: %d/%d failed", rep.Failed, rep.Total)
	}
	for _, e := range rep.Experiments {
		if e.FOMs["gflops"] == "" {
			t.Errorf("%s: no gflops FOM: %v", e.Name, e.FOMs)
		}
		if e.FOMs["papi_fp_ops"] == "" {
			t.Errorf("%s: papi modifier FOM missing: %v", e.Name, e.FOMs)
		}
		g, err := strconv.ParseFloat(e.FOMs["gflops"], 64)
		if err != nil || g <= 0 {
			t.Errorf("%s: gflops = %q", e.Name, e.FOMs["gflops"])
		}
	}
	results := bp.Metrics.Query(metricsdb.Filter{Benchmark: "hpcg"})
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	if _, ok := results[0].FOMs["papi_fp_ops"]; !ok {
		t.Error("modifier FOM not persisted to metrics db")
	}
}

// TestIntegrationWorkspaceOnDisk verifies the generated workspace
// matches Figure 1a's layout, including the analyze outputs.
func TestIntegrationWorkspaceOnDisk(t *testing.T) {
	bp := core.New()
	dir := t.TempDir()
	sess, err := bp.Setup("saxpy/openmp", "cts1", dir)
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := sess.Run(context.Background(), core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Workspace.Save(); err != nil {
		t.Fatal(err)
	}
	for _, sub := range []string{"configs", "experiments", "logs"} {
		if fi, err := os.Stat(filepath.Join(dir, sub)); err != nil || !fi.IsDir() {
			t.Errorf("missing workspace dir %s", sub)
		}
	}
	for _, cfg := range []string{"compilers.yaml", "packages.yaml", "spack.yaml", "variables.yaml", "ramble.yaml"} {
		if _, err := os.Stat(filepath.Join(dir, "configs", cfg)); err != nil {
			t.Errorf("missing config %s", cfg)
		}
	}
	for _, e := range rep.Experiments {
		if _, err := os.Stat(filepath.Join(e.Dir, "execute_experiment.sh")); err != nil {
			t.Errorf("%s: script missing", e.Name)
		}
		if _, err := os.Stat(filepath.Join(e.Dir, e.Name+".out")); err != nil {
			t.Errorf("%s: output missing", e.Name)
		}
	}
}

// TestIntegrationAllSuitesOnAllCompatibleSystems smoke-tests every
// registered suite against every system it supports.
func TestIntegrationAllSuitesOnAllCompatibleSystems(t *testing.T) {
	if testing.Short() {
		t.Skip("long smoke matrix")
	}
	bp := core.New()
	ran := 0
	for _, suite := range core.ExperimentTemplates() {
		if strings.HasPrefix(suite, "osu/") {
			continue // scaling sweeps are covered by Figure 14 tests
		}
		for _, sysName := range []string{"cts1", "ats2", "ats4", "cloud-c5n", "fugaku-a64fx"} {
			sess, err := bp.Setup(suite, sysName, t.TempDir())
			if err != nil {
				// GPU variants on incompatible systems are expected to
				// be rejected at setup.
				continue
			}
			rep, _, err := sess.Run(context.Background(), core.RunOptions{})
			if err != nil {
				t.Errorf("%s on %s: %v", suite, sysName, err)
				continue
			}
			if rep.Failed > 0 {
				for _, e := range rep.Experiments {
					if e.Status == ramble.Failed {
						t.Errorf("%s on %s: %s failed: %s", suite, sysName, e.Name, e.FailMsg)
					}
				}
			}
			ran++
		}
	}
	if ran < 15 {
		t.Errorf("only %d suite×system combinations ran", ran)
	}
	if len(bp.Metrics.Systems()) < 5 {
		t.Errorf("systems covered: %v", bp.Metrics.Systems())
	}
}

// TestIntegrationSection71ViaSuites: the cloud twin runs the suite
// rebuilt for its own target even though binaries from the on-prem
// twin would crash.
func TestIntegrationSection71ViaSuites(t *testing.T) {
	onprem, _ := hpcsim.Get("onprem-icelake")
	cloud, _ := hpcsim.Get("cloud-m6i")
	opArch, err := onprem.Microarch()
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := cloud.CanRunBinary(opArch.Name); ok {
		t.Fatal("cloud should reject the on-prem binary")
	}
	bp := core.New()
	sess, err := bp.Setup("saxpy/openmp", "cloud-m6i", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := sess.Run(context.Background(), core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed > 0 {
		t.Fatalf("rebuilt suite failed on the cloud twin: %d", rep.Failed)
	}
	s, err := sess.InstalledSpec("saxpy")
	if err != nil {
		t.Fatal(err)
	}
	cloudArch, _ := cloud.Microarch()
	if s.Target != cloudArch.Name {
		t.Errorf("rebuild targeted %q, want detected %q", s.Target, cloudArch.Name)
	}
}

// TestIntegrationHardwareFaultDiagnosis models Section 1's "tracking
// system performance over time and diagnosing hardware failures": a
// DIMM failure halves memory bandwidth; continuous STREAM runs catch
// it as a throughput regression.
func TestIntegrationHardwareFaultDiagnosis(t *testing.T) {
	healthy, err := hpcsim.Get("cts1")
	if err != nil {
		t.Fatal(err)
	}
	degraded := healthy.Clone()
	degraded.Node.MemBWGBs /= 2 // lost one memory channel set

	b, err := bench.Get("stream")
	if err != nil {
		t.Fatal(err)
	}
	app, err := ramble.GetApplication("stream")
	if err != nil {
		t.Fatal(err)
	}
	db := metricsdb.New()
	run := func(sys *hpcsim.System) float64 {
		out, err := b.Run(bench.Params{
			System: sys, Ranks: 1, RanksPerNode: 1, Threads: sys.Node.Cores(),
			Vars: map[string]string{"n": "1000000", "iterations": "3"},
		})
		if err != nil {
			t.Fatal(err)
		}
		foms := metricsdb.ParseFOMs(app.ExtractFOMs(out.Text))
		db.Add(metricsdb.Result{Benchmark: "stream", System: "cts1", FOMs: foms})
		return foms["triad_bw"]
	}
	// Five healthy nights, then the fault.
	var healthyBW float64
	for i := 0; i < 5; i++ {
		healthyBW = run(healthy)
	}
	degradedBW := run(degraded)
	if degradedBW >= healthyBW*0.7 {
		t.Fatalf("degradation invisible: %v vs %v GB/s", degradedBW, healthyBW)
	}
	regs := db.DetectRegressions(metricsdb.Filter{Benchmark: "stream"}, "triad_bw", 4, 0.8)
	if len(regs) != 1 {
		t.Fatalf("regressions = %v", regs)
	}
	if regs[0].Ratio > 0.7 {
		t.Errorf("ratio = %v, expected ~0.5 after losing half the bandwidth", regs[0].Ratio)
	}
}
