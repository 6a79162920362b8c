package main

import (
	"fmt"
	"os"
	"strconv"

	"repro/internal/concretizer"
	"repro/internal/core"
	"repro/internal/dashboard"
	"repro/internal/hpcsim"
	"repro/internal/install"
	"repro/internal/metricsdb"
	"repro/internal/pkgrepo"
	"repro/internal/spec"
)

// specCmd implements `benchpark spec <system> <spec...>`: concretize
// an abstract spec against a system profile and print the DAG tree,
// the way `spack spec` does.
func specCmd(args []string) error {
	if len(args) < 2 {
		return fmt.Errorf("usage: benchpark spec <system> <spec>")
	}
	sys, err := hpcsim.Get(args[0])
	if err != nil {
		return err
	}
	specText := ""
	for _, a := range args[1:] {
		specText += a + " "
	}
	abstract, err := spec.Parse(specText)
	if err != nil {
		return err
	}
	cfg, err := core.ConcretizerConfig(sys)
	if err != nil {
		return err
	}
	c := concretizer.New(pkgrepo.Builtin(), cfg)
	concrete, err := c.Concretize(abstract)
	if err != nil {
		return err
	}
	fmt.Printf("Input spec\n--------------------------------\n%s\n\n", abstract)
	fmt.Printf("Concretized (%d packages, hash %s)\n--------------------------------\n",
		spec.NodeCount(concrete), concrete.ShortHash())
	fmt.Print(spec.FormatTree(concrete))
	return nil
}

// findCmd implements `benchpark find <system> [constraint]`: install
// the suite's software and list the install database like `spack find`.
func findCmd(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: benchpark find <system> [constraint]")
	}
	sys, err := hpcsim.Get(args[0])
	if err != nil {
		return err
	}
	cfg, err := core.ConcretizerConfig(sys)
	if err != nil {
		return err
	}
	c := concretizer.New(pkgrepo.Builtin(), cfg)
	inst := install.New(pkgrepo.Builtin())
	// Demonstrate against the two Section 4 benchmarks.
	for _, s := range []string{"saxpy", "amg2023+caliper"} {
		concrete, err := c.Concretize(spec.MustParse(s))
		if err != nil {
			return err
		}
		if _, err := inst.Install(concrete); err != nil {
			return err
		}
	}
	constraint := spec.New("")
	if len(args) > 1 {
		constraint, err = spec.Parse(args[1])
		if err != nil {
			return err
		}
	}
	recs := inst.DB.Find(constraint)
	fmt.Printf("==> %d installed packages on %s\n", len(recs), sys.Name)
	for _, r := range recs {
		marker := " "
		if r.External {
			marker = "e"
		}
		fmt.Printf("%s %s  %s@%s  %s\n", marker, r.Hash[:7], r.Spec.Name,
			r.Spec.ConcreteVersion(), r.Prefix)
	}
	return nil
}

// dashboardCmd implements `benchpark dashboard [html-file]`: run a
// small result-producing sweep and render the Section 5 dashboard.
func dashboardCmd(args []string) error {
	bp := core.New()
	fmt.Println("==> collecting results (saxpy + stream on cts1 and cloud-c5n)...")
	for _, sysName := range []string{"cts1", "cloud-c5n"} {
		for _, suite := range []string{"saxpy/openmp", "stream/triad"} {
			err := bp.WithScratchSession(suite, sysName, func(sess *core.Session) error {
				_, err := sess.RunAll()
				return err
			})
			if err != nil {
				return err
			}
		}
	}
	fmt.Println()
	fmt.Print(dashboard.Text(bp.Metrics))
	if len(args) > 0 {
		html, err := dashboard.HTML(bp.Metrics)
		if err != nil {
			return err
		}
		if err := os.WriteFile(args[0], []byte(html), 0o644); err != nil {
			return err
		}
		fmt.Printf("\nHTML dashboard written to %s\n", args[0])
	}
	return nil
}

// regressionsCmd implements `benchpark regressions <results.json>
// <benchmark> <fom>`: load a saved metrics database and scan a FOM
// series for regressions.
func regressionsCmd(args []string) error {
	if len(args) != 3 {
		return fmt.Errorf("usage: benchpark regressions <results.json> <benchmark> <fom>")
	}
	data, err := os.ReadFile(args[0])
	if err != nil {
		return err
	}
	db, err := metricsdb.LoadJSON(string(data))
	if err != nil {
		return err
	}
	regs := db.DetectRegressions(metricsdb.Filter{Benchmark: args[1]}, args[2], 4, 1.2)
	if len(regs) == 0 {
		fmt.Printf("no regressions in %s/%s across %d results\n", args[1], args[2], db.Len())
		return nil
	}
	for _, r := range regs {
		fmt.Printf("REGRESSION seq=%d value=%.4g baseline=%.4g ratio=%.2fx\n",
			r.Seq, r.Value, r.Baseline, r.Ratio)
	}
	return nil
}

// archiveCmd implements `benchpark archive <suite> <system> <out.tar.gz>`:
// run the suite and bundle the complete workspace (configs, scripts,
// outputs, results.json) into a shareable archive (Section 5).
func archiveCmd(args []string) error {
	if len(args) != 3 {
		return fmt.Errorf("usage: benchpark archive <suite> <system> <out.tar.gz>")
	}
	return core.New().WithScratchSession(args[0], args[1], func(sess *core.Session) error {
		rep, err := sess.RunAll()
		if err != nil {
			return err
		}
		if err := sess.Workspace.Archive(args[2]); err != nil {
			return err
		}
		fi, err := os.Stat(args[2])
		if err != nil {
			return err
		}
		fmt.Printf("==> %d experiments (%d passed) archived to %s (%d bytes)\n",
			rep.Total, rep.Succeeded, args[2], fi.Size())
		return nil
	})
}

// provisionCmd implements `benchpark provision <name> <instance-type>
// <nodes> [suite]`: spin up an on-demand cloud cluster (Section 7.2)
// and optionally run a suite on it immediately.
func provisionCmd(args []string) error {
	if len(args) < 3 || len(args) > 4 {
		return fmt.Errorf("usage: benchpark provision <name> <instance-type> <nodes> [suite]")
	}
	nodes, err := strconv.Atoi(args[2])
	if err != nil {
		return fmt.Errorf("bad node count %q", args[2])
	}
	sys, err := hpcsim.ProvisionCloudCluster(args[0], args[1], nodes)
	if err != nil {
		return err
	}
	arch, err := sys.Microarch()
	if err != nil {
		return err
	}
	fmt.Printf("==> provisioned %s: %s (detected %s)\n", sys.Name, sys.Description, arch.Name)
	if len(args) < 4 {
		return nil
	}
	return core.New().WithScratchSession(args[3], sys.Name, func(sess *core.Session) error {
		rep, err := sess.RunAll()
		if err != nil {
			return err
		}
		fmt.Printf("==> %s on %s: %d/%d experiments passed\n", args[3], sys.Name, rep.Succeeded, rep.Total)
		return nil
	})
}

// reportCmd implements `benchpark report [out.md] [-full]`: rerun the
// reproduction experiments and emit a paper-vs-measured markdown
// report.
func reportCmd(args []string) error {
	out := ""
	full := false
	for _, a := range args {
		if a == "-full" || a == "--full" {
			full = true
			continue
		}
		out = a
	}
	var w *os.File
	if out == "" {
		w = os.Stdout
	} else {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := core.GenerateReport(w, full); err != nil {
		return err
	}
	if out != "" {
		fmt.Printf("==> report written to %s\n", out)
	}
	return nil
}
