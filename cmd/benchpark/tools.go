package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"repro/internal/concretizer"
	"repro/internal/core"
	"repro/internal/dashboard"
	"repro/internal/hpcsim"
	"repro/internal/install"
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
func findCmd(args []string, opts *execOpts) error {
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
	ctx, cancel := opts.context()
	defer cancel()
	// Demonstrate against the two Section 4 benchmarks.
	for _, s := range []string{"saxpy", "amg2023+caliper"} {
		concrete, err := c.Concretize(spec.MustParse(s))
		if err != nil {
			return err
		}
		if _, err := inst.Install(ctx, concrete, nil); err != nil {
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
func dashboardCmd(args []string, opts *execOpts) error {
	ctx, cancel := opts.context()
	defer cancel()
	bp := core.New()
	fmt.Println("==> collecting results (saxpy + stream on cts1 and cloud-c5n)...")
	for _, sysName := range []string{"cts1", "cloud-c5n"} {
		for _, suite := range []string{"saxpy/openmp", "stream/triad"} {
			err := bp.WithScratchSession(suite, sysName, func(sess *core.Session) error {
				_, _, err := sess.Run(ctx, core.RunOptions{Jobs: opts.jobs})
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

// archiveCmd implements `benchpark archive <suite> <system> <out.tar.gz>`:
// run the suite and bundle the complete workspace (configs, scripts,
// outputs, results.json) into a shareable archive (Section 5).
func archiveCmd(args []string, opts *execOpts) error {
	if len(args) != 3 {
		return fmt.Errorf("usage: benchpark archive <suite> <system> <out.tar.gz>")
	}
	ctx, cancel := opts.context()
	defer cancel()
	return core.New().WithScratchSession(args[0], args[1], func(sess *core.Session) error {
		rep, _, err := sess.Run(ctx, core.RunOptions{Jobs: opts.jobs})
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
func provisionCmd(args []string, opts *execOpts) error {
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
	ctx, cancel := opts.context()
	defer cancel()
	return core.New().WithScratchSession(args[3], sys.Name, func(sess *core.Session) error {
		rep, _, err := sess.Run(ctx, core.RunOptions{Jobs: opts.jobs})
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
func reportCmd(fs *flag.FlagSet, args []string, opts *execOpts) error {
	full := fs.Bool("full", false, "sweep Figure 14 to the paper's 3456 processes")
	args, err := parseAnywhere(fs, args)
	if err != nil {
		return err
	}
	if len(args) > 1 {
		return fmt.Errorf("usage: benchpark report [out.md] [-full]")
	}
	ctx, cancel := opts.context()
	defer cancel()
	if len(args) == 0 {
		return core.GenerateReport(ctx, os.Stdout, *full, opts.jobs)
	}
	f, err := os.Create(args[0])
	if err != nil {
		return err
	}
	err = core.GenerateReport(ctx, f, *full, opts.jobs)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Printf("==> report written to %s\n", args[0])
	return nil
}
