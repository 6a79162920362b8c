// Command benchpark is the Benchpark driver of Figure 1c:
//
//	benchpark <experiment-suite> <system> <workspace-dir>
//
// runs the full continuous-benchmarking workflow: generate the
// workspace, install software through the Spack layer, generate and
// execute the experiments under the system's batch scheduler, and
// analyze figures of merit.
//
// Additional subcommands:
//
//	benchpark suites              list experiment suites
//	benchpark systems             list system profiles
//	benchpark components          print Table 1 (component matrix)
//	benchpark figure14 [p ...]    reproduce the Figure 14 Extra-P model
//	benchpark ci-demo             run the Figure 6 automation loop
//	benchpark serve               serve the results federation API
//	benchpark push                run a suite and push results to a server
//	benchpark history             query a server for a FOM's history
//	benchpark loadtest            simulate a federated runner fleet
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/cachekey"
	"repro/internal/core"
	"repro/internal/dashboard"
	"repro/internal/hpcsim"
	"repro/internal/ramble"
	"repro/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchpark:", err)
		os.Exit(1)
	}
}

// execOpts carries the global engine flags: worker-pool width, the
// overall deadline plumbed into the engine's context, and the
// observability switches (--trace-out, --log-level).
type execOpts struct {
	jobs     int
	timeout  time.Duration
	traceOut string
	logLevel string
	cacheDir string // durable content-addressed cache (--cache-dir)

	tracer *telemetry.Tracer // created by instrument when traceOut is set
}

// attachCache wires the incremental-pipeline cache into a deployment:
// --cache-dir opens (or creates) the durable store so concretization,
// built binaries and experiment outcomes persist across invocations.
// Without it nothing outlives the invocation.
func (o *execOpts) attachCache(bp *core.Benchpark) error {
	if o.cacheDir == "" {
		return nil
	}
	st, err := cachekey.Open(o.cacheDir)
	if err != nil {
		return err
	}
	bp.UseCache(st)
	return nil
}

// context returns the context the engine runs under.
func (o *execOpts) context() (context.Context, context.CancelFunc) {
	if o.timeout > 0 {
		return context.WithTimeout(context.Background(), o.timeout)
	}
	return context.WithCancel(context.Background())
}

// instrument derives the run's observability context: a wall-clock
// tracer when --trace-out was given, a stderr logger when --log-level
// was.
func (o *execOpts) instrument(ctx context.Context) (context.Context, error) {
	if o.traceOut != "" {
		o.tracer = telemetry.New(nil)
		ctx = telemetry.WithTracer(ctx, o.tracer)
	}
	if o.logLevel != "" {
		lvl, err := telemetry.ParseLevel(o.logLevel)
		if err != nil {
			return ctx, err
		}
		ctx = telemetry.WithLogger(ctx, telemetry.NewLogger(os.Stderr, lvl))
	}
	return ctx, nil
}

// finish writes the collected trace to --trace-out; a no-op when
// tracing was off.
func (o *execOpts) finish() error {
	if o.tracer == nil {
		return nil
	}
	if err := writeTrace(o.traceOut, o.tracer.Snapshot()); err != nil {
		return err
	}
	fmt.Printf("==> trace written to %s\n", o.traceOut)
	return nil
}

// writeTrace exports the snapshot in the format implied by the file
// extension: .cali is a Caliper profile (ready for the caliper →
// thicket → extrap path), .prom/.txt is Prometheus text exposition,
// anything else the native JSON trace.
func writeTrace(path string, tr *telemetry.Trace) error {
	var out string
	var err error
	switch {
	case strings.HasSuffix(path, ".cali"):
		out, err = tr.CaliperProfile().JSON()
	case strings.HasSuffix(path, ".prom"), strings.HasSuffix(path, ".txt"):
		out = tr.PrometheusText()
	default:
		out, err = tr.JSON()
	}
	if err != nil {
		return err
	}
	return os.WriteFile(path, []byte(out), 0o644)
}

// flagSet returns a flag set holding the five global flags, each
// validated as it is parsed and stored in o. A parse error comes back
// from Parse as one line; nothing is printed.
func (o *execOpts) flagSet(name string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	jobs := above(&o.jobs, 0, strconv.Atoi)
	fs.Func("jobs", "engine worker-pool width", jobs)
	fs.Func("j", "engine worker-pool width", jobs)
	fs.Func("timeout", "overall deadline", above(&o.timeout, 0, time.ParseDuration))
	fs.StringVar(&o.traceOut, "trace-out", o.traceOut, "telemetry trace file")
	fs.Func("log-level", "stderr log level", func(v string) error {
		o.logLevel = v
		_, err := telemetry.ParseLevel(v)
		return err
	})
	fs.StringVar(&o.cacheDir, "cache-dir", o.cacheDir, "durable cache directory")
	return fs
}

// above returns a flag.Func setter that stores a parsed value in p only
// if it is greater than lo, so an explicit zero is refused where the
// zero value means "not set".
func above[T int | float64 | time.Duration](p *T, lo T, parse func(string) (T, error)) func(string) error {
	return func(v string) error {
		x, err := parse(v)
		if err != nil {
			return err
		}
		if x <= lo {
			return fmt.Errorf("must be greater than %v", lo)
		}
		*p = x
		return nil
	}
}

// parseAnywhere parses fs's flags wherever they stand among args and
// returns the positional arguments in order.
func parseAnywhere(fs *flag.FlagSet, args []string) ([]string, error) {
	var pos []string
	for {
		if err := fs.Parse(args); err != nil {
			return nil, err
		}
		if fs.NArg() == 0 {
			return pos, nil
		}
		pos = append(pos, fs.Arg(0))
		args = fs.Args()[1:]
	}
}

// run parses the global flags before the subcommand, then hands the
// rest to the subcommand's own flag set, which holds the global flags
// too, so they are accepted on either side of it.
func run(args []string) (err error) {
	defer func() {
		if errors.Is(err, flag.ErrHelp) { // -h or --help anywhere
			usage()
			err = nil
		}
	}()
	opts := execOpts{jobs: runtime.NumCPU()}
	fs := opts.flagSet("benchpark")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		usage()
		return nil
	}
	cmd := fs.Arg(0)
	fs, args = opts.flagSet(cmd), fs.Args()[1:]
	switch cmd {
	case "figure14":
		return figure14(fs, args, &opts)
	case "report":
		return reportCmd(fs, args, &opts)
	case "serve":
		return serveCmd(fs, args, &opts)
	case "history":
		return historyCmd(fs, args, &opts)
	case "loadtest":
		return loadtestCmd(fs, args, &opts)
	case "spec": // in spec syntax "-v" disables variant v: flags go first
		if err := fs.Parse(args); err != nil {
			return err
		}
		return specCmd(fs.Args())
	}
	if args, err = parseAnywhere(fs, args); err != nil {
		return err
	}
	switch cmd {
	case "suites":
		for _, s := range core.ExperimentTemplates() {
			fmt.Println(s)
		}
		return nil
	case "systems":
		for _, name := range hpcsim.Names() {
			sys, err := hpcsim.Get(name)
			if err != nil {
				return err
			}
			arch, err := sys.Microarch()
			if err != nil {
				return err
			}
			fmt.Printf("%-16s %-6s %5d nodes × %2d cores  %-10s %-9s %s\n",
				sys.Name, sys.Site, sys.Nodes, sys.Node.Cores(), arch.Name,
				sys.Scheduler, sys.Description)
		}
		return nil
	case "components":
		fmt.Print(core.ComponentTable())
		return nil
	case "ci-demo":
		return ciDemo(&opts)
	case "run":
		if len(args) != 3 {
			usage()
			return fmt.Errorf("expected: benchpark run <suite> <system> <workspace-dir>")
		}
		return runSuite(args[0], args[1], args[2], &opts)
	case "find":
		return findCmd(args, &opts)
	case "dashboard":
		return dashboardCmd(args, &opts)
	case "archive":
		return archiveCmd(args, &opts)
	case "provision":
		return provisionCmd(args, &opts)
	case "push":
		return pushCmd(args, &opts)
	case "help":
		usage()
		return nil
	}
	if len(args) != 2 {
		usage()
		return fmt.Errorf("expected: benchpark <suite> <system> <workspace-dir>")
	}
	return runSuite(cmd, args[0], args[1], &opts)
}

func usage() {
	fmt.Println(`usage:
  benchpark [run] <experiment-suite> <system> <workspace-dir>
  benchpark suites | systems | components | ci-demo
  benchpark figure14 [p ...] [-svg F]  reproduce the Figure 14 model
  benchpark spec <system> <spec>       concretize and print the DAG
  benchpark find <system> [constraint] list installed packages
  benchpark dashboard [out.html]       render the results dashboard
  benchpark archive <suite> <system> <out.tar.gz>
  benchpark provision <name> <instance-type> <nodes> [suite]
  benchpark report [out.md] [-full]
  benchpark serve [--addr A] [--data DIR] [--pprof]
            [--selfmonitor DUR] [--shards N] [--shard-queue N]
            [--replica-of URL] [--sync-interval DUR]
                                       run the results federation service
                                       (ops endpoints /healthz /readyz
                                       /metrics /debug/ops always on);
                                       --pprof adds /debug/pprof,
                                       --selfmonitor samples the service's
                                       own latency into its store,
                                       --shards N splits the store into
                                       DIR/shard-NN (bounded queues via
                                       --shard-queue); shards are for
                                       separate disks — mount them there —
                                       and slower than one store on one,
                                       --replica-of runs a read-only
                                       snapshot-shipped follower of any
                                       other serve, sharded or plain
  benchpark push <suite> <system> <server-url>
                                       run a suite and push its results
  benchpark history <server-url> <benchmark> <fom> [--system S]
            [--workload W] [--experiment E] [--window N]
            [--threshold T]            print a FOM series + regressions
  benchpark loadtest <server-url> [--runners N] [--batches N]
            [--results N] [--key-prefix P]
                                       simulate a federated runner fleet,
                                       report throughput + latency, fail
                                       if any batch was not acknowledged

Flags go anywhere: before or after the subcommand and its arguments
(spec takes its flags before the system), as -flag, --flag, --flag=v.
global flags:
  --jobs N, -j N   engine worker-pool width (default: number of CPUs)
  --timeout DUR    overall deadline for the run (e.g. 30s, 5m)
  --trace-out F    write the run's telemetry trace to F; the extension
                   picks the format (.json trace, .cali Caliper
                   profile, .prom Prometheus text)
  --log-level L    structured logs on stderr (debug|info|warn|error)
  --cache-dir D    durable content-addressed cache: concretization,
                   built binaries and experiment outcomes persist in D
                   and warm re-runs replay instead of re-executing`)
}

func runSuite(suite, system, dir string, opts *execOpts) error {
	bp := core.New()
	if err := opts.attachCache(bp); err != nil {
		return err
	}
	sess, err := bp.Setup(suite, system, dir)
	if err != nil {
		return err
	}
	ctx, cancel := opts.context()
	defer cancel()
	ctx, err = opts.instrument(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("==> workspace %s for %s on %s (%d workers)\n", dir, suite, system, opts.jobs)
	rep, erep, err := sess.Run(ctx, core.RunOptions{Jobs: opts.jobs})
	// The workspace is what the user asked for: keep it, a failed run's
	// partial one included.
	if serr := sess.Workspace.Save(); err == nil {
		err = serr
	}
	if ferr := opts.finish(); ferr != nil && err == nil {
		err = ferr
	}
	if err != nil {
		return err
	}
	fmt.Printf("==> %d experiments: %d succeeded, %d failed\n", rep.Total, rep.Succeeded, rep.Failed)
	for _, e := range rep.Experiments {
		fmt.Printf("  %-40s %-9s", e.Name, e.Status)
		if e.Status == ramble.Succeeded {
			names := make([]string, 0, len(e.FOMs))
			for k := range e.FOMs {
				if k != "success" {
					names = append(names, k)
				}
			}
			sort.Strings(names)
			for _, k := range names {
				fmt.Printf("  %s=%s", k, e.FOMs[k])
			}
		} else {
			fmt.Printf("  %s", e.FailMsg)
		}
		fmt.Println()
	}
	fmt.Printf("==> batch makespan %.1fs (simulated), utilization %.1f%%\n",
		sess.Scheduler.Makespan(), 100*sess.Scheduler.Utilization())
	if erep != nil {
		for _, cs := range erep.Cache {
			fmt.Printf("==> cache[%s]: hits=%d misses=%d bytes=%d\n",
				cs.Layer, cs.Hits, cs.Misses, cs.Bytes)
		}
	}
	if opts.tracer != nil && erep != nil {
		if s := erep.TimingSummary(); s != "" {
			fmt.Print("==> stage timings\n" + s)
		}
	}
	if rep.Failed > 0 {
		return &core.ExperimentFailuresError{Report: erep}
	}
	return nil
}

func figure14(fs *flag.FlagSet, args []string, opts *execOpts) error {
	svgOut := fs.String("svg", "", "also write the plot as SVG to this file")
	args, err := parseAnywhere(fs, args)
	if err != nil {
		return err
	}
	var scales []int
	for _, a := range args {
		n, err := strconv.Atoi(a)
		if err != nil {
			return fmt.Errorf("bad scale %q", a)
		}
		scales = append(scales, n)
	}
	study, err := core.Figure14Study(scales)
	if err != nil {
		return err
	}
	bp := core.New()
	if err := opts.attachCache(bp); err != nil {
		return err
	}
	fmt.Printf("==> MPI_Bcast on %s: scales %v (this sweeps a real %d-rank simulation)\n",
		study.System.Name, study.Scales, study.Scales[len(study.Scales)-1])
	ctx, cancel := opts.context()
	defer cancel()
	ctx, err = opts.instrument(ctx)
	if err != nil {
		return err
	}
	res, err := study.Run(ctx, bp, opts.jobs)
	if ferr := opts.finish(); ferr != nil && err == nil {
		err = ferr
	}
	if err != nil {
		return err
	}
	fmt.Println()
	fmt.Print(core.RenderFigure14(res))
	fmt.Println("\nmeasurements:")
	for _, m := range res.Measurements {
		fmt.Printf("  p=%6.0f  total=%10.3f s   model=%10.3f s\n", m.P, m.Value, res.Model.Eval(m.P))
	}
	if *svgOut != "" {
		svg := dashboard.ScalingSVG("CTS Extra-P Model — MPI_Bcast total time", res.Measurements, res.Model)
		if err := os.WriteFile(*svgOut, []byte(svg), 0o644); err != nil {
			return err
		}
		fmt.Printf("\nSVG plot written to %s\n", *svgOut)
	}
	return nil
}

func ciDemo(opts *execOpts) error {
	bp := core.New()
	dir, err := os.MkdirTemp("", "benchpark-ci-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	auto, err := core.NewAutomation(bp, dir)
	if err != nil {
		return err
	}
	fmt.Println("==> contributor 'jens' opens a PR; site admin 'olga' approves")
	ctx, cancel := opts.context()
	defer cancel()
	ctx, err = opts.instrument(ctx)
	if err != nil {
		return err
	}
	res, err := auto.SubmitContribution(ctx, "jens", "add RIKEN notes",
		map[string]string{"docs/riken.md": "results"}, "olga")
	if ferr := opts.finish(); ferr != nil && err == nil {
		err = ferr
	}
	if err != nil {
		return err
	}
	fmt.Printf("==> pipeline #%d: %s\n", res.Pipeline.ID, res.Pipeline.Status())
	for _, j := range res.Pipeline.Jobs {
		fmt.Printf("  job %-14s %-8s ran-as=%s\n", j.Name, j.Status, j.RunAs)
		if j.Log != "" { // every log line, indented under its job
			fmt.Println("      " + strings.ReplaceAll(strings.TrimSuffix(j.Log, "\n"), "\n", "\n      "))
		}
		fmt.Println()
	}
	fmt.Printf("==> PR state: %s; %d benchmark results recorded\n", res.PR.State, len(res.Results))
	return nil
}
