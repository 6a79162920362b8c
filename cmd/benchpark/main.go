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
	"fmt"
	"os"
	"runtime"
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
	noCache  bool   // disable all caching, including the in-memory memo

	tracer *telemetry.Tracer // created by instrument when traceOut is set
}

// attachCache wires the incremental-pipeline cache into a deployment:
// --cache-dir opens (or creates) the durable store so concretization,
// built binaries and experiment outcomes persist across invocations;
// --no-cache switches every cache layer off, including the in-memory
// concretization memo.
func (o *execOpts) attachCache(bp *core.Benchpark) error {
	if o.noCache {
		bp.Memo = nil
		return nil
	}
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

// parseGlobalFlags strips the global flags (accepted anywhere on the
// command line, before or after the subcommand, in both "--flag value"
// and "--flag=value" forms) and returns the remaining arguments.
func parseGlobalFlags(args []string) (execOpts, []string, error) {
	opts := execOpts{jobs: runtime.NumCPU()}
	// Normalize --flag=value into two tokens.
	var split []string
	for _, a := range args {
		if strings.HasPrefix(a, "-") {
			if i := strings.IndexByte(a, '='); i > 0 {
				split = append(split, a[:i], a[i+1:])
				continue
			}
		}
		split = append(split, a)
	}
	args = split
	var rest []string
	for i := 0; i < len(args); i++ {
		switch args[i] {
		case "--jobs", "-jobs", "-j":
			if i+1 >= len(args) {
				return opts, nil, fmt.Errorf("%s needs a worker count", args[i])
			}
			n, err := strconv.Atoi(args[i+1])
			if err != nil || n < 1 {
				return opts, nil, fmt.Errorf("bad worker count %q", args[i+1])
			}
			opts.jobs = n
			i++
		case "--timeout", "-timeout":
			if i+1 >= len(args) {
				return opts, nil, fmt.Errorf("%s needs a duration (e.g. 30s, 5m)", args[i])
			}
			d, err := time.ParseDuration(args[i+1])
			if err != nil || d <= 0 {
				return opts, nil, fmt.Errorf("bad timeout %q", args[i+1])
			}
			opts.timeout = d
			i++
		case "--trace-out", "-trace-out":
			if i+1 >= len(args) {
				return opts, nil, fmt.Errorf("%s needs a file path", args[i])
			}
			opts.traceOut = args[i+1]
			i++
		case "--log-level", "-log-level":
			if i+1 >= len(args) {
				return opts, nil, fmt.Errorf("%s needs a level (debug|info|warn|error)", args[i])
			}
			if _, err := telemetry.ParseLevel(args[i+1]); err != nil {
				return opts, nil, err
			}
			opts.logLevel = args[i+1]
			i++
		case "--cache-dir", "-cache-dir":
			if i+1 >= len(args) {
				return opts, nil, fmt.Errorf("%s needs a directory", args[i])
			}
			opts.cacheDir = args[i+1]
			i++
		case "--no-cache", "-no-cache":
			opts.noCache = true
		default:
			rest = append(rest, args[i])
		}
	}
	return opts, rest, nil
}

func run(rawArgs []string) error {
	opts, args, err := parseGlobalFlags(rawArgs)
	if err != nil {
		return err
	}
	if len(args) == 0 {
		usage()
		return nil
	}
	switch args[0] {
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
	case "figure14":
		return figure14(args[1:], &opts)
	case "ci-demo":
		return ciDemo(&opts)
	case "run":
		if len(args) != 4 {
			usage()
			return fmt.Errorf("expected: benchpark run <suite> <system> <workspace-dir>")
		}
		return runSuite(args[1], args[2], args[3], &opts)
	case "spec":
		return specCmd(args[1:])
	case "find":
		return findCmd(args[1:])
	case "dashboard":
		return dashboardCmd(args[1:])
	case "regressions":
		return regressionsCmd(args[1:])
	case "archive":
		return archiveCmd(args[1:])
	case "provision":
		return provisionCmd(args[1:])
	case "report":
		return reportCmd(args[1:])
	case "serve":
		return serveCmd(args[1:], &opts)
	case "push":
		return pushCmd(args[1:], &opts)
	case "history":
		return historyCmd(args[1:], &opts)
	case "loadtest":
		return loadtestCmd(args[1:], &opts)
	case "help", "-h", "--help":
		usage()
		return nil
	}
	if len(args) != 3 {
		usage()
		return fmt.Errorf("expected: benchpark <suite> <system> <workspace-dir>")
	}
	return runSuite(args[0], args[1], args[2], &opts)
}

func usage() {
	fmt.Println(`usage:
  benchpark [run] <experiment-suite> <system> <workspace-dir>
  benchpark suites | systems | components | figure14 [p ...] | ci-demo
  benchpark spec <system> <spec>       concretize and print the DAG
  benchpark find <system> [constraint] list installed packages
  benchpark dashboard [out.html]       render the results dashboard
  benchpark regressions <json> <bench> <fom>
  benchpark archive <suite> <system> <out.tar.gz>
  benchpark provision <name> <instance-type> <nodes> [suite]
  benchpark report [out.md] [-full]
  benchpark serve [--addr A] [--data DIR] [--metrics] [--pprof]
            [--selfmonitor DUR] [--shards N] [--shard-queue N]
            [--shard-slow DUR] [--replica-of URL] [--sync-interval DUR]
                                       run the results federation service;
                                       --metrics adds /metrics + /debug/ops,
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
            [--window N] [--threshold T] print a FOM series + regressions
  benchpark loadtest <server-url> [--runners N] [--batches N]
            [--results N] [--out FILE] simulate a federated runner fleet
                                       and report throughput + latency

global flags (accepted anywhere, --flag value or --flag=value):
  --jobs N         engine worker-pool width (default: number of CPUs)
  --timeout DUR    overall deadline for the run (e.g. 30s, 5m)
  --trace-out F    write the run's telemetry trace to F; the extension
                   picks the format (.json trace, .cali Caliper
                   profile, .prom Prometheus text)
  --log-level L    structured logs on stderr (debug|info|warn|error)
  --cache-dir D    durable content-addressed cache: concretization,
                   built binaries and experiment outcomes persist in D
                   and warm re-runs replay instead of re-executing
  --no-cache       disable every cache layer for this invocation`)
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
	bp.Cache.Instrument(opts.tracer.Metrics())
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
			for _, k := range []string{"saxpy_time", "fom", "total_time", "triad_bw"} {
				if v, ok := e.FOMs[k]; ok {
					fmt.Printf("  %s=%s", k, v)
				}
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

func figure14(args []string, opts *execOpts) error {
	var scales []int
	svgOut := ""
	for i := 0; i < len(args); i++ {
		a := args[i]
		if a == "-svg" || a == "--svg" {
			if i+1 >= len(args) {
				return fmt.Errorf("-svg needs a file path")
			}
			svgOut = args[i+1]
			i++
			continue
		}
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
	fmt.Printf("==> MPI_Bcast on %s: scales %v (this sweeps a real %d-rank simulation)\n",
		study.System.Name, study.Scales, study.Scales[len(study.Scales)-1])
	ctx, cancel := opts.context()
	defer cancel()
	ctx, err = opts.instrument(ctx)
	if err != nil {
		return err
	}
	res, err := study.RunContext(ctx, core.New(), opts.jobs)
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
	if svgOut != "" {
		svg := dashboard.ScalingSVG("CTS Extra-P Model — MPI_Bcast total time", res.Measurements, res.Model)
		if err := os.WriteFile(svgOut, []byte(svg), 0o644); err != nil {
			return err
		}
		fmt.Printf("\nSVG plot written to %s\n", svgOut)
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
	bp.Cache.Instrument(opts.tracer.Metrics())
	res, err := auto.SubmitContributionContext(ctx, "jens", "add RIKEN notes",
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
