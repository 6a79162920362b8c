package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/metricsdb"
	"repro/internal/resultsd"
	"repro/internal/resultshard"
	"repro/internal/resultstore"
	"repro/internal/telemetry"
)

// serveCmd implements `benchpark serve [--addr A] [--data DIR]
// [--pprof] [--selfmonitor DUR] [--shards N]
// [--shard-queue N] [--shard-slow DUR] [--replica-of URL]
// [--sync-interval DUR]`: run the results federation service in one of
// three modes.
//
//   - Default: one durable resultstore (today's single-node mode).
//   - --shards N (N > 1): N independent stores in DIR/shard-NN behind
//     the deterministic (system, benchmark) router, with bounded ingest
//     queues (--shard-queue). Shards are for separate disks (mount them
//     at DIR/shard-NN): on one device the same load runs slower through
//     four shards than through one store. --shard-slow injects a
//     per-commit delay for fault-injection drills. Both shard flags are
//     refused in the other modes, which would ignore them.
//   - --replica-of URL: a read-only follower replica of either of the
//     above — both serve the /v1/replica endpoints followers pull from,
//     a plain store as a one-shard primary — serving /v1/series,
//     /v1/regressions and /v1/systems from a snapshot-shipped mirror
//     refreshed every --sync-interval.
//
// Every mode serves the operations endpoints /healthz, /readyz,
// /metrics and /debug/ops. --pprof adds the /debug/pprof profile
// handlers, and --selfmonitor starts a loop sampling the service's own
// request latency into the store through the normal ingest path. The process runs until killed; the
// stores' WALs make that safe at any instant.
func serveCmd(fs *flag.FlagSet, args []string, opts *execOpts) error {
	addr := fs.String("addr", "127.0.0.1:8321", "listen address")
	dataDir := fs.String("data", "benchpark-results", "data directory")
	withPprof := fs.Bool("pprof", false, "serve /debug/pprof")
	replicaOf := fs.String("replica-of", "", "follow this primary, read-only")
	var shards, shardQueue int
	var selfmonitor, shardSlow time.Duration
	syncInterval := time.Second
	fs.Func("selfmonitor", "self-sampling interval", above(&selfmonitor, 0, time.ParseDuration))
	fs.Func("shards", "shard count", above(&shards, 0, strconv.Atoi))
	fs.Func("shard-queue", "per-shard ingest queue depth", above(&shardQueue, 0, strconv.Atoi))
	fs.Func("shard-slow", "injected per-commit delay", above(&shardSlow, 0, time.ParseDuration))
	fs.Func("sync-interval", "replica sync period", above(&syncInterval, 0, time.ParseDuration))
	rest, err := parseAnywhere(fs, args)
	switch {
	case err != nil:
		return err
	case len(rest) > 0:
		return fmt.Errorf("serve: unexpected argument %q", rest[0])
	case *replicaOf != "" && shards > 0:
		return fmt.Errorf("serve: --replica-of and --shards are mutually exclusive (a replica mirrors the primary's topology)")
	case shards < 2 && (shardQueue > 0 || shardSlow > 0):
		return fmt.Errorf("serve: --shard-queue and --shard-slow need --shards N with N > 1 (one store has no shard queue)")
	}

	// The server gets its own wall-clock tracer so request metrics
	// accrue for the life of the process; --trace-out additionally
	// dumps them, with the last requests' spans the tracer keeps, when
	// the listener stops.
	tracer := telemetry.New(nil)
	var sopts []resultsd.Option
	if *withPprof {
		sopts = append(sopts, resultsd.WithPprof())
	}

	var backend resultsd.Backend
	mode := ""
	switch {
	case *replicaOf != "":
		f := resultshard.NewFollower()
		src := resultsd.NewReplicaClient(*replicaOf)
		fctx, fcancel := context.WithCancel(context.Background())
		defer fcancel()
		go resultsd.RunFollower(fctx, f, src, syncInterval, tracer)
		backend = f
		mode = fmt.Sprintf("replica of %s (sync every %s)", *replicaOf, syncInterval)
	case shards > 1:
		router, err := resultshard.Open(*dataDir, resultshard.Options{
			Shards: shards,
			Store:  resultstore.Options{QueueDepth: shardQueue, CommitDelay: shardSlow},
		})
		if err != nil {
			return err
		}
		defer router.Close()
		backend = router
		mode = fmt.Sprintf("%d shards (data %s)", shards, *dataDir)
	default:
		store, err := resultstore.Open(*dataDir, resultstore.Options{})
		if err != nil {
			return err
		}
		defer store.Close()
		backend = store
		mode = fmt.Sprintf("single store (data %s)", *dataDir)
	}

	srv := resultsd.New(backend, tracer, sopts...)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Printf("==> resultsd serving %d results on http://%s, %s\n",
		backend.Len(), ln.Addr(), mode)
	if selfmonitor > 0 {
		mon := resultsd.NewSelfMonitor(resultsd.NewClient("http://"+ln.Addr().String()), srv)
		mctx, mcancel := context.WithCancel(context.Background())
		defer mcancel()
		go mon.Run(mctx, selfmonitor)
		fmt.Printf("==> selfmonitor sampling every %s\n", selfmonitor)
	}
	serveErr := http.Serve(ln, srv.Handler())
	if opts.traceOut != "" {
		if err := writeTrace(opts.traceOut, tracer.Snapshot()); err != nil {
			return err
		}
	}
	return serveErr
}

// pushCmd implements `benchpark push <suite> <system> <server-url>`:
// run the suite in a scratch workspace and push the engine report's
// results to a resultsd endpoint through Session.Push, as the CI
// pipelines do. The ingest key is derived from the result content
// alone, so re-pushing an identical run is a server-side no-op. Under
// --trace-out, the push itself is a "push:cli" span in the run's
// trace, and the client propagates the trace context to the server, so
// the stored results carry this run's trace ID as provenance.
func pushCmd(args []string, opts *execOpts) (err error) {
	if len(args) != 3 {
		return fmt.Errorf("usage: benchpark push <suite> <system> <server-url>")
	}
	suite, system, serverURL := args[0], args[1], args[2]
	ctx, cancel := opts.context()
	defer cancel()
	ctx, err = opts.instrument(ctx)
	if err != nil {
		return err
	}
	// The trace is written on the way out, AFTER the push, so the
	// push:cli span (and its propagated server join) is part of it.
	defer func() {
		if ferr := opts.finish(); ferr != nil && err == nil {
			err = ferr
		}
	}()
	return core.New().WithScratchSession(suite, system, func(sess *core.Session) error {
		rep, erep, err := sess.Run(ctx, core.RunOptions{Jobs: opts.jobs})
		if err != nil {
			return err
		}
		key, resp, err := sess.Push(ctx, resultsd.NewClient(serverURL), "cli",
			"cli-"+sess.Suite+"-"+system, "", rep, erep)
		if err != nil {
			return err
		}
		switch {
		case resp == nil:
			return fmt.Errorf("push: %s on %s produced no publishable results (%d experiments, %d failed)",
				suite, system, rep.Total, rep.Failed)
		case resp.Duplicate:
			fmt.Printf("==> server already holds this batch (key %s); nothing pushed\n", key)
		default:
			fmt.Printf("==> pushed %d results from %s@%s (key %s)\n", resp.Accepted, suite, system, key)
		}
		if rep.Failed > 0 {
			fmt.Printf("==> note: %d of %d experiments failed and were not pushed\n", rep.Failed, rep.Total)
		}
		return nil
	})
}

// historyCmd implements `benchpark history <server-url> <benchmark>
// <fom> [--system S] [--workload W] [--experiment E] [--window N]
// [--threshold T]`: fetch a FOM's series and the server-side
// regression scan, and print them as one annotated table — the
// "introspection into benchmark performance across systems and time"
// view of Section 5, over the network.
func historyCmd(fs *flag.FlagSet, args []string, opts *execOpts) error {
	var f metricsdb.Filter
	fs.StringVar(&f.System, "system", "", "only results from this system")
	fs.StringVar(&f.Workload, "workload", "", "only results of this workload")
	fs.StringVar(&f.Experiment, "experiment", "", "only results of this experiment")
	window, threshold := 0, 0.0
	fs.Func("window", "rolling-median window", above(&window, 1, strconv.Atoi))
	fs.Func("threshold", "regression ratio", above(&threshold, 0, func(v string) (float64, error) {
		return strconv.ParseFloat(v, 64)
	}))
	args, err := parseAnywhere(fs, args)
	if err != nil {
		return err
	}
	if len(args) != 3 {
		return fmt.Errorf("usage: benchpark history <server-url> <benchmark> <fom> [--system S] [--workload W] [--experiment E] [--window N] [--threshold T]")
	}
	serverURL, benchmark, fom := args[0], args[1], args[2]
	f.Benchmark = benchmark
	ctx, cancel := opts.context()
	defer cancel()
	client := resultsd.NewClient(serverURL)
	points, err := client.Series(ctx, f, fom)
	if err != nil {
		return err
	}
	if len(points) == 0 {
		fmt.Printf("no results for %s/%s on the server\n", benchmark, fom)
		return nil
	}
	regs, err := client.Regressions(ctx, f, fom, window, threshold)
	if err != nil {
		return err
	}
	flagged := make(map[int]resultsd.RegressionRecord, len(regs))
	for _, r := range regs {
		flagged[r.Seq] = r
	}
	fmt.Printf("==> %s/%s: %d samples, %d regressions\n", benchmark, fom, len(points), len(regs))
	fmt.Printf("%6s %14s\n", "seq", "value")
	for _, p := range points {
		line := fmt.Sprintf("%6d %14.6g", p.Seq, p.Value)
		if r, ok := flagged[p.Seq]; ok {
			line += fmt.Sprintf("   <-- REGRESSION %.2fx vs baseline %.6g", r.Ratio, r.Baseline)
		}
		fmt.Println(line)
	}
	return nil
}
