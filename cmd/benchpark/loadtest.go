package main

import (
	"context"
	"flag"
	"fmt"
	"strconv"

	"repro/internal/loadgen"
	"repro/internal/metricsdb"
	"repro/internal/resultsd"
)

// loadtestCmd implements `benchpark loadtest <server-url> [--runners N]
// [--batches N] [--results N] [--key-prefix P]`: simulate a federated
// fleet of CI runners pushing deterministic result batches at a
// resultsd endpoint (single-store, sharded primary, or — to demonstrate
// the read-only contract — a replica) and report throughput, latency
// percentiles and the overload/error taxonomy. It fails when any batch
// was not acknowledged: an error or an overload that outlived the
// client's retries.
func loadtestCmd(fs *flag.FlagSet, args []string, opts *execOpts) error {
	var cfg loadgen.Config
	fs.Func("runners", "simulated runners", above(&cfg.Runners, 0, strconv.Atoi))
	fs.Func("batches", "batches per runner", above(&cfg.BatchesPerRunner, 0, strconv.Atoi))
	fs.Func("results", "results per batch", above(&cfg.ResultsPerBatch, 0, strconv.Atoi))
	fs.StringVar(&cfg.KeyPrefix, "key-prefix", "", "ingest-key prefix")
	args, err := parseAnywhere(fs, args)
	if err != nil {
		return err
	}
	if len(args) != 1 {
		return fmt.Errorf("usage: benchpark loadtest <server-url> [--runners N] [--batches N] [--results N] [--key-prefix P]")
	}
	serverURL := args[0]
	ctx, cancel := opts.context()
	defer cancel()

	client := resultsd.NewClient(serverURL)
	pusher := loadgen.PushFunc(func(ctx context.Context, key string, results []metricsdb.Result) (bool, error) {
		resp, err := client.Push(ctx, key, results)
		if err != nil {
			return false, err
		}
		return resp.Duplicate, nil
	})

	rep, err := loadgen.Run(ctx, cfg, pusher)
	if err != nil {
		return err
	}
	fmt.Printf("==> loadtest against %s: %d runners x %d batches x %d results in %.2fs\n",
		serverURL, rep.Runners, rep.BatchesPerRunner, rep.ResultsPerBatch, rep.ElapsedSeconds)
	fmt.Printf("    pushed %d batches (%d results), %d duplicates, %d overloads, %d errors\n",
		rep.BatchesPushed, rep.ResultsPushed, rep.Duplicates, rep.Overloads, rep.Errors)
	fmt.Printf("    throughput %.1f batches/s (%.1f results/s); latency p50 %.2fms p90 %.2fms p99 %.2fms max %.2fms\n",
		rep.BatchesPerSecond, rep.ResultsPerSecond, rep.P50Ms, rep.P90Ms, rep.P99Ms, rep.MaxMs)
	if rep.FirstError != "" {
		fmt.Printf("    first error: %s\n", rep.FirstError)
	}
	if lost := rep.Errors + rep.Overloads; lost > 0 {
		return fmt.Errorf("loadtest: %d of %d batches were not acknowledged", lost, rep.Runners*rep.BatchesPerRunner)
	}
	return nil
}
