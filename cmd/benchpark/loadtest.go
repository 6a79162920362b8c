package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"time"

	"repro/internal/loadgen"
	"repro/internal/metricsdb"
	"repro/internal/resultsd"
)

// loadtestCmd implements `benchpark loadtest <server-url> [--runners N]
// [--batches N] [--results N] [--key-prefix P] [--out FILE]`: simulate
// a federated fleet of CI runners pushing deterministic result batches
// at a resultsd endpoint (single-store, sharded primary, or — to
// demonstrate the read-only contract — a replica) and report
// throughput, latency percentiles and the overload/error taxonomy.
// --out writes the report as JSON.
func loadtestCmd(args []string, opts *execOpts) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: benchpark loadtest <server-url> [--runners N] [--batches N] [--results N] [--key-prefix P] [--out FILE]")
	}
	serverURL := args[0]
	cfg := loadgen.Config{}
	out := ""
	rest := args[1:]
	for i := 0; i < len(rest); i++ {
		need := func() (string, error) {
			if i+1 >= len(rest) {
				return "", fmt.Errorf("%s needs a value", rest[i])
			}
			i++
			return rest[i], nil
		}
		needInt := func() (int, error) {
			v, err := need()
			if err != nil {
				return 0, err
			}
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				return 0, fmt.Errorf("bad value %q for %s", v, rest[i-1])
			}
			return n, nil
		}
		var err error
		switch rest[i] {
		case "--runners", "-runners":
			cfg.Runners, err = needInt()
		case "--batches", "-batches":
			cfg.BatchesPerRunner, err = needInt()
		case "--results", "-results":
			cfg.ResultsPerBatch, err = needInt()
		case "--key-prefix", "-key-prefix":
			cfg.KeyPrefix, err = need()
		case "--out", "-out":
			out, err = need()
		default:
			return fmt.Errorf("loadtest: unknown argument %q", rest[i])
		}
		if err != nil {
			return err
		}
	}
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

	start := time.Now()
	rep, err := loadgen.Run(ctx, cfg, pusher)
	if err != nil {
		return err
	}
	fmt.Printf("==> loadtest against %s: %d runners x %d batches x %d results in %.2fs\n",
		serverURL, rep.Runners, rep.BatchesPerRunner, rep.ResultsPerBatch, time.Since(start).Seconds())
	fmt.Printf("    pushed %d batches (%d results), %d duplicates, %d overloads, %d errors\n",
		rep.BatchesPushed, rep.ResultsPushed, rep.Duplicates, rep.Overloads, rep.Errors)
	fmt.Printf("    throughput %.1f batches/s (%.1f results/s); latency p50 %.2fms p90 %.2fms p99 %.2fms max %.2fms\n",
		rep.BatchesPerSecond, rep.ResultsPerSecond, rep.P50Ms, rep.P90Ms, rep.P99Ms, rep.MaxMs)
	if rep.FirstError != "" {
		fmt.Printf("    first error: %s\n", rep.FirstError)
	}
	if out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("==> report written to %s\n", out)
	}
	return nil
}
