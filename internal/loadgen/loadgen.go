// Package loadgen simulates a federated fleet of CI runners pushing
// benchmark results at a resultsd endpoint — the load side of the
// paper's collaborative continuous-benchmarking picture, where many
// sites' runners concurrently publish into one shared results
// service. It measures what the service side cannot see from inside:
// end-to-end push latency percentiles, sustained throughput, and how
// often the fleet was told to back off (overloads) versus actually
// failed.
//
// Batch content is fully deterministic in (runner, batch) — re-running
// the same Config replays the same ingest keys, so a repeated loadtest
// against a warm store measures the duplicate/idempotency path rather
// than double-counting results.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/metricsdb"
	"repro/internal/resultshard"
)

// Pusher is the slice of the resultsd client the generator drives.
// *resultsd.Client satisfies it; tests wire in-process fakes.
type Pusher interface {
	// Push ingests one idempotent batch; duplicate reports whether the
	// server had already applied this key.
	Push(ctx context.Context, key string, results []metricsdb.Result) (duplicate bool, err error)
}

// PushFunc adapts a function to Pusher.
type PushFunc func(ctx context.Context, key string, results []metricsdb.Result) (bool, error)

// Push implements Pusher.
func (f PushFunc) Push(ctx context.Context, key string, results []metricsdb.Result) (bool, error) {
	return f(ctx, key, results)
}

// Config shapes the simulated fleet. Zero values take the defaults
// noted on each field.
type Config struct {
	// Runners is the number of concurrent simulated CI runners
	// (default 100).
	Runners int
	// BatchesPerRunner is how many batches each runner pushes
	// (default 10).
	BatchesPerRunner int
	// ResultsPerBatch is the result count per batch (default 5).
	ResultsPerBatch int
	// Systems is the number of distinct system names the fleet reports
	// from (default 16); spread over runners so shard routing sees a
	// realistic key distribution.
	Systems int
	// Benchmarks is the number of distinct benchmark names
	// (default 8).
	Benchmarks int
	// KeyPrefix namespaces the ingest keys (default "loadgen") so
	// repeated campaigns can either replay (same prefix → duplicates)
	// or extend (new prefix → fresh results) a store.
	KeyPrefix string
}

func (c Config) withDefaults() Config {
	if c.Runners <= 0 {
		c.Runners = 100
	}
	if c.BatchesPerRunner <= 0 {
		c.BatchesPerRunner = 10
	}
	if c.ResultsPerBatch <= 0 {
		c.ResultsPerBatch = 5
	}
	if c.Systems <= 0 {
		c.Systems = 16
	}
	if c.Benchmarks <= 0 {
		c.Benchmarks = 8
	}
	if c.KeyPrefix == "" {
		c.KeyPrefix = "loadgen"
	}
	return c
}

// Key returns the deterministic ingest key for one (runner, batch)
// cell. Replaying a campaign replays these keys exactly, which is what
// makes a second run against the same store exercise the duplicate
// path instead of doubling the data.
func (c Config) Key(runner, batch int) string {
	return fmt.Sprintf("%s-r%04d-b%04d", c.KeyPrefix, runner, batch)
}

// Batch builds the deterministic payload for one (runner, batch) cell.
// Each runner reports from one system; benchmarks rotate per batch so
// every shard of a sharded primary sees traffic from every runner's
// system eventually.
func (c Config) Batch(runner, batch int) []metricsdb.Result {
	system := fmt.Sprintf("fedsys-%03d", runner%c.Systems)
	out := make([]metricsdb.Result, c.ResultsPerBatch)
	for i := range out {
		bench := fmt.Sprintf("fedbench-%02d", (batch+i)%c.Benchmarks)
		// A deterministic, smoothly varying FOM: good enough for the
		// series/regression endpoints to return non-trivial answers,
		// reproducible enough to assert on.
		fom := 100.0 + float64((runner*31+batch*7+i*3)%50)
		out[i] = metricsdb.Result{
			Benchmark:  bench,
			Workload:   "standard",
			System:     system,
			Experiment: fmt.Sprintf("fed-r%04d", runner),
			FOMs:       map[string]float64{"figure_of_merit": fom},
		}
	}
	return out
}

// Report is the outcome of one campaign: fleet shape, wall-clock
// throughput, latency percentiles and the failure taxonomy, as
// `benchpark loadtest` prints it.
type Report struct {
	Runners          int
	BatchesPerRunner int
	ResultsPerBatch  int
	BatchesPushed    int
	ResultsPushed    int
	Duplicates       int
	Overloads        int
	Errors           int
	ElapsedSeconds   float64
	BatchesPerSecond float64
	ResultsPerSecond float64
	P50Ms            float64
	P90Ms            float64
	P99Ms            float64
	MaxMs            float64
	FirstError       string
}

// Run drives the fleet: cfg.Runners goroutines, each pushing its
// BatchesPerRunner deterministic batches through p, until done or ctx
// cancels. Every runner goroutine is WaitGroup-joined before Run
// returns. Push failures are counted, not fatal — an overloaded or
// flaky service yields a report with a nonzero Overloads/Errors
// column, which is exactly the measurement — but a cancelled ctx
// aborts the remaining work and returns ctx's error alongside the
// partial report.
func Run(ctx context.Context, cfg Config, p Pusher) (*Report, error) {
	cfg = cfg.withDefaults()
	type tally struct {
		pushed, dups, overloads, errs int
		firstErr                      string
		latencies                     []time.Duration
	}
	tallies := make([]tally, cfg.Runners)
	start := time.Now()
	var wg sync.WaitGroup
	for r := 0; r < cfg.Runners; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			t := &tallies[r]
			t.latencies = make([]time.Duration, 0, cfg.BatchesPerRunner)
			for b := 0; b < cfg.BatchesPerRunner; b++ {
				if ctx.Err() != nil {
					return
				}
				t0 := time.Now()
				dup, err := p.Push(ctx, cfg.Key(r, b), cfg.Batch(r, b))
				t.latencies = append(t.latencies, time.Since(t0))
				switch {
				case err == nil:
					t.pushed++
					if dup {
						t.dups++
					}
				case errors.Is(err, resultshard.ErrOverloaded):
					t.overloads++
				default:
					t.errs++
					if t.firstErr == "" {
						t.firstErr = err.Error()
					}
				}
			}
		}(r)
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := &Report{
		Runners:          cfg.Runners,
		BatchesPerRunner: cfg.BatchesPerRunner,
		ResultsPerBatch:  cfg.ResultsPerBatch,
		ElapsedSeconds:   elapsed.Seconds(),
	}
	var all []time.Duration
	for i := range tallies {
		t := &tallies[i]
		rep.BatchesPushed += t.pushed
		rep.Duplicates += t.dups
		rep.Overloads += t.overloads
		rep.Errors += t.errs
		if rep.FirstError == "" {
			rep.FirstError = t.firstErr
		}
		all = append(all, t.latencies...)
	}
	rep.ResultsPushed = rep.BatchesPushed * cfg.ResultsPerBatch
	if s := elapsed.Seconds(); s > 0 {
		rep.BatchesPerSecond = float64(rep.BatchesPushed) / s
		rep.ResultsPerSecond = float64(rep.ResultsPushed) / s
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	rep.P50Ms = percentileMs(all, 0.50)
	rep.P90Ms = percentileMs(all, 0.90)
	rep.P99Ms = percentileMs(all, 0.99)
	if n := len(all); n > 0 {
		rep.MaxMs = float64(all[n-1]) / float64(time.Millisecond)
	}
	if err := ctx.Err(); err != nil {
		return rep, err
	}
	return rep, nil
}

// percentileMs is the nearest-rank percentile of a sorted latency
// slice, in milliseconds.
func percentileMs(sorted []time.Duration, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	idx := int(q*float64(n)+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return float64(sorted[idx]) / float64(time.Millisecond)
}
