package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/resultshard"
)

// ingestWorkload is ingest_single and ingest_sharded: closed-loop
// clients pushing the seeded 9:1 small/bulk mix into one growing
// backend, no reads. The two differ only in the backend opened.
type ingestWorkload struct {
	cfg     config
	rec     *recorder
	g       gen
	sharded bool

	svc      *service
	streams  []*pushStream
	expected int
}

func (w *ingestWorkload) service() *service { return w.svc }

func (w *ingestWorkload) setUp(ctx context.Context, dir string) error {
	store := filepath.Join(dir, "results")
	backend, err := openBackend(store, w.sharded)
	if err != nil {
		return err
	}
	w.svc = startService(store, w.sharded, backend, w.rec)
	w.expected = 0
	w.streams = nil
	for c := 0; c < clients(); c++ {
		w.streams = append(w.streams, w.g.pushStream(fmt.Sprintf("c%d", c), ingestSize, nil))
	}
	// Warm-up: connections, the first segment, the runtime's pools.
	warm := w.run(ctx, w.cfg.scaled(300, 10))
	w.expected += warm.results
	return warm.firstErr
}

func (w *ingestWorkload) tearDown() error {
	if w.svc == nil {
		return nil
	}
	return w.svc.close()
}

// run has every client push its next perClient batches.
func (w *ingestWorkload) run(ctx context.Context, perClient int) *samples {
	per := make([]*samples, len(w.streams))
	var wg sync.WaitGroup
	for c, stream := range w.streams {
		per[c] = newSamples()
		wg.Add(1)
		go func(sm *samples, stream *pushStream) {
			defer wg.Done()
			for n := 0; n < perClient && sm.failed == 0; n++ {
				w.svc.push(ctx, sm, noSpan, stream.next())
			}
		}(per[c], stream)
	}
	wg.Wait()
	all := newSamples()
	for _, sm := range per {
		all.merge(sm)
	}
	return all
}

// ingestPushesPerClientSecond sizes the ingest phase: 15 s is the
// issue's 2 × 3000 pushes, 87 000 results.
const ingestPushesPerClientSecond = 200

func (w *ingestWorkload) measure(ctx context.Context) *samples {
	sm := w.run(ctx, w.cfg.opsFor(ingestPushesPerClientSecond))
	w.expected += sm.results
	return sm
}

func (w *ingestWorkload) probes(sm *samples) []probe { return fleetProbes(sm) }

func (w *ingestWorkload) check(ctx context.Context, sm *samples) error {
	if got := w.svc.backend.Len(); got != w.expected {
		return fmt.Errorf("backend holds %d results, %d were acked", got, w.expected)
	}
	if r, ok := w.svc.backend.(*resultshard.Router); ok && r.Overloads() != 0 {
		return fmt.Errorf("router refused %d enqueues", r.Overloads())
	}
	return nil
}

func (w *ingestWorkload) report(m metricSet, sm *samples, wall time.Duration, tv *traceView) int {
	bulk := sm.lat[opBulkPush]
	m.putPercentiles(bulk, []string{"cycle_p50_ms", "cycle_p90_ms"}, []float64{0.5, 0.9})
	m.putPercentiles(bulk, []string{"bulk_push_p50_ms"}, []float64{0.5})
	perS := float64(sm.results) / wall.Seconds()
	m.put("work_per_s", perS)
	m.put("results_per_s", perS)
	all := append(append([]float64(nil), sm.lat[opPush]...), bulk...)
	count, excess := stalls(all, median(sm.lat[opPush]))
	m.put("resultstore.stall_count", float64(count))
	m.put("resultstore.stall_ms_total", excess)
	if r, ok := w.svc.backend.(*resultshard.Router); ok && tv != nil {
		m.put("resultshard.overloads", float64(r.Overloads()))
		m.put("resultshard.fanout_mean", fanoutMean(sm.requests, r.Shards()))
	}
	return len(all)
}

// fanoutMean is the mean number of shards the sampled batches touch:
// a push waits for the slowest of that many commits.
func fanoutMean(reqs []pushOp, shards int) float64 {
	var fan []float64
	for _, op := range reqs {
		touched := map[int]bool{}
		for _, r := range op.Results {
			touched[resultshard.ShardFor(r.System, r.Benchmark, shards)] = true
		}
		fan = append(fan, float64(len(touched)))
	}
	return mean(fan)
}
