package core

import (
	"context"
	"testing"

	"repro/internal/cachekey"
)

// benchSession runs one full saxpy/openmp session on cts1 against an
// optional shared store and returns the engine report's hit count.
func benchSession(b *testing.B, st *cachekey.Store) int {
	b.Helper()
	bp := New()
	bp.UseCache(st)
	sess, err := bp.Setup("saxpy/openmp", "cts1", b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	_, erep, err := sess.Run(context.Background(), RunOptions{Jobs: 4})
	if err != nil {
		b.Fatal(err)
	}
	if erep.Failed != 0 {
		b.Fatalf("%d experiments failed", erep.Failed)
	}
	return erep.CacheHits
}

// BenchmarkSessionColdRun is the full cold pipeline — concretize,
// install, execute every experiment, analyze — with no durable cache.
func BenchmarkSessionColdRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchSession(b, nil)
	}
}

// BenchmarkSessionWarmRun is the same session over a primed shared
// store: concretization, binaries, and every experiment outcome
// replay from the cache. sysbench's loop_cold and loop_warm workloads
// are this pair with the push and the regression question behind it.
func BenchmarkSessionWarmRun(b *testing.B) {
	st, err := cachekey.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	benchSession(b, st) // prime
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if hits := benchSession(b, st); hits == 0 {
			b.Fatal("warm iteration replayed nothing")
		}
	}
}
