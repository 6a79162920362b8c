package engine

import (
	"context"
	"testing"
)

// BenchmarkEngineCommitPath measures the engine's fixed overhead per
// matrix: staged lifecycle, worker pool, sorted-merge commit — with
// near-free Execute bodies, so the number is the orchestration cost
// the incremental pipeline rides on.
func BenchmarkEngineCommitPath(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := &mockRunner{label: "bench@test", n: 64}
		if _, err := Run(context.Background(), m, Options{Jobs: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// busyKernel is a deterministic stand-in for a benchmark kernel: a
// fixed amount of arithmetic per experiment, so cold runs pay a real
// execution cost that warm runs replay away.
func busyKernel(i int) int {
	acc := i
	for k := 0; k < 2_000_000; k++ {
		acc = acc*1664525 + 1013904223
	}
	return acc
}

// kernelRunner is a cacheableRunner whose Execute performs busyKernel
// work before recording its outcome.
type kernelRunner struct {
	cacheableRunner
	sink int
}

func newKernelRunner(n int) *kernelRunner {
	r := &kernelRunner{}
	r.mockRunner = mockRunner{label: "kernel@test", n: n}
	r.salts = make([]string, n)
	r.outcomes = make([]string, n)
	for i := range r.salts {
		r.salts[i] = "kernel-salt"
	}
	return r
}

func (r *kernelRunner) Execute(ctx context.Context, i int) error {
	r.sink = busyKernel(i)
	return r.cacheableRunner.Execute(ctx, i)
}

// BenchmarkEngineRunColdKernel is the cold baseline: every experiment
// executes its kernel. Compare against BenchmarkEngineRunWarmKernel
// for the execute stage's replay speedup.
func BenchmarkEngineRunColdKernel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := newKernelRunner(16)
		if _, err := Run(context.Background(), m, Options{Jobs: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineRunWarmKernel replays every experiment from a primed
// durable run layer: zero kernel executions per iteration.
func BenchmarkEngineRunWarmKernel(b *testing.B) {
	dir := b.TempDir()
	layer := openRunLayer(b, dir)
	if _, err := Run(context.Background(), newKernelRunner(16), Options{Jobs: 4, Cache: layer}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := newKernelRunner(16)
		rep, err := Run(context.Background(), m, Options{Jobs: 4, Cache: layer})
		if err != nil {
			b.Fatal(err)
		}
		if rep.CacheHits != rep.Total {
			b.Fatalf("warm iteration executed experiments: %+v", rep)
		}
	}
}
