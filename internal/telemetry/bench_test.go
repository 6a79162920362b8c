package telemetry

import (
	"fmt"
	"testing"
	"time"
)

// Registry hot paths: every instrumented request in resultsd touches
// Counter.Add and Histogram.Observe (often from many goroutines), and
// every /metrics scrape renders PrometheusText. Run these while
// working on the registry; the gated numbers are sysbench's, whose
// served workloads pay these calls on every request.

func BenchmarkCounterAdd(b *testing.B) {
	c := NewRegistry().Counter("bench_total")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkCounterAddContended(b *testing.B) {
	c := NewRegistry().Counter("bench_total")
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Add(1)
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench_seconds")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i%100) * time.Millisecond)
	}
}

func BenchmarkHistogramObserveContended(b *testing.B) {
	h := NewRegistry().Histogram("bench_seconds")
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			h.Observe(time.Duration(i%100) * time.Millisecond)
			i++
		}
	})
}

// benchRegistry models a loaded resultsd: a few route-labeled
// counter/histogram families plus assorted gauges.
func benchRegistry() *Registry {
	r := NewRegistry()
	for _, route := range []string{"results", "series", "regressions", "systems"} {
		c := r.Counter(fmt.Sprintf("resultsd_requests_total{route=%q}", route))
		h := r.Histogram(fmt.Sprintf("resultsd_request_seconds{route=%q}", route))
		for i := 0; i < 200; i++ {
			c.Inc()
			h.Observe(time.Duration(i%50) * 2 * time.Millisecond)
		}
	}
	for i := 0; i < 16; i++ {
		r.Gauge(fmt.Sprintf("g_%02d", i)).Set(int64(i))
	}
	return r
}

func BenchmarkRegistrySnapshot(b *testing.B) {
	r := benchRegistry()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Snapshot()
	}
}

func BenchmarkPrometheusText(b *testing.B) {
	r := benchRegistry()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.PrometheusText()
	}
}
