package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestMetricsSnapshotDeterministicAcrossInterleavings pins the
// property the live /metrics endpoint depends on: the rendered
// Prometheus text is a function of WHAT was observed, not of the
// goroutine schedule that observed it. Two registries are fed the
// same commutative operation set — one sequentially, one sharded
// across goroutines in a different order — and must render
// byte-identical text.
func TestMetricsSnapshotDeterministicAcrossInterleavings(t *testing.T) {
	type op func(r *Registry)
	var ops []op
	for i := 0; i < 400; i++ {
		i := i
		ops = append(ops,
			func(r *Registry) { r.Counter(`req_total{route="a"}`).Inc() },
			func(r *Registry) { r.Counter(`req_total{route="b"}`).Add(int64(i % 3)) },
			func(r *Registry) { r.Gauge("inflight").Add(1) },
			func(r *Registry) { r.Gauge("inflight").Add(-1) },
			func(r *Registry) { r.Histogram("lat_seconds").Observe(time.Duration(i%7) * 10 * time.Millisecond) },
			func(r *Registry) {
				r.Histogram(`lat_seconds{route="a"}`).Observe(time.Duration(i%11)*time.Second + time.Duration(i))
			},
		)
	}

	sequential := NewRegistry()
	for _, o := range ops {
		o(sequential)
	}

	interleaved := NewRegistry()
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker takes a strided slice, and odd workers walk
			// it backwards, so the global observation order differs
			// wildly from the sequential feed.
			var mine []op
			for i := w; i < len(ops); i += workers {
				mine = append(mine, ops[i])
			}
			if w%2 == 1 {
				for i, j := 0, len(mine)-1; i < j; i, j = i+1, j-1 {
					mine[i], mine[j] = mine[j], mine[i]
				}
			}
			for _, o := range mine {
				o(interleaved)
			}
		}()
	}
	wg.Wait()

	want := sequential.Snapshot().PrometheusText()
	got := interleaved.Snapshot().PrometheusText()
	if want == "" {
		t.Fatal("sequential registry rendered empty")
	}
	if got != want {
		t.Fatalf("interleaved registry rendered differently:\n--- sequential\n%s\n--- interleaved\n%s", want, got)
	}
}

// TestRegistryPrometheusTextMatchesTraceExport: the live-registry
// render and the end-of-run trace export agree on the metrics block.
func TestRegistryPrometheusTextMatchesTraceExport(t *testing.T) {
	tr := New(fixed())
	m := tr.Metrics()
	m.Counter("a_total").Add(3)
	m.Gauge("g").Set(2)
	m.Histogram("h_seconds").Observe(20 * time.Millisecond)

	live := m.Snapshot().PrometheusText()
	if live == "" {
		t.Fatal("live render is empty")
	}
	exported := tr.Snapshot().PrometheusText()
	// The trace export may append span families; the metrics block
	// must be its prefix.
	if len(exported) < len(live) || exported[:len(live)] != live {
		t.Fatalf("trace export does not start with the live metrics block:\nlive:\n%s\nexport:\n%s", live, exported)
	}

	var nilReg *Registry
	if nilReg.Snapshot().PrometheusText() != "" {
		t.Fatal("nil registry rendered non-empty text")
	}
}

// TestSnapshotConsistentUnderConcurrentObserve scrapes in a loop while
// eight goroutines observe: every snapshot, however it interleaves
// with the lock-free Observes, must show non-decreasing cumulative
// buckets whose +Inf total is exactly Count.
func TestSnapshotConsistentUnderConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", time.Millisecond, time.Second)
	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// A third each: first bucket, second bucket, overflow.
				h.Observe([]time.Duration{time.Microsecond, time.Millisecond + 1, time.Minute}[i%3])
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	check := func() int64 {
		hs := r.Snapshot().Histograms["h_seconds"]
		prev := int64(0)
		for _, b := range hs.Buckets {
			if b.Count < prev {
				t.Fatalf("cumulative buckets decrease: %+v", hs.Buckets)
			}
			prev = b.Count
		}
		if hs.Count < prev {
			t.Fatalf("count %d below the last finite bucket: %+v", hs.Count, hs.Buckets)
		}
		return hs.Count
	}
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
			check()
		}
	}
	if got := check(); got != workers*perWorker {
		t.Fatalf("final count %d, want %d", got, workers*perWorker)
	}
	// The rendered +Inf bucket and _count are the same number.
	text := r.Snapshot().PrometheusText()
	for _, want := range []string{`h_seconds_bucket{le="+Inf"} 16000`, "h_seconds_count 16000"} {
		if !strings.Contains(text, want) {
			t.Fatalf("missing %q in:\n%s", want, text)
		}
	}
}
