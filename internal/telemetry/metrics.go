package telemetry

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Registry holds a run's counters, gauges and histograms. All
// instruments are nil-safe: instruments obtained from a nil registry
// silently drop observations, so instrumented code never branches on
// whether telemetry is enabled.
//
// Every instrument is integral — counts, and durations in whole
// nanoseconds — which is all the module's callers ever record. A
// handle points straight at its own atomic state, so recording takes
// no lock and no lookup, and because integer addition is associative
// a concurrently-fed registry renders the same text whatever the
// goroutine schedule was (pinned by the MetricsSnapshot determinism
// test). mu guards only the maps: registration and Snapshot.
//
// Metric names follow the Prometheus convention and may carry a label
// set inline: `engine_stage_seconds{stage="execute"}`. The text
// exposition splits the label block back out (see export.go).
type Registry struct {
	mu       sync.Mutex
	counters map[string]*atomic.Int64
	gauges   map[string]*atomic.Int64
	hists    map[string]*histState
}

type histState struct {
	bounds []time.Duration // sorted upper bounds, exclusive of +Inf
	counts []atomic.Int64  // non-cumulative, one per bound plus the +Inf overflow
	sum    atomic.Int64    // nanoseconds
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*atomic.Int64{},
		gauges:   map[string]*atomic.Int64{},
		hists:    map[string]*histState{},
	}
}

// intern returns the named cell of m, creating it on first use.
func (r *Registry) intern(m map[string]*atomic.Int64, name string) *atomic.Int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := m[name]
	if !ok {
		v = new(atomic.Int64)
		m[name] = v
	}
	return v
}

// DefaultLatencyBuckets are the histogram bounds used when a
// histogram is registered without explicit bounds.
var DefaultLatencyBuckets = []time.Duration{
	time.Millisecond, 5 * time.Millisecond, 10 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond, 500 * time.Millisecond, time.Second, 5 * time.Second,
	10 * time.Second, 50 * time.Second, 100 * time.Second, 500 * time.Second,
}

// Counter is a monotonically increasing value.
type Counter struct{ n *atomic.Int64 }

// Counter returns the named counter handle, creating it on first use.
func (r *Registry) Counter(name string) Counter {
	if r == nil {
		return Counter{}
	}
	return Counter{r.intern(r.counters, name)}
}

// Add increments the counter; negative deltas are ignored.
func (c Counter) Add(v int64) {
	if c.n == nil || v < 0 {
		return
	}
	c.n.Add(v)
}

// Inc adds one.
func (c Counter) Inc() { c.Add(1) }

// Gauge is a value that can go up and down.
type Gauge struct{ n *atomic.Int64 }

// Gauge returns the named gauge handle, creating it on first use.
func (r *Registry) Gauge(name string) Gauge {
	if r == nil {
		return Gauge{}
	}
	return Gauge{r.intern(r.gauges, name)}
}

// Set replaces the gauge's value.
func (g Gauge) Set(v int64) {
	if g.n != nil {
		g.n.Store(v)
	}
}

// Add shifts the gauge's value by delta (negative to decrement).
func (g Gauge) Add(delta int64) {
	if g.n != nil {
		g.n.Add(delta)
	}
}

// Histogram accumulates durations into fixed buckets.
type Histogram struct{ st *histState }

// Histogram returns the named histogram handle, registering it with
// the given upper bounds on first use (DefaultLatencyBuckets when
// none are supplied). Bounds are fixed at registration; later calls
// with different bounds reuse the original.
func (r *Registry) Histogram(name string, bounds ...time.Duration) Histogram {
	if r == nil {
		return Histogram{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.hists[name]
	if !ok {
		if len(bounds) == 0 {
			bounds = DefaultLatencyBuckets
		}
		bs := slices.Clone(bounds)
		slices.Sort(bs)
		st = &histState{bounds: bs, counts: make([]atomic.Int64, len(bs)+1)}
		r.hists[name] = st
	}
	return Histogram{st}
}

// Observe records one duration.
func (h Histogram) Observe(d time.Duration) {
	if h.st == nil {
		return
	}
	i := 0
	for i < len(h.st.bounds) && d > h.st.bounds[i] {
		i++
	}
	h.st.counts[i].Add(1)
	h.st.sum.Add(int64(d))
}

// Bucket is one cumulative histogram bucket: observations <= LE.
type Bucket struct {
	LE    float64 `json:"le"`
	Count int64   `json:"count"`
}

// HistogramSnapshot is a frozen histogram: cumulative finite buckets
// plus the overall sum (seconds) and count. The count is the total of
// the buckets read in the same pass — including observations above
// the last bound, the implicit +Inf bucket — so the two agree even
// when the snapshot races concurrent Observes.
type HistogramSnapshot struct {
	Buckets []Bucket `json:"buckets"`
	Sum     float64  `json:"sum"`
	Count   int64    `json:"count"`
}

// MetricsSnapshot is a frozen registry.
type MetricsSnapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot freezes the registry. Nil-safe: a nil registry yields an
// empty snapshot. Map keys marshal sorted, so snapshots of identical
// runs are byte-identical in JSON.
func (r *Registry) Snapshot() MetricsSnapshot {
	if r == nil {
		return MetricsSnapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := MetricsSnapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for k, v := range r.counters {
		snap.Counters[k] = v.Load()
	}
	for k, v := range r.gauges {
		snap.Gauges[k] = v.Load()
	}
	for k, st := range r.hists {
		var hs HistogramSnapshot
		for i, b := range st.bounds {
			hs.Count += st.counts[i].Load()
			hs.Buckets = append(hs.Buckets, Bucket{LE: b.Seconds(), Count: hs.Count})
		}
		hs.Count += st.counts[len(st.bounds)].Load()
		hs.Sum = time.Duration(st.sum.Load()).Seconds()
		snap.Histograms[k] = hs
	}
	return snap
}
