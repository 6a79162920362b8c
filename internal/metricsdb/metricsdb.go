// Package metricsdb stores benchmark results with full provenance —
// the "metrics database" of the paper's Figure 6 automation workflow
// and the Section 5 plan of "storing the Benchpark manifest with the
// performance results" to enable introspection into benchmark
// performance across systems and time. It supports time-series
// queries and the regression detection a continuous benchmarking
// deployment needs ("tracking system performance over time and
// diagnosing hardware failures", Section 1).
package metricsdb

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
)

// Result is one experiment outcome with its reproducibility manifest.
type Result struct {
	ID         int                `json:"id"`
	Seq        int                `json:"seq"` // monotonically increasing "when"
	Benchmark  string             `json:"benchmark"`
	Workload   string             `json:"workload"`
	System     string             `json:"system"`
	Experiment string             `json:"experiment"`
	FOMs       map[string]float64 `json:"foms"`
	Meta       map[string]string  `json:"meta,omitempty"`
	// Manifest is the exact experiment specification (application-,
	// system-, and experiment-specific) enabling functional
	// reproducibility of this data point.
	Manifest string `json:"manifest,omitempty"`
	// TraceID identifies the run that produced this result (32
	// lowercase hex chars, W3C trace-context format). It links every
	// stored point back to the originating runner's distributed trace,
	// so "which run produced this point" is answerable from a series
	// query alone.
	TraceID string `json:"trace_id,omitempty"`
}

// DB is a thread-safe result store.
type DB struct {
	mu      sync.RWMutex
	results []Result // in Seq order: Add, Insert and LoadJSON all keep it so
	// postings lists, per (system, benchmark) pair, the positions in
	// results of that pair's results, ascending — so in Seq order. A
	// dashboard series pins exactly that pair, and each (see there)
	// walks its list instead of scanning. Positions are int32 to keep
	// the index at 4 bytes a result: a process cannot hold 2^31 Results
	// (over 100 bytes each before their maps) anyway.
	postings map[pairKey][]int32
	nextID   int
	nextSeq  int
}

// pairKey names one posting list. Its strings alias the first stored
// result's, so a key costs two string headers and no copy.
type pairKey struct{ system, benchmark string }

// New returns an empty database.
func New() *DB { return &DB{postings: map[pairKey][]int32{}} }

// post appends pos, the highest position posted so far, to the list of
// the pair results[pos] belongs to. Caller holds db.mu.
func (db *DB) post(pos int) {
	r := &db.results[pos]
	k := pairKey{r.System, r.Benchmark}
	db.postings[k] = append(db.postings[k], int32(pos))
}

// reindex rebuilds every posting list from results: once after
// LoadJSON, and after an out-of-order Insert has shifted the positions
// behind it. Nothing is ever deleted, so every list that exists refills
// in place. Caller holds db.mu.
func (db *DB) reindex() {
	for k, list := range db.postings {
		db.postings[k] = list[:0]
	}
	for i := range db.results {
		db.post(i)
	}
}

// Add stores a result, assigning its ID and sequence number, which it
// returns.
func (db *DB) Add(r Result) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.nextID++
	db.nextSeq++
	r.ID = db.nextID
	r.Seq = db.nextSeq
	db.results = append(db.results, r)
	db.post(len(db.results) - 1)
	return r.ID
}

// Insert stores a result preserving its caller-assigned ID and Seq,
// raising the database's ID/Seq watermarks as needed. It is the
// restore path for durable stores (internal/resultstore) that assign
// identity at WAL-append time and must reconstruct the exact same
// state on replay; fresh results should go through Add instead. A Seq
// below the newest one held is placed in order (after any equal Seq),
// so every read can rely on db.results being sorted.
func (db *DB) Insert(r Result) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if r.ID > db.nextID {
		db.nextID = r.ID
	}
	if r.Seq > db.nextSeq {
		db.nextSeq = r.Seq
	}
	i := db.firstAfter(r.Seq)
	db.results = append(db.results, r)
	if i == len(db.results)-1 {
		db.post(i)
		return
	}
	copy(db.results[i+1:], db.results[i:])
	db.results[i] = r
	db.reindex()
}

// firstAfter is the index of the first result with Seq > seq. Caller
// holds db.mu.
func (db *DB) firstAfter(seq int) int {
	if n := len(db.results); n == 0 || db.results[n-1].Seq <= seq {
		return n // the append case, without the search
	}
	return sort.Search(len(db.results), func(i int) bool { return db.results[i].Seq > seq })
}

// Len reports the number of stored results.
func (db *DB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.results)
}

// Filter selects results; zero-valued fields match anything.
type Filter struct {
	Benchmark  string
	Workload   string
	System     string
	Experiment string
}

func (f Filter) matches(r *Result) bool {
	return (f.Benchmark == "" || f.Benchmark == r.Benchmark) &&
		(f.Workload == "" || f.Workload == r.Workload) &&
		(f.System == "" || f.System == r.System) &&
		(f.Experiment == "" || f.Experiment == r.Experiment)
}

// each calls fn for every stored result f matches, in sequence order.
// It is the one iteration every filtered read is built on, and the one
// place that chooses how: a filter that pins both System and Benchmark
// walks that pair's posting list and applies only the residual
// Workload/Experiment match per hit; anything else scans, because no
// other field is indexed. fn must not retain r. Caller holds db.mu.
func (db *DB) each(f Filter, fn func(r *Result)) {
	if f.System != "" && f.Benchmark != "" {
		rest := Filter{Workload: f.Workload, Experiment: f.Experiment}
		for _, pos := range db.postings[pairKey{f.System, f.Benchmark}] {
			if r := &db.results[pos]; rest.matches(r) {
				fn(r)
			}
		}
		return
	}
	for i := range db.results {
		if r := &db.results[i]; f.matches(r) {
			fn(r)
		}
	}
}

// Query returns matching results in sequence order.
func (db *DB) Query(f Filter) []Result {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []Result
	db.each(f, func(r *Result) { out = append(out, *r) })
	return out
}

// QueryAfterN returns the first n results with Seq strictly greater
// than seq, in sequence order. With MaxSeq it is the snapshot-shipping
// primitive (see internal/resultshard): a follower at watermark W
// applies QueryAfterN(W, n) page after page — from W = 0 to bootstrap —
// and holds the primary's exact state, IDs, Seqs and trace provenance
// included. The durable store's compaction walks a long tail the same
// way. A page costs what it returns plus a binary search, and results
// already stored never change, so pages read at different times agree.
func (db *DB) QueryAfterN(seq, n int) []Result { return db.AppendAfterN(nil, seq, n) }

// AppendAfterN is QueryAfterN into a slice the caller owns: the results
// are appended to dst, so a caller walking page after page reuses one.
func (db *DB) AppendAfterN(dst []Result, seq, n int) []Result {
	db.mu.RLock()
	defer db.mu.RUnlock()
	tail := db.results[db.firstAfter(seq):]
	return append(dst, tail[:min(n, len(tail))]...)
}

// MaxSeq reports the highest assigned sequence number (0 when empty).
// It is the replication watermark: a follower whose MaxSeq matches the
// primary's holds the identical result set.
func (db *DB) MaxSeq() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.nextSeq
}

// Point is one (sequence, value) sample of a FOM series, tagged with
// the trace ID of the run that produced it (empty for results pushed
// without trace context).
type Point struct {
	Seq     int
	Value   float64
	TraceID string
}

// Series extracts the time series of one FOM under a filter. It counts
// the points, then fills a slice of exactly that size: no intermediate
// []Result, no growth by doubling.
func (db *DB) Series(f Filter, fom string) []Point {
	db.mu.RLock()
	defer db.mu.RUnlock()
	n := 0
	db.each(f, func(r *Result) {
		if _, ok := r.FOMs[fom]; ok {
			n++
		}
	})
	if n == 0 {
		return nil
	}
	out := make([]Point, 0, n)
	db.each(f, func(r *Result) {
		if v, ok := r.FOMs[fom]; ok {
			out = append(out, Point{Seq: r.Seq, Value: v, TraceID: r.TraceID})
		}
	})
	return out
}

// Regression flags a sample that deviates from its rolling baseline.
type Regression struct {
	Seq      int
	Value    float64
	Baseline float64
	// Ratio is Value/Baseline; >1 means slower for time-like FOMs.
	Ratio float64
}

// DetectRegressions scans a FOM series with a rolling-median baseline
// of the given window, flagging samples whose ratio to the baseline
// exceeds threshold.
//
// Threshold direction follows the FOM's sense. For time-like FOMs,
// where LOWER is better, pass a threshold > 1 (e.g. 1.2 = a 20%
// slowdown) and regressions are samples at or ABOVE
// baseline*threshold. For throughput-like FOMs, where HIGHER is
// better, pass a threshold < 1 (e.g. 0.8) and regressions are samples
// at or BELOW baseline*threshold.
//
// Edge semantics: every flagged sample is judged against a full
// window of predecessors. A series shorter than window+1 points has
// no sample with a complete baseline and returns nil — the detector
// never degrades to a partial window on short prefixes — as does a
// window below 2 (a 1-point median is just the previous sample, all
// noise). Baselines of exactly 0 are skipped (the ratio is
// undefined).
func (db *DB) DetectRegressions(f Filter, fom string, window int, threshold float64) []Regression {
	return DetectInSeries(db.Series(f, fom), window, threshold)
}

// DetectInSeries runs the rolling-median regression scan over an
// already-extracted series. It is the detection kernel behind
// DB.DetectRegressions and Reader.DetectRegressions, so a series
// merged from several databases is judged with the exact same
// semantics as one database's.
func DetectInSeries(series []Point, window int, threshold float64) []Regression {
	if window < 2 || len(series) < window+1 {
		return nil
	}
	var out []Regression
	scratch := make([]float64, window) // median's sort buffer, reused per sample
	for i := window; i < len(series); i++ {
		base := median(series[i-window:i], scratch)
		if base == 0 {
			continue
		}
		ratio := series[i].Value / base
		bad := (threshold >= 1 && ratio >= threshold) || (threshold < 1 && ratio <= threshold)
		if bad {
			out = append(out, Regression{
				Seq: series[i].Seq, Value: series[i].Value, Baseline: base, Ratio: ratio,
			})
		}
	}
	return out
}

// median returns the median Value of pts, sorting a copy of the values
// in vals (len(vals) == len(pts)).
func median(pts []Point, vals []float64) float64 {
	for i, p := range pts {
		vals[i] = p.Value
	}
	sort.Float64s(vals)
	n := len(vals)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}

// SaveJSON serializes the whole database.
func (db *DB) SaveJSON() (string, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	b, err := json.MarshalIndent(db.results, "", "  ")
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// LoadJSON replaces the database contents from a SaveJSON dump.
func LoadJSON(src string) (*DB, error) {
	var results []Result
	if err := json.Unmarshal([]byte(src), &results); err != nil {
		return nil, fmt.Errorf("metricsdb: %w", err)
	}
	db := New()
	for _, r := range results {
		if r.Seq > db.nextSeq {
			db.nextSeq = r.Seq
		}
		if r.ID > db.nextID {
			db.nextID = r.ID
		}
	}
	sort.SliceStable(results, func(i, j int) bool { return results[i].Seq < results[j].Seq })
	db.results = results
	db.reindex()
	return db, nil
}

// ParseFOMs converts Ramble's string FOMs to floats, skipping
// non-numeric entries (e.g. the "Kernel done" success FOM).
func ParseFOMs(in map[string]string) map[string]float64 {
	out := map[string]float64{}
	for k, v := range in {
		if f, err := strconv.ParseFloat(v, 64); err == nil {
			out[k] = f
		}
	}
	return out
}

// UsageRow summarizes how heavily one benchmark is exercised —
// Section 5's plan to collect "metrics on benchmark usage (which
// codes in Benchpark are accessed most heavily, which have been
// contributed to most recently)".
type UsageRow struct {
	Benchmark string
	Runs      int
	Systems   int
	LastSeq   int // most recent activity
}

// Usage aggregates per-benchmark activity, ordered by run count
// descending (ties by name).
func (db *DB) Usage() []UsageRow {
	db.mu.RLock()
	defer db.mu.RUnlock()
	type agg struct {
		runs    int
		systems map[string]bool
		last    int
	}
	m := map[string]*agg{}
	for _, r := range db.results {
		a, ok := m[r.Benchmark]
		if !ok {
			a = &agg{systems: map[string]bool{}}
			m[r.Benchmark] = a
		}
		a.runs++
		a.systems[r.System] = true
		if r.Seq > a.last {
			a.last = r.Seq
		}
	}
	out := make([]UsageRow, 0, len(m))
	for name, a := range m {
		out = append(out, UsageRow{Benchmark: name, Runs: a.runs, Systems: len(a.systems), LastSeq: a.last})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Runs != out[j].Runs {
			return out[i].Runs > out[j].Runs
		}
		return out[i].Benchmark < out[j].Benchmark
	})
	return out
}

// Comparison is one row of a cross-system comparison.
type Comparison struct {
	Experiment string
	A, B       float64
	Ratio      float64 // B/A
}

// CompareSystems pairs up the latest value of a FOM for identical
// experiment names on two systems — the quantitative core of the
// paper's procurement and cloud-comparison use cases.
func (db *DB) CompareSystems(benchmark, sysA, sysB, fom string) []Comparison {
	latest := func(system string) map[string]float64 {
		out := map[string]float64{}
		for _, r := range db.Query(Filter{Benchmark: benchmark, System: system}) {
			if v, ok := r.FOMs[fom]; ok {
				out[r.Experiment] = v // later Seq overwrites: latest wins
			}
		}
		return out
	}
	a, b := latest(sysA), latest(sysB)
	var names []string
	for name := range a {
		if _, ok := b[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	out := make([]Comparison, 0, len(names))
	for _, name := range names {
		c := Comparison{Experiment: name, A: a[name], B: b[name]}
		if c.A != 0 {
			c.Ratio = c.B / c.A
		}
		out = append(out, c)
	}
	return out
}

// Systems returns the distinct system names present, sorted.
func (db *DB) Systems() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	seen := map[string]bool{}
	for k := range db.postings { // one key per pair, not one per result
		seen[k.system] = true
	}
	return sortedKeys(make([]string, 0, len(seen)), seen)
}
