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
	"slices"
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

// chunkLen is how many results one chunk of a DB holds: 1024 of them are
// 128 KiB, so the slack a growing store carries — one partly filled
// chunk — stays a rounding error beside the results' own maps, while a
// 100k-result store still needs under a hundred chunk headers. It is
// also larger than any store the benchmark loop builds in one session,
// which therefore never leaves the first chunk (see push).
const (
	chunkShift = 10
	chunkLen   = 1 << chunkShift
	chunkMask  = chunkLen - 1
)

// DB is a thread-safe result store.
type DB struct {
	mu sync.RWMutex
	// chunks holds the results in Seq order — Add, Insert, InsertAll and
	// LoadJSON all keep it so — at global positions: result p is
	// chunks[p>>chunkShift][p&chunkMask], and every chunk but the last is
	// full. Appending never moves a stored result (see push).
	chunks [][]Result
	// postings lists, per (system, benchmark) pair, the positions of
	// that pair's results, ascending — so in Seq order. A dashboard
	// series pins exactly that pair, and each (see there) walks its list
	// instead of scanning. Positions are int32 to keep the index at 4
	// bytes a result: a process cannot hold 2^31 Results (over 100 bytes
	// each before their maps) anyway.
	postings map[pairKey][]int32
	nextID   int
	nextSeq  int
}

// pairKey names one posting list. Its strings alias the first stored
// result's, so a key costs two string headers and no copy.
type pairKey struct{ system, benchmark string }

// New returns an empty database.
func New() *DB { return &DB{postings: map[pairKey][]int32{}} }

// len is the number of stored results. Caller holds db.mu.
func (db *DB) len() int {
	if len(db.chunks) == 0 {
		return 0
	}
	return (len(db.chunks)-1)<<chunkShift + len(db.chunks[len(db.chunks)-1])
}

// at is the result at position pos < len. Caller holds db.mu.
func (db *DB) at(pos int) *Result { return &db.chunks[pos>>chunkShift][pos&chunkMask] }

// push stores r at the top position. One rule decides allocation: the
// first chunk grows the way a slice does until it holds chunkLen, so a
// small store costs what a plain []Result would; every later chunk is
// allocated whole, once. (Should the first one's growth overshoot
// chunkLen — at 128 bytes a Result it lands on it — the excess is slack
// in that one chunk.) Caller holds db.mu.
func (db *DB) push(r Result) {
	if n := len(db.chunks); n == 0 {
		db.chunks = append(db.chunks, nil)
	} else if len(db.chunks[n-1]) == chunkLen {
		db.chunks = append(db.chunks, make([]Result, 0, chunkLen))
	}
	last := &db.chunks[len(db.chunks)-1]
	*last = append(*last, r)
}

// post appends pos, the highest position posted so far, to the list of
// the pair the result there belongs to. Caller holds db.mu.
func (db *DB) post(pos int) {
	r := db.at(pos)
	k := pairKey{r.System, r.Benchmark}
	db.postings[k] = append(db.postings[k], int32(pos))
}

// reindex rebuilds every posting list from the results, after an
// out-of-order insert has shifted the positions behind it. Nothing is
// ever deleted, so every list that exists refills in place. Caller
// holds db.mu.
func (db *DB) reindex() {
	for k, list := range db.postings {
		db.postings[k] = list[:0]
	}
	for i, n := 0, db.len(); i < n; i++ {
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
	db.push(r)
	db.post(db.len() - 1)
	return r.ID
}

// Insert stores a result preserving its caller-assigned ID and Seq,
// raising the database's ID/Seq watermarks as needed. It is the
// restore path for durable stores (internal/resultstore) that assign
// identity at WAL-append time and must reconstruct the exact same
// state on replay; fresh results should go through Add instead. A Seq
// below the newest one held is placed in order (after any equal Seq),
// so every read can rely on the results being sorted. That costs what
// it would in one slice: every result above it moves up one position,
// chunk by chunk, and the index is rebuilt.
func (db *DB) Insert(r Result) { db.InsertAll([]Result{r}) }

// InsertAll is Insert for each of rs in turn under one lock — a commit
// group, a WAL record or a replica page at a time — so a concurrent
// reader sees all of them or none. rs is only read.
func (db *DB) InsertAll(rs []Result) {
	db.mu.Lock()
	defer db.mu.Unlock()
	moved := false
	for i := range rs {
		r := &rs[i]
		db.nextID, db.nextSeq = max(db.nextID, r.ID), max(db.nextSeq, r.Seq)
		at, top := db.firstAfter(r.Seq), db.len()
		if db.push(*r); at == top {
			db.post(top)
			continue
		}
		// Everything from at up moves one position: within each chunk,
		// and each chunk's last result into the next one's first place.
		first := at >> chunkShift
		for c := len(db.chunks) - 1; c > first; c-- {
			chunk := db.chunks[c]
			copy(chunk[1:], chunk)
			chunk[0] = db.chunks[c-1][chunkLen-1]
		}
		chunk := db.chunks[first][at&chunkMask:]
		copy(chunk[1:], chunk)
		chunk[0] = *r
		moved = true
	}
	if moved {
		db.reindex()
	}
}

// firstAfter is the position of the first result with Seq > seq. Caller
// holds db.mu.
func (db *DB) firstAfter(seq int) int {
	n := db.len()
	if n == 0 || db.at(n-1).Seq <= seq {
		return n // the append case, without the search
	}
	return sort.Search(n, func(i int) bool { return db.at(i).Seq > seq })
}

// Len reports the number of stored results.
func (db *DB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.len()
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
			if r := db.at(int(pos)); rest.matches(r) {
				fn(r)
			}
		}
		return
	}
	for _, chunk := range db.chunks {
		for i := range chunk {
			if r := &chunk[i]; f.matches(r) {
				fn(r)
			}
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
	return db.appendFrom(dst, db.firstAfter(seq), n)
}

// appendFrom appends up to n results from position pos on to dst,
// which it grows at most once. Caller holds db.mu.
func (db *DB) appendFrom(dst []Result, pos, n int) []Result {
	n = min(n, db.len()-pos)
	dst = slices.Grow(dst, n)
	for n > 0 {
		part := db.chunks[pos>>chunkShift][pos&chunkMask:]
		part = part[:min(n, len(part))]
		dst = append(dst, part...)
		pos, n = pos+len(part), n-len(part)
	}
	return dst
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

// SaveJSON serializes the whole database: one array of the results in
// sequence order (null when there are none), by reflection — the
// reference the Result codec is held to.
func (db *DB) SaveJSON() (string, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	b, err := json.MarshalIndent(db.appendFrom(nil, 0, db.len()), "", "  ")
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
	// Sorted first, so every one of them is an append.
	sort.SliceStable(results, func(i, j int) bool { return results[i].Seq < results[j].Seq })
	db := New()
	db.InsertAll(results)
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
	db.each(Filter{}, func(r *Result) {
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
	})
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
