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
	"maps"
	"math"
	"slices"
	"sort"
	"strconv"
	"sync"
)

// Result is one experiment outcome with its reproducibility manifest.
type Result struct {
	Seq        int                `json:"seq"` // monotonically increasing "when", and the result's identity
	Benchmark  string             `json:"benchmark"`
	Workload   string             `json:"workload"`
	System     string             `json:"system"`
	Experiment string             `json:"experiment"`
	FOMs       map[string]float64 `json:"foms"`
	Meta       map[string]string  `json:"meta,omitempty"`
	// Manifest describes the environment that produced this data
	// point: the suite, the system model (a 16-hex prefix of its
	// fingerprint) and the software stack, one root spec a line. System
	// and Experiment complete it, so every result of one environment
	// carries the same text, and a DB holds one copy of it.
	Manifest string `json:"manifest,omitempty"`
	// TraceID identifies the run that produced this result (32
	// lowercase hex chars, W3C trace-context format). It links every
	// stored point back to the originating runner's distributed trace,
	// so "which run produced this point" is answerable from a series
	// query alone.
	TraceID string `json:"trace_id,omitempty"`
}

// head is the part of a Result its series repeats: every result of one
// experiment on one system carries the same five strings, so a DB holds
// one head per distinct tuple (DB.heads) and every row with that tuple
// points at it. A head is never changed once a row points at it.
type head struct {
	Benchmark, Workload, System, Experiment, Manifest string
}

// headOf is r's head, as a value.
func headOf(r *Result) head {
	return head{r.Benchmark, r.Workload, r.System, r.Experiment, r.Manifest}
}

// row is how a DB holds one Result: its head, shared with every row of
// the same tuple, the other scalar fields, and FOMs and Meta as
// name-sorted (name, value) pairs instead of maps — a one-FOM map costs
// 256 bytes, its pair 24. A nil map is kept as a nil slice and an empty
// one as an empty slice, so "foms":null and {} both come back as they
// went in. Add and InsertAll copy a Result's maps into a row and every
// read builds fresh ones, so nothing a caller holds aliases what is
// stored; strings are immutable, so reads hand the head's out as they
// are. Embedding the head keeps r.System and the rest readable as
// fields: a row is 80 bytes, where the five strings of its own made it
// 160.
type row struct {
	Seq int
	*head
	FOMs    []pair[float64]
	Meta    []pair[string]
	TraceID string
}

// rowOf copies r into a row under head h, its maps' pairs appended to
// foms and meta.
func rowOf(r *Result, h *head, foms []pair[float64], meta []pair[string]) row {
	return row{
		Seq: r.Seq, head: h,
		FOMs: sortedPairs(foms, r.FOMs), Meta: sortedPairs(meta, r.Meta),
		TraceID: r.TraceID,
	}
}

// storedRow is rowOf into pairs of the row's own, sized once.
func storedRow(r *Result, h *head) row {
	return rowOf(r, h, make([]pair[float64], 0, len(r.FOMs)), make([]pair[string], 0, len(r.Meta)))
}

// result is the Result r holds, with maps of its own.
func (r *row) result() Result {
	return Result{
		Seq: r.Seq, Benchmark: r.Benchmark, Workload: r.Workload, System: r.System, Experiment: r.Experiment,
		FOMs: mapOf(r.FOMs), Meta: mapOf(r.Meta),
		Manifest: r.Manifest, TraceID: r.TraceID,
	}
}

// fom is the value of the FOM named name, if r has one.
func (r *row) fom(name string) (float64, bool) {
	for _, p := range r.FOMs {
		if p.name == name {
			return p.value, true
		}
	}
	return 0, false
}

// chunkLen is how many rows one chunk of a DB holds: 1024 of them are
// 80 KiB, so the slack a growing store carries — one partly filled
// chunk — stays a rounding error beside the rows themselves, while a
// 100k-result store still needs under a hundred chunk headers. It is
// also larger than any store the benchmark loop builds in one session,
// which therefore never leaves the first chunk, the one that grows as a
// slice does (see push).
const (
	chunkShift = 10
	chunkLen   = 1 << chunkShift
	chunkMask  = chunkLen - 1
)

// DB is a thread-safe result store.
type DB struct {
	mu sync.RWMutex
	// chunks holds the results in Seq order — a DB only appends, and
	// InsertAll refuses a Seq that is not above the newest row's, which is
	// therefore the DB's one watermark (maxSeq) — at global positions:
	// result p is chunks[p>>chunkShift][p&chunkMask], and every chunk but
	// the last is full. Nothing moves a stored result (see push).
	chunks [][]row
	// postings lists, per (system, benchmark) pair, the positions of
	// that pair's results, ascending — so in Seq order. A dashboard
	// series pins exactly that pair, and each (see there) walks its list
	// instead of scanning. Positions are int32 to keep the index at 4
	// bytes a result: a process cannot hold 2^31 rows (80 bytes each
	// before their pairs and heads) anyway.
	postings map[pairKey][]int32
	// heads maps each distinct head to the one copy every row with that
	// tuple points at. A store's results repeat a few hundred tuples —
	// a nightly reruns the same experiments — thousands of times each.
	// The copies live in chunks as the rows do, allocated whole and
	// never moved: headChunk is the newest (see intern), so a store of a
	// few experiments allocates room for a few.
	heads     map[head]*head
	headChunk []head
}

// pairKey names one posting list. Its strings alias the head of the
// pair's first result, so a key costs two string headers and no copy.
type pairKey struct{ system, benchmark string }

// New returns an empty database.
func New() *DB { return &DB{postings: map[pairKey][]int32{}, heads: map[head]*head{}} }

// intern returns the DB's copy of h, storing one first when h is new.
// Heads live in chunks, as rows do. The first holds 8, what one suite's
// session brings; a store past that is a fleet's, so the next chunk
// takes the table to 64 heads at once, its map made anew for as many,
// and each later chunk holds three times all heads before it, at most
// chunkLen, while the map grows by itself. A store that keeps gaining
// experiments thus pays for its heads in few writes. Caller holds db.mu.
func (db *DB) intern(h head) *head {
	if held, ok := db.heads[h]; ok {
		return held
	}
	if n := len(db.heads); len(db.headChunk) == cap(db.headChunk) {
		room := min(max(3*n, 8), chunkLen)
		if n == 8 {
			room = 64 - n
			heads := make(map[head]*head, 64)
			maps.Copy(heads, db.heads)
			db.heads = heads
		}
		db.headChunk = make([]head, 0, room)
	}
	db.headChunk = append(db.headChunk, h)
	held := &db.headChunk[len(db.headChunk)-1]
	db.heads[h] = held
	return held
}

// len is the number of stored results. Caller holds db.mu.
func (db *DB) len() int {
	if len(db.chunks) == 0 {
		return 0
	}
	return (len(db.chunks)-1)<<chunkShift + len(db.chunks[len(db.chunks)-1])
}

// at is the row at position pos < len. Caller holds db.mu.
func (db *DB) at(pos int) *row { return &db.chunks[pos>>chunkShift][pos&chunkMask] }

// push stores r at the top position. The first chunk grows the way a
// slice does, so a small store costs what a plain []row would: append
// doubles a full slice below 256 elements and from there grows n to
// n+(n+768)/4, each rounded up to a size class, so 80-byte rows grow
// 153, 307, 614 and then 1,024 — chunkLen itself, where the chunk stops
// (TestFirstChunkGrowsToChunkLen). Every later chunk is allocated
// whole, once. Caller holds db.mu.
func (db *DB) push(r row) {
	if n := len(db.chunks); n == 0 {
		db.chunks = append(db.chunks, nil)
	} else if len(db.chunks[n-1]) == chunkLen {
		db.chunks = append(db.chunks, make([]row, 0, chunkLen))
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

// Add stores a copy of a result under the next sequence number, one
// past the newest row's, which it returns.
func (db *DB) Add(r Result) int {
	rw := storedRow(&r, nil)
	db.mu.Lock()
	defer db.mu.Unlock()
	rw.Seq = db.maxSeq() + 1
	rw.head = db.intern(headOf(&r))
	db.push(rw)
	db.post(db.len() - 1)
	return rw.Seq
}

// InsertAll stores copies of rs under the Seqs they carry, under one
// lock — a commit group, a WAL record or a replica page at a time — so a
// concurrent reader sees all of them or none. It is the restore path for
// durable stores (internal/resultstore), which assign Seqs at WAL-append
// time and must rebuild the same state on replay; fresh results go
// through Add. A DB only appends: each Seq must be above the one before
// it, the first above the newest row's (an empty DB takes any first
// Seq). When one is not, InsertAll stores none of them and says which.
// rs is only read.
func (db *DB) InsertAll(rs []Result) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	last, held := db.maxSeq(), db.len() > 0
	for i := range rs {
		if held && rs[i].Seq <= last {
			return fmt.Errorf("metricsdb: result %d of %d has Seq %d, not above %d: a DB only appends", i, len(rs), rs[i].Seq, last)
		}
		last, held = rs[i].Seq, true
	}
	for i := range rs {
		db.push(storedRow(&rs[i], db.intern(headOf(&rs[i]))))
		db.post(db.len() - 1)
	}
	return nil
}

// Insert is InsertAll of r alone.
func (db *DB) Insert(r Result) error { return db.InsertAll([]Result{r}) }

// maxSeq is the newest row's Seq, 0 when there is none. Caller holds
// db.mu.
func (db *DB) maxSeq() int {
	if n := db.len(); n > 0 {
		return db.at(n - 1).Seq
	}
	return 0
}

// firstAfter is the position of the first result with Seq > seq. Caller
// holds db.mu.
func (db *DB) firstAfter(seq int) int {
	n := db.len()
	if n == 0 || db.at(n-1).Seq <= seq {
		return n // nothing after seq, without the search
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

func (f Filter) matches(r *row) bool {
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
func (db *DB) each(f Filter, fn func(r *row)) {
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

// Query returns matching results in sequence order, each with maps of
// its own.
func (db *DB) Query(f Filter) []Result {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []Result
	db.each(f, func(r *row) { out = append(out, r.result()) })
	return out
}

// QueryAfterN returns the first n results with Seq strictly greater
// than seq, in sequence order. With MaxSeq it is the snapshot-shipping
// primitive (see internal/resultshard): a follower at watermark W
// applies QueryAfterN(W, n) page after page — from W = 0 to bootstrap —
// and holds the primary's exact state, Seqs and trace provenance
// included. A page costs what it returns plus a binary search, and
// results already stored never change, so pages read at different times
// agree.
func (db *DB) QueryAfterN(seq, n int) []Result {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.resultsFrom(db.firstAfter(seq), n)
}

// resultsFrom returns up to n results from position pos on, nil when
// there are none. Caller holds db.mu.
func (db *DB) resultsFrom(pos, n int) []Result {
	n = min(n, db.len()-pos)
	if n <= 0 {
		return nil
	}
	out := make([]Result, n)
	for i := range out {
		out[i] = db.at(pos + i).result()
	}
	return out
}

// AppendJSONAfter appends to dst the JSON of the stored results with
// after < Seq <= upto, in Seq order, each preceded by a comma and
// encoded as AppendResult encodes it — or, with a table, in the form
// t's file holds, t gathering their heads and carrying the trace rule
// from one call to the next (see HeadTable) — until dst holds limit
// bytes. It is how a durable store's compaction reads the DB: the rows
// are encoded where they lie, under the read lock, with no map or
// Result built. It returns the Seq of the last result appended — after
// itself when none was.
func (db *DB) AppendJSONAfter(dst []byte, after, upto, limit int, t *HeadTable) (_ []byte, last int, err error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	last = after
	for pos, n := db.firstAfter(after), db.len(); pos < n && len(dst) < limit; pos++ {
		r := db.at(pos)
		if r.Seq > upto {
			break
		}
		ref, prev := t.next(*r.head, r.head, r.TraceID)
		if dst, err = appendRow(append(dst, ','), r, ref, prev); err != nil {
			return dst, last, err
		}
		last = r.Seq
	}
	return dst, last, nil
}

// MaxSeq reports the newest row's sequence number (0 when empty): the
// rows are in Seq order, so it is the highest one held. It is the
// replication watermark: a follower whose MaxSeq matches the primary's
// holds the identical result set.
func (db *DB) MaxSeq() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.maxSeq()
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
func (db *DB) Series(f Filter, fom string) []Point { return db.appendSeries(nil, f, fom) }

// appendSeries appends the series to dst, which it grows at most once:
// it counts the points first.
func (db *DB) appendSeries(dst []Point, f Filter, fom string) []Point {
	db.mu.RLock()
	defer db.mu.RUnlock()
	n := 0
	db.each(f, func(r *row) {
		if _, ok := r.fom(fom); ok {
			n++
		}
	})
	if n == 0 {
		return dst
	}
	if dst == nil {
		dst = make([]Point, 0, n)
	} else {
		dst = slices.Grow(dst, n)
	}
	db.each(f, func(r *row) {
		if v, ok := r.fom(fom); ok {
			dst = append(dst, Point{Seq: r.Seq, Value: v, TraceID: r.TraceID})
		}
	})
	return dst
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
	return NewReader(nil, db).DetectRegressions(f, fom, window, threshold)
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
	b, err := json.MarshalIndent(db.resultsFrom(0, db.len()), "", "  ")
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
	// Sorted first, so every one of them is an append; two of one Seq
	// are refused.
	sort.SliceStable(results, func(i, j int) bool { return results[i].Seq < results[j].Seq })
	db := New()
	if err := db.InsertAll(results); err != nil {
		return nil, err
	}
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
	db.each(Filter{}, func(r *row) {
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
