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
// names it by its number there. A head is never changed once a row
// names it.
type head struct {
	Benchmark, Workload, System, Experiment, Manifest string
}

// headOf is r's head, as a value.
func headOf(r *Result) head {
	return head{r.Benchmark, r.Workload, r.System, r.Experiment, r.Manifest}
}

// row is how a DB holds one Result, in 32 bytes: its Seq; its head by
// number, shared with every row of the same tuple (DB.heads); its trace
// ID by number, shared with the rows next to it from the same run
// (DB.traces); and where its FOMs and Meta lie in the DB's arenas, as
// name-sorted (name, value) pairs instead of maps — a one-FOM map costs
// 256 bytes, its pair 24. Add and InsertAll copy a Result's maps into
// the arenas and every read builds fresh ones, so nothing a caller holds
// aliases what is stored; strings are immutable, so reads hand the
// head's and the trace table's out as they are. A row was 80 bytes when
// it held a *head, two pair slices and its trace ID's string header,
// 160 when it held the five strings of its head too.
type row struct {
	Seq         int
	head, trace int32
	foms, meta  span
}

// span is where a row's FOMs or Meta lie in their arena: n pairs from
// position at. A nil map is the span of absent pairs and an empty one
// a span of none, so "foms":null and {} both come back as they went in.
type span struct{ at, n uint32 }

// absent is the n of a nil map's span. No map comes near it: a result
// with 2^32-1 members is more JSON than any file or body a store reads.
const absent = math.MaxUint32

// view is a Result as the encoder and the reads walk it: the row's head
// and trace ID resolved, its maps as the sorted pairs. A stored row's
// (DB.view) reads the DB's tables and arenas in place, so it is valid
// while the caller holds db.mu; AppendResult's (viewOf) is built on the
// stack. Embedding the head keeps v.System and the rest readable as
// fields.
type view struct {
	Seq int
	*head
	FOMs    []pair[float64]
	Meta    []pair[string]
	TraceID string
}

// viewOf is r under head h, its maps' pairs appended to foms and meta.
func viewOf(r *Result, h *head, foms []pair[float64], meta []pair[string]) view {
	return view{
		Seq: r.Seq, head: h,
		FOMs: sortedPairs(foms, r.FOMs), Meta: sortedPairs(meta, r.Meta),
		TraceID: r.TraceID,
	}
}

// result is the Result v shows, with maps of its own.
func (v *view) result() Result {
	return Result{
		Seq: v.Seq, Benchmark: v.Benchmark, Workload: v.Workload, System: v.System, Experiment: v.Experiment,
		FOMs: mapOf(v.FOMs), Meta: mapOf(v.Meta),
		Manifest: v.Manifest, TraceID: v.TraceID,
	}
}

// chunkLen is how many rows one chunk of a DB holds, and how many pairs
// one chunk of an arena: 1024 rows are 32 KiB, so the slack a growing
// store carries — one partly filled chunk of each — stays a rounding
// error beside the rows themselves, while a 100k-result store still
// needs about a hundred chunk headers. It is also larger than any store
// the benchmark loop builds in one session, which therefore never leaves
// the first chunk, the one that grows as a slice does (see add).
const (
	chunkShift = 10
	chunkLen   = 1 << chunkShift
	chunkMask  = chunkLen - 1
)

// chunked holds Ts at global positions that never move: the Ts from
// position p on are c[p>>chunkShift][p&chunkMask:]. A DB's rows and its
// trace table hold one T a position, every chunk but the last full; its
// arenas hold each row's run of pairs whole in one chunk.
type chunked[T any] [][]T

// len is how many Ts c holds, when it holds one a position: the rows,
// the trace table.
func (c chunked[T]) len() int {
	if len(c) == 0 {
		return 0
	}
	return (len(c)-1)<<chunkShift + len(c[len(c)-1])
}

// at is the T at position pos.
func (c chunked[T]) at(pos int) *T { return &c[pos>>chunkShift][pos&chunkMask] }

// run is the pairs s names: nil for a nil map's, capped, so appending to
// them cannot write into the arena.
func (c chunked[T]) run(s span) []T {
	switch s.n {
	case absent:
		return nil
	case 0:
		return []T{}
	}
	p := int(s.at)
	return c[p>>chunkShift][p&chunkMask:][:s.n:s.n]
}

// add makes room for n > 0 Ts in one chunk, and returns the position of
// the first and the n of them. The first chunk grows the way a slice
// does, so a small store costs what a plain slice would: append doubles
// a full slice below 256 elements and from there grows n to
// n+(n+768)/4, each rounded up to a size class, so 32-byte rows grow
// through 512 and 852 — and then to chunkLen itself, where the chunk
// stops (TestFirstChunkGrowsToChunkLen), instead of past it. Every later
// chunk is allocated whole, once: chunkLen Ts, or n when a run is longer
// than that, which gets a chunk of its own. A run that does not fit
// what is left of the newest chunk opens the next one and leaves that
// rest unused, so one T at a time fills every chunk.
func (c *chunked[T]) add(n int) (pos int, run []T) {
	if len(*c) == 0 {
		*c = append(*c, nil)
	}
	k := len(*c) - 1
	last := (*c)[k]
	if len(last)+n > cap(last) {
		switch {
		case k > 0 || len(last)+n > chunkLen:
			*c, k, last = append(*c, nil), k+1, make([]T, 0, max(n, chunkLen))
		case grownCap(cap(last)) >= chunkLen:
			last = append(make([]T, 0, chunkLen), last...)
		default:
			last = slices.Grow(last, n)
		}
	}
	pos, last = k<<chunkShift+len(last), last[:len(last)+n]
	(*c)[k] = last
	return pos, last[len(last)-n:]
}

// grownCap is the capacity append grows a full slice of capacity c to,
// before rounding up to a size class.
func grownCap(c int) int {
	if c < 256 {
		return 2 * c
	}
	return c + (c+768)/4
}

// putPairs stores m's members in arena a sorted by name, as encoding/json
// orders a map's keys, and returns their span.
func putPairs[V any](a *chunked[pair[V]], m map[string]V) span {
	if m == nil {
		return span{n: absent}
	}
	if len(m) == 0 {
		return span{}
	}
	at, run := a.add(len(m))
	sortedPairs(run[:0], m)
	return span{uint32(at), uint32(len(m))}
}

// DB is a thread-safe result store.
type DB struct {
	mu sync.RWMutex
	// rows holds the results in Seq order — a DB only appends, and
	// InsertAll refuses a Seq that is not above the newest row's, which is
	// therefore the DB's one watermark (maxSeq) — at global positions:
	// result p is rows.at(p). Nothing moves a stored result (see add).
	rows chunked[row]
	// foms and meta are the arenas: every row's FOMs and Meta pairs, a
	// row's run at the span it holds. Pairs, like rows, are never moved or
	// changed once stored.
	foms chunked[pair[float64]]
	meta chunked[pair[string]]
	// traces holds the rows' trace IDs, one entry a run: it gains one
	// only when a row's trace ID differs from the row's before it, so the
	// results of one push share an entry.
	traces chunked[string]
	// postings lists, per (system, benchmark) pair, the positions of
	// that pair's results, ascending — so in Seq order. A dashboard
	// series pins exactly that pair, and each (see there) walks its list
	// instead of scanning. Positions are int32 to keep the index at 4
	// bytes a result: a process cannot hold 2^31 rows (32 bytes each
	// before their pairs) anyway.
	postings map[pairKey][]int32
	// heads holds each distinct head once, and headIDs its number there,
	// which every row with that tuple holds. A store's results repeat a
	// few hundred tuples — a nightly reruns the same experiments —
	// thousands of times each.
	heads   []head
	headIDs map[head]int32
}

// pairKey names one posting list. Its strings alias the head of the
// pair's first result, so a key costs two string headers and no copy.
type pairKey struct{ system, benchmark string }

// New returns an empty database.
func New() *DB { return &DB{postings: map[pairKey][]int32{}, headIDs: map[head]int32{}} }

// intern returns h's number, storing h first when it is new. The table
// grows as a slice and a map do, but for its first two steps: the first
// 8 heads are what one suite's session brings, so the slice starts with
// room for 8, and a store past that is a fleet's, so the slice and the
// map are made anew for 64 at once. A bulk push that brings new
// experiments thus rarely grows them. Caller holds db.mu.
func (db *DB) intern(h head) int32 {
	if id, ok := db.headIDs[h]; ok {
		return id
	}
	id := int32(len(db.heads))
	switch id {
	case 0:
		db.heads = make([]head, 0, 8)
	case 8:
		db.heads = append(make([]head, 0, 64), db.heads...)
		ids := make(map[head]int32, 64)
		maps.Copy(ids, db.headIDs)
		db.headIDs = ids
	}
	db.heads = append(db.heads, h)
	db.headIDs[h] = id
	return id
}

// traceOf returns the number of trace ID id, adding an entry to the
// trace table when id is not the newest one's. Caller holds db.mu.
func (db *DB) traceOf(id string) int32 {
	n := db.traces.len()
	if n == 0 || *db.traces.at(n - 1) != id {
		_, run := db.traces.add(1)
		run[0] = id
		n++
	}
	return int32(n - 1)
}

// len is the number of stored results. Caller holds db.mu.
func (db *DB) len() int { return db.rows.len() }

// at is the row at position pos < len. Caller holds db.mu.
func (db *DB) at(pos int) *row { return db.rows.at(pos) }

// view is r as the encoder and the reads walk it. Caller holds db.mu.
func (db *DB) view(r *row) view {
	return view{
		Seq: r.Seq, head: &db.heads[r.head],
		FOMs: db.foms.run(r.foms), Meta: db.meta.run(r.meta),
		TraceID: *db.traces.at(int(r.trace)),
	}
}

// result is the Result r holds, with maps of its own. Caller holds
// db.mu.
func (db *DB) result(r *row) Result {
	v := db.view(r)
	return v.result()
}

// fom is the value of r's FOM named name, if r has one. Caller holds
// db.mu.
func (db *DB) fom(r *row, name string) (float64, bool) {
	for _, p := range db.foms.run(r.foms) {
		if p.name == name {
			return p.value, true
		}
	}
	return 0, false
}

// store appends a copy of r under Seq seq, and posts it. Caller holds
// db.mu.
func (db *DB) store(r *Result, seq int) {
	pos, run := db.rows.add(1)
	run[0] = row{
		Seq: seq, head: db.intern(headOf(r)), trace: db.traceOf(r.TraceID),
		foms: putPairs(&db.foms, r.FOMs), meta: putPairs(&db.meta, r.Meta),
	}
	db.post(pos)
}

// post appends pos, the highest position posted so far, to the list of
// the pair the result there belongs to. Caller holds db.mu.
func (db *DB) post(pos int) {
	h := &db.heads[db.at(pos).head]
	k := pairKey{h.System, h.Benchmark}
	db.postings[k] = append(db.postings[k], int32(pos))
}

// Add stores a copy of a result under the next sequence number, one
// past the newest row's, which it returns.
func (db *DB) Add(r Result) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	seq := db.maxSeq() + 1
	db.store(&r, seq)
	return seq
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
		db.store(&rs[i], rs[i].Seq)
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

func (f Filter) matches(h *head) bool {
	return (f.Benchmark == "" || f.Benchmark == h.Benchmark) &&
		(f.Workload == "" || f.Workload == h.Workload) &&
		(f.System == "" || f.System == h.System) &&
		(f.Experiment == "" || f.Experiment == h.Experiment)
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
			if r := db.at(int(pos)); rest.matches(&db.heads[r.head]) {
				fn(r)
			}
		}
		return
	}
	for _, chunk := range db.rows {
		for i := range chunk {
			if r := &chunk[i]; f.matches(&db.heads[r.head]) {
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
	db.each(f, func(r *row) { out = append(out, db.result(r)) })
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
		out[i] = db.result(db.at(pos + i))
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
		v := db.view(r)
		ref, prev := t.next(v.head, r.head, v.TraceID)
		if dst, err = appendRow(append(dst, ','), &v, ref, prev); err != nil {
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
		if _, ok := db.fom(r, fom); ok {
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
		if v, ok := db.fom(r, fom); ok {
			dst = append(dst, Point{Seq: r.Seq, Value: v, TraceID: *db.traces.at(int(r.trace))})
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
	return appendRegressions(nil, series, window, threshold)
}

// appendRegressions appends DetectInSeries' flags to dst.
func appendRegressions(dst []Regression, series []Point, window int, threshold float64) []Regression {
	if window < 2 || len(series) <= window {
		return dst
	}
	scratch := make([]float64, window) // median's sort buffer, reused per sample
	for i := window; i < len(series); i++ {
		base := median(series[i-window:i], scratch)
		if base == 0 {
			continue
		}
		ratio := series[i].Value / base
		bad := (threshold >= 1 && ratio >= threshold) || (threshold < 1 && ratio <= threshold)
		if bad {
			dst = append(dst, Regression{
				Seq: series[i].Seq, Value: series[i].Value, Baseline: base, Ratio: ratio,
			})
		}
	}
	return dst
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
		h := &db.heads[r.head]
		a, ok := m[h.Benchmark]
		if !ok {
			a = &agg{systems: map[string]bool{}}
			m[h.Benchmark] = a
		}
		a.runs++
		a.systems[h.System] = true
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
