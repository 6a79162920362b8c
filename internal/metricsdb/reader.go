package metricsdb

import "sort"

// Placement names which of n databases holds every result of one
// (system, benchmark) pair (internal/resultshard.ShardFor).
type Placement func(system, benchmark string, n int) int

// Reader is the read-only query surface over one or more DBs — the
// one read path the durable store, the sharded router and the follower
// replicas serve from. It is a value with no way to Insert, so handing
// one out cannot let a write bypass the WAL that owns its DBs.
//
// One DB, or a filter that pins both System and Benchmark under a
// Placement, answers from that DB alone with no merge copy. Anything
// else concatenates the per-DB answers in DB order and stable-sorts by
// Seq (ties keep DB order), so every layer serves the same bytes.
type Reader struct {
	dbs   []*DB
	place Placement
}

// NewReader returns a Reader over dbs. A nil place means no filter
// routes: every query over more than one DB merges.
func NewReader(place Placement, dbs ...*DB) Reader { return Reader{dbs: dbs, place: place} }

// MergeReaders returns one Reader over every DB the parts cover, in
// part order.
func MergeReaders(place Placement, parts ...Reader) Reader {
	var dbs []*DB
	for _, p := range parts {
		dbs = append(dbs, p.dbs...)
	}
	return Reader{dbs: dbs, place: place}
}

// covering returns the DBs that can hold a match for f: the one the
// placement names when f pins both System and Benchmark, else all.
func (r Reader) covering(f Filter) []*DB {
	if r.place != nil && len(r.dbs) > 1 && f.System != "" && f.Benchmark != "" {
		i := r.place(f.System, f.Benchmark, len(r.dbs))
		return r.dbs[i : i+1]
	}
	return r.dbs
}

// mergeBySeq is the body of every query: one DB answers directly;
// several are concatenated in DB order, then stable-sorted by Seq.
func mergeBySeq[T any](dbs []*DB, get func(*DB) []T, seq func(T) int) []T {
	if len(dbs) == 1 {
		return get(dbs[0])
	}
	var out []T
	for _, db := range dbs {
		out = append(out, get(db)...)
	}
	sort.SliceStable(out, func(i, j int) bool { return seq(out[i]) < seq(out[j]) })
	return out
}

func resultSeq(r Result) int { return r.Seq }

// Len reports the number of stored results.
func (r Reader) Len() int {
	total := 0
	for _, db := range r.dbs {
		total += db.Len()
	}
	return total
}

// Query returns matching results in sequence order.
func (r Reader) Query(f Filter) []Result {
	return mergeBySeq(r.covering(f), func(db *DB) []Result { return db.Query(f) }, resultSeq)
}

// Parts returns one single-DB Reader per DB, in DB order. Seqs are per
// DB, so whatever walks them — replication, which ships a store shard
// by shard — walks the parts.
func (r Reader) Parts() []Reader {
	parts := make([]Reader, len(r.dbs))
	for i := range parts {
		parts[i] = Reader{dbs: r.dbs[i : i+1]}
	}
	return parts
}

// QueryAfterN returns the first n results with Seq strictly greater
// than seq, in sequence order (see DB.QueryAfterN).
func (r Reader) QueryAfterN(seq, n int) []Result {
	out := mergeBySeq(r.dbs, func(db *DB) []Result { return db.QueryAfterN(seq, n) }, resultSeq)
	return out[:min(n, len(out))]
}

// MaxSeq reports the highest assigned sequence number (0 when empty) —
// the replication watermark.
func (r Reader) MaxSeq() int {
	top := 0
	for _, db := range r.dbs {
		top = max(top, db.MaxSeq())
	}
	return top
}

// Series extracts the time series of one FOM under a filter.
func (r Reader) Series(f Filter, fom string) []Point {
	return mergeBySeq(r.covering(f), func(db *DB) []Point { return db.Series(f, fom) },
		func(p Point) int { return p.Seq })
}

// DetectRegressions scans the (merged) series with the single-DB
// semantics; see DB.DetectRegressions.
func (r Reader) DetectRegressions(f Filter, fom string, window int, threshold float64) []Regression {
	return DetectInSeries(r.Series(f, fom), window, threshold)
}

// Systems returns the distinct system names present, sorted.
func (r Reader) Systems() []string {
	seen := map[string]bool{}
	for _, db := range r.dbs {
		for _, s := range db.Systems() {
			seen[s] = true
		}
	}
	return sortedKeys(make([]string, 0, len(seen)), seen)
}
