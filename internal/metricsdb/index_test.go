package metricsdb

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// checkPostings asserts the index invariant: every result is named by
// exactly one posting list — its own pair's — and each list ascends.
func checkPostings(t *testing.T, name string, db *DB) {
	t.Helper()
	db.mu.RLock()
	defer db.mu.RUnlock()
	total := 0
	for k, list := range db.postings {
		if len(list) == 0 {
			t.Errorf("%s: empty posting list for %+v", name, k)
		}
		for j, pos := range list {
			if j > 0 && list[j-1] >= pos {
				t.Errorf("%s: postings of %+v not ascending at %d: %v", name, k, j, list)
			}
			if int(pos) >= db.len() {
				t.Fatalf("%s: postings of %+v name position %d of %d", name, k, pos, db.len())
			}
			if r, h := db.at(int(pos)), &db.heads[db.at(int(pos)).head]; h.System != k.system || h.Benchmark != k.benchmark {
				t.Errorf("%s: postings of %+v name Seq %d of (%s, %s)", name, k, r.Seq, h.System, h.Benchmark)
			}
		}
		total += len(list)
	}
	if total != db.len() {
		t.Errorf("%s: postings name %d positions, the database holds %d results", name, total, db.len())
	}
}

// schedule is a reproducible stream of choices: draw n is the head of
// SHA-256(seed, n) (DESIGN §6 — no clock, no math/rand global).
type schedule struct {
	seed string
	n    uint64
}

func (s *schedule) draw(mod int) int {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s\x00%d", s.seed, s.n)))
	s.n++
	return int(binary.BigEndian.Uint64(sum[:8]) % uint64(mod))
}

// oracle is the naive model: every result a DB took, in arrival order —
// which is Seq order, a DB only appending — and answers that scan all of
// it.
type oracle struct {
	arrived []Result
	maxSeq  int
}

func (o *oracle) store(r Result) {
	o.arrived = append(o.arrived, r)
	o.maxSeq = r.Seq
}

func (o *oracle) query(f Filter) []Result {
	var out []Result
	for _, r := range o.arrived {
		if (f.System == "" || f.System == r.System) && (f.Benchmark == "" || f.Benchmark == r.Benchmark) &&
			(f.Workload == "" || f.Workload == r.Workload) && (f.Experiment == "" || f.Experiment == r.Experiment) {
			out = append(out, r)
		}
	}
	return out
}

// after is QueryAfterN off the flat store: a linear search, a slice.
func (o *oracle) after(seq, n int) []Result {
	flat := o.arrived
	for len(flat) > 0 && flat[0].Seq <= seq {
		flat = flat[1:]
	}
	return flat[:min(n, len(flat))]
}

func (o *oracle) usage() []UsageRow {
	var out []UsageRow
	for _, b := range propBenchmarks {
		row, systems := UsageRow{Benchmark: b}, map[string]bool{}
		for _, r := range o.arrived {
			if r.Benchmark == b {
				row.Runs, row.LastSeq, systems[r.System] = row.Runs+1, max(row.LastSeq, r.Seq), true
			}
		}
		if row.Systems = len(systems); row.Runs > 0 {
			out = append(out, row)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Runs > out[j].Runs })
	return out
}

func (o *oracle) series(f Filter, fom string) []Point {
	var out []Point
	for _, r := range o.query(f) {
		if v, ok := r.FOMs[fom]; ok {
			out = append(out, Point{Seq: r.Seq, Value: v, TraceID: r.TraceID})
		}
	}
	return out
}

// naiveDetect is the detector as it was before it shared a sort
// buffer: a fresh slice per sample.
func naiveDetect(series []Point, window int, threshold float64) []Regression {
	if window < 2 || len(series) < window+1 {
		return nil
	}
	var out []Regression
	for i := window; i < len(series); i++ {
		vals := make([]float64, 0, window)
		for _, p := range series[i-window : i] {
			vals = append(vals, p.Value)
		}
		sort.Float64s(vals)
		base := vals[window/2]
		if window%2 == 0 {
			base = (vals[window/2-1] + vals[window/2]) / 2
		}
		if base == 0 {
			continue
		}
		ratio := series[i].Value / base
		if (threshold >= 1 && ratio >= threshold) || (threshold < 1 && ratio <= threshold) {
			out = append(out, Regression{Seq: series[i].Seq, Value: series[i].Value, Baseline: base, Ratio: ratio})
		}
	}
	return out
}

func (o *oracle) systems() []string {
	seen := map[string]bool{}
	for _, r := range o.arrived {
		seen[r.System] = true
	}
	return sortedKeys(nil, seen)
}

// The property test's value domains. ("s2", "b2") is never stored
// though both names are; "never" is stored nowhere.
var (
	propSystems     = []string{"s0", "s1", "s2"}
	propBenchmarks  = []string{"b0", "b1", "b2"}
	propWorkloads   = []string{"w0", "w1"}
	propExperiments = []string{"e0", "e1"}
	propValues      = []float64{1, 1, 1.05, 0.95, 2, 0.5, 0}
)

// propFilters is every pinned/unpinned shape of the four fields — all
// 16 — with every stored value and one unstored value in each pinned
// field.
func propFilters() []Filter {
	with := func(vals []string) []string { return append(append([]string{""}, vals...), "never") }
	var out []Filter
	for _, s := range with(propSystems) {
		for _, b := range with(propBenchmarks) {
			for _, w := range with(propWorkloads) {
				for _, e := range with(propExperiments) {
					out = append(out, Filter{System: s, Benchmark: b, Workload: w, Experiment: e})
				}
			}
		}
	}
	return out
}

// TestIndexAgreesWithScanOracle drives seeded interleavings of Add,
// Insert of a new top Seq, InsertAll (in order, and with one straggler
// at or below the result before it) and a SaveJSON→LoadJSON round trip,
// beside inserts the DB must refuse — a tie with the top, a Seq below it,
// a batch with a straggler — and after every step holds every filtered
// read to the naive oracle's answer: a refused insert stores nothing.
// Each seed then grows its database across three chunks a batch at a
// time, reads every page that straddles a boundary, both as Results and
// encoded from the rows, and offers the Seq of the result at position 0,
// chunkLen-1, chunkLen and the top, and the Seq just below each: every
// one is refused, and every read stays as it was.
func TestIndexAgreesWithScanOracle(t *testing.T) {
	filters := propFilters()
	for _, seed := range []string{"index-1", "index-2", "index-3"} {
		sch := &schedule{seed: seed}
		db, want := New(), &oracle{}
		fresh := func() Result {
			r := Result{
				System:     propSystems[sch.draw(len(propSystems))],
				Benchmark:  propBenchmarks[sch.draw(len(propBenchmarks))],
				Workload:   propWorkloads[sch.draw(len(propWorkloads))],
				Experiment: propExperiments[sch.draw(len(propExperiments))],
				FOMs:       map[string]float64{"other": 1},
				TraceID:    fmt.Sprintf("%032x", sch.draw(1<<20)),
			}
			if r.System == "s2" && r.Benchmark == "b2" {
				r.Benchmark = "b0"
			}
			if sch.draw(4) > 0 {
				r.FOMs["t"] = propValues[sch.draw(len(propValues))]
			}
			return r
		}
		// batch is n fresh results on new top Seqs; with a straggler, one of
		// them, whose index it returns (-1 without), lies anywhere at or
		// below the Seq before it.
		batch := func(n int, straggler bool) ([]Result, int) {
			rs := make([]Result, n)
			for j := range rs {
				rs[j] = fresh()
				rs[j].Seq = want.maxSeq + 1 + j
			}
			if !straggler {
				return rs, -1
			}
			bad, prev := sch.draw(n), want.maxSeq
			if bad > 0 {
				prev = rs[bad-1].Seq
			}
			rs[bad].Seq = sch.draw(prev + 1)
			return rs, bad
		}
		// apply inserts rs — one alone by Insert — which the DB must take
		// when bad < 0, and otherwise refuse, naming result bad.
		apply := func(name string, bad int, rs ...Result) {
			t.Helper()
			var err error
			if len(rs) == 1 {
				err = db.Insert(rs[0])
			} else {
				err = db.InsertAll(rs)
			}
			switch {
			case bad < 0 && err != nil:
				t.Fatalf("%s: inserting Seqs %v over %d: %v", name, seqs(rs), want.maxSeq, err)
			case bad < 0:
				for _, r := range rs {
					want.store(r)
				}
			case err == nil || !strings.Contains(err.Error(), fmt.Sprintf("result %d of %d has Seq %d,", bad, len(rs), rs[bad].Seq)):
				t.Fatalf("%s: inserting Seqs %v over %d: err %v, want result %d refused", name, seqs(rs), want.maxSeq, err, bad)
			}
		}
		// check holds the cheap reads, and every filtered read under fs, to
		// the oracle.
		check := func(name string, fs []Filter) {
			t.Helper()
			checkPostings(t, name, db)
			if db.MaxSeq() != want.maxSeq || db.Len() != len(want.arrived) {
				t.Fatalf("%s: MaxSeq %d Len %d, want %d %d", name, db.MaxSeq(), db.Len(), want.maxSeq, len(want.arrived))
			}
			if got, w := db.Systems(), want.systems(); len(got) != len(w) || (len(w) > 0 && !reflect.DeepEqual(got, w)) {
				t.Fatalf("%s: Systems = %v, want %v", name, got, w)
			}
			if got, w := db.Usage(), want.usage(); len(got) != len(w) || (len(w) > 0 && !reflect.DeepEqual(got, w)) {
				t.Fatalf("%s: Usage = %v, want %v", name, got, w)
			}
			for _, f := range fs {
				if got, w := db.Query(f), want.query(f); !reflect.DeepEqual(got, w) {
					t.Fatalf("%s: Query(%+v) = Seqs %v, want %v", name, f, seqs(got), seqs(w))
				}
				series := want.series(f, "t")
				if got := db.Series(f, "t"); !reflect.DeepEqual(got, series) {
					t.Fatalf("%s: Series(%+v) = %v, want %v", name, f, got, series)
				}
				for _, th := range []float64{1.2, 0.8} {
					if got, w := db.DetectRegressions(f, "t", 3, th), naiveDetect(series, 3, th); !sameRegressions(got, w) {
						t.Fatalf("%s: DetectRegressions(%+v, %v) = %v, want %v", name, f, th, got, w)
					}
				}
			}
		}
		// An empty DB takes any first Seq (TestRefusedInsertAllChangesNothing);
		// from here on every op meets a top.
		r := fresh()
		r.Seq = db.Add(r)
		want.store(r)
		for step := 0; step < 90; step++ {
			name := fmt.Sprintf("%s step %d", seed, step)
			op := sch.draw(12)
			switch {
			case op < 3: // Add
				r := fresh()
				r.Seq = want.maxSeq + 1
				if seq := db.Add(r); seq != r.Seq {
					t.Fatalf("%s: Add assigned Seq %d, want %d", name, seq, r.Seq)
				}
				want.store(r)
			case op < 6: // Insert: a new top Seq, past a gap or not, or a tie with the top
				r, gap := fresh(), sch.draw(3)
				r.Seq = want.maxSeq + gap
				bad := -1
				if gap == 0 {
					bad = 0
				}
				apply(name, bad, r)
			case op < 8: // Insert below the top, 0 included
				r := fresh()
				r.Seq = sch.draw(want.maxSeq)
				apply(name, 0, r)
			case op < 11: // InsertAll: a few at once, every other batch with a straggler
				rs, bad := batch(1+sch.draw(4), op == 10)
				apply(name, bad, rs...)
			default: // round trip; nothing new is stored
				dump, err := db.SaveJSON()
				if err != nil {
					t.Fatal(err)
				}
				if db, err = LoadJSON(dump); err != nil {
					t.Fatal(err)
				}
			}
			check(name, filters)
		}
		if len(want.arrived) < 40 {
			t.Fatalf("%s stored only %d results", seed, len(want.arrived))
		}

		// Across three chunks, a commit group at a time. Every filter after
		// every batch would be minutes: a drawn handful, then all of them.
		for n := 0; len(want.arrived) < 2*chunkLen+chunkLen/8; n++ {
			name := fmt.Sprintf("%s at %d results", seed, len(want.arrived))
			rs, bad := batch(50+sch.draw(200), n%3 == 2)
			apply(name, bad, rs...)
			check(name, []Filter{filters[sch.draw(len(filters))], filters[sch.draw(len(filters))], {}})
		}
		pages := func(name string) {
			t.Helper()
			flat := want.arrived
			for _, b := range []int{chunkLen, 2 * chunkLen} {
				for from := b - 3; from <= b+1; from++ {
					for _, n := range []int{0, 1, 2, 3, 5, chunkLen, chunkLen + 2, math.MaxInt} {
						seq := flat[from].Seq - 1
						w := want.after(seq, n)
						if got := db.QueryAfterN(seq, n); len(got) != len(w) || (len(w) > 0 && !reflect.DeepEqual(got, w)) {
							t.Fatalf("%s: QueryAfterN(seq %d, n %d) = Seqs %v, want %v", name, seq, n, seqs(got), seqs(w))
						}
						if len(w) == 0 {
							continue
						}
						// The same page encoded from the rows, up to its last Seq.
						upto := w[len(w)-1].Seq
						wantJSON := []byte("kept")
						for _, r := range w {
							wantJSON = append(append(wantJSON, ','), mustJSON(t, r)...)
						}
						got, last, err := db.AppendJSONAfter([]byte("kept"), seq, upto, math.MaxInt, nil)
						if err != nil || last != upto || string(got) != string(wantJSON) {
							t.Fatalf("%s: AppendJSONAfter(seq %d, upto %d) = %d bytes to Seq %d (%v), want %d bytes",
								name, seq, upto, len(got), last, err, len(wantJSON))
						}
						// A limit the first result passes ends the page after it.
						if got, last, _ := db.AppendJSONAfter(nil, seq, upto, 1, nil); string(got) != ","+string(mustJSON(t, w[0])) || last != w[0].Seq {
							t.Fatalf("%s: AppendJSONAfter(seq %d, limit 1) = %s to Seq %d, want result Seq %d alone", name, seq, got, last, w[0].Seq)
						}
					}
				}
			}
			if got := db.QueryAfterN(want.maxSeq, 5); got != nil {
				t.Fatalf("%s: QueryAfterN past the top = %v", name, got)
			}
		}
		check(seed+" grown", filters)
		pages(seed + " grown")
		var pairs []Filter // every (system, benchmark) shape: both ways each chooses to walk
		for _, f := range filters {
			if f.Workload == "" && f.Experiment == "" {
				pairs = append(pairs, f)
			}
		}
		for _, pos := range []int{0, chunkLen - 1, chunkLen, len(want.arrived) - 1} {
			for _, seq := range []int{want.arrived[pos].Seq - 1, want.arrived[pos].Seq} {
				r := fresh()
				r.Seq = seq
				name := fmt.Sprintf("%s Seq %d at position %d of %d", seed, seq, pos, len(want.arrived))
				apply(name, 0, r)
				check(name, pairs)
				pages(name)
			}
		}
		dump, err := db.SaveJSON()
		if err != nil {
			t.Fatal(err)
		}
		if db, err = LoadJSON(dump); err != nil {
			t.Fatal(err)
		}
		check(seed+" reloaded", filters)
		pages(seed + " reloaded")
	}
}

func mustJSON(t *testing.T, r Result) []byte {
	t.Helper()
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// sameRegressions compares bit for bit (DeepEqual would call NaN
// unequal to itself; none is expected, but a mismatch should say so).
func sameRegressions(a, b []Regression) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if a[i].Seq != b[i].Seq || math.Float64bits(a[i].Value) != math.Float64bits(b[i].Value) ||
			math.Float64bits(a[i].Baseline) != math.Float64bits(b[i].Baseline) ||
			math.Float64bits(a[i].Ratio) != math.Float64bits(b[i].Ratio) {
			return false
		}
	}
	return true
}

// TestIndexUnderConcurrentInsert: one goroutine appends — a result at
// a time and in batches, across two chunk boundaries by the end — while
// others read through the index. Run under -race; the reads must also
// stay sorted.
func TestIndexUnderConcurrentInsert(t *testing.T) {
	db := New()
	const total = 2*chunkLen + 200
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				pts := db.Series(Filter{System: "s1", Benchmark: "b1"}, "t")
				for i := 1; i < len(pts); i++ {
					if pts[i-1].Seq > pts[i].Seq {
						t.Errorf("Series out of order: Seq %d before %d", pts[i-1].Seq, pts[i].Seq)
						return
					}
				}
				if s := db.Systems(); len(s) > 2 {
					t.Errorf("Systems = %v", s)
					return
				}
			}
		}()
	}
	var batch []Result
	for i := 1; i <= total; i++ {
		batch = append(batch, Result{Seq: 2 * i, System: fmt.Sprintf("s%d", i%2), Benchmark: "b1",
			FOMs: map[string]float64{"t": float64(i)}})
		if i%8 == 0 || i%3 == 0 || i == total { // batches of one to three
			if err := db.InsertAll(batch); err != nil {
				t.Error(err)
			}
			batch = batch[:0]
		}
	}
	close(done)
	wg.Wait()
	checkPostings(t, "after concurrent inserts", db)
	if n := len(db.Series(Filter{System: "s1", Benchmark: "b1"}, "t")); n != total/2 {
		t.Fatalf("series holds %d points, want %d", n, total/2)
	}
}

// TestSeriesAllocatesOnce pins the read path's cost model: a series
// whose filter pins (system, benchmark) allocates its answer and
// nothing else — no []Result, no growth by doubling, nothing that
// scales with the database or with the number of matches.
func TestSeriesAllocatesOnce(t *testing.T) {
	db := New()
	for i := 0; i < 10000; i++ {
		r := Result{System: fmt.Sprintf("sys%d", i%16), Benchmark: fmt.Sprintf("bench%d", i/16%8),
			Workload: "w", Experiment: fmt.Sprintf("e%d", i%2), FOMs: map[string]float64{"t": float64(i)}}
		if i%2 == 1 {
			r.System, r.Benchmark = "hot", "bench0" // half the database is one series
		}
		db.Add(r)
	}
	for _, tc := range []struct {
		f      Filter
		points int
	}{
		{Filter{System: "sys2", Benchmark: "bench1"}, 78},
		{Filter{System: "hot", Benchmark: "bench0"}, 5000},
		{Filter{System: "hot", Benchmark: "bench0", Experiment: "e1"}, 5000},
		{Filter{System: "hot", Benchmark: "nothing"}, 0},
	} {
		if n := len(db.Series(tc.f, "t")); n != tc.points {
			t.Fatalf("Series(%+v) has %d points, want %d", tc.f, n, tc.points)
		}
		if allocs := testing.AllocsPerRun(20, func() { db.Series(tc.f, "t") }); !raceEnabled && allocs > 1 {
			t.Errorf("Series(%+v) over %d points: %v allocations per call, want at most 1", tc.f, tc.points, allocs)
		}
	}
}

// TestDetectRegressionsBorrowsItsSeries: only the regressions outlive a
// scan, so the series it scans is a pooled buffer's, on one DB and on a
// merged Reader alike. Over a 5,000-point series that is 160 kB a scan
// does not allocate; the least of 21 scans — one that meets a pool the
// GC, or under the race detector chance, emptied reads high — allocates
// under a hundredth of it.
func TestDetectRegressionsBorrowsItsSeries(t *testing.T) {
	one, parts := New(), []*DB{New(), New()}
	for i := 0; i < 5000; i++ {
		r := Result{Seq: i + 1, System: "hot", Benchmark: "b", FOMs: map[string]float64{"t": 1}}
		if err := errors.Join(one.Insert(r), parts[i%2].Insert(r)); err != nil {
			t.Fatal(err)
		}
	}
	f := Filter{System: "hot", Benchmark: "b"}
	series := uint64(5000 * unsafe.Sizeof(Point{}))
	for name, scan := range map[string]func() []Regression{
		"one DB": func() []Regression { return one.DetectRegressions(f, "t", 4, 1.2) },
		"merged": func() []Regression { return NewReader(nil, parts...).DetectRegressions(f, "t", 4, 1.2) },
	} {
		scan()
		least := uint64(math.MaxUint64)
		for range 21 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if regs := scan(); len(regs) != 0 {
				t.Fatalf("%s: a flat series has regressions %v", name, regs)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if !raceEnabled && least >= series/100 {
			t.Errorf("%s: scanning %d bytes of series allocates %d", name, series, least)
		}
	}
}

// TestRecycledAnswersReuseTheirRoom: a Reader's Series and
// DetectRegressions answers are built in room borrowed from the pools
// RecyclePoints and RecycleRegressions refill, so a caller that hands
// each answer back reads a 5,000-point series, and scans it into 1,000
// flags, allocating under a hundredth of the 160 kB series (the scan's
// median buffer), on one DB and merged from two alike.
func TestRecycledAnswersReuseTheirRoom(t *testing.T) {
	one, parts := New(), []*DB{New(), New()}
	for i := 0; i < 5000; i++ {
		r := Result{Seq: i + 1, System: "hot", Benchmark: "b", FOMs: map[string]float64{"t": float64(1 + i%5/4)}}
		if err := errors.Join(one.Insert(r), parts[i%2].Insert(r)); err != nil {
			t.Fatal(err)
		}
	}
	f := Filter{System: "hot", Benchmark: "b"}
	series := uint64(5000 * unsafe.Sizeof(Point{}))
	for name, r := range map[string]Reader{"one DB": NewReader(nil, one), "merged": NewReader(nil, parts...)} {
		read := func() {
			pts, regs := r.Series(f, "t"), r.DetectRegressions(f, "t", 4, 1.2)
			if len(pts) != 5000 || len(regs) != 1000 {
				t.Fatalf("%s: %d points and %d flags, want 5000 and 1000", name, len(pts), len(regs))
			}
			RecyclePoints(pts)
			RecycleRegressions(regs)
		}
		read()
		least := uint64(math.MaxUint64)
		for range 21 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			read()
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if !raceEnabled && least >= series/100 {
			t.Errorf("%s: reading and scanning %d bytes of series, handed back, allocates %d", name, series, least)
		}
	}
}

// flatHeads puts the head map of TestInsertNeverCopiesTheStore's
// reference on the heap, where a DB's is.
var flatHeads map[head]int32

// TestInsertNeverCopiesTheStore pins the write path's cost model: a
// stored row and its pairs are copied into their chunks once and no
// append moves them again. Filling a 50,000-result database of one FOM
// each allocates under 1.3 times the bytes of its rows (32 each) and
// pairs (24 each), posting lists aside — measured 1.03 times; a growing
// slice of rows and one of pairs took 4.9 times, copying themselves for
// every quarter they grew by — and a database smaller than one chunk,
// all a benchmark session ever builds, allocates what those two slices
// and a table of its heads did.
func TestInsertNeverCopiesTheStore(t *testing.T) {
	results := func(n int) []Result {
		rs := make([]Result, n)
		for i := range rs {
			rs[i] = Result{Seq: i + 1, System: propSystems[i%3], Benchmark: propBenchmarks[i/3%2],
				FOMs: map[string]float64{"t": float64(i)}}
		}
		return rs
	}
	allocated := func(fn func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	// flat is the storage the chunks replaced — a slice of rows and one
	// of their pairs — under the same posting lists and head table; with
	// keep false, the lists alone.
	flat := func(rs []Result, keep bool) uint64 {
		return allocated(func() {
			var store []row
			var pairs []pair[float64]
			postings, heads, ids := map[pairKey][]int32{}, []head(nil), map[head]int32{}
			for i := range rs {
				if keep {
					k := headOf(&rs[i])
					id, ok := ids[k]
					if !ok {
						id, heads = int32(len(heads)), append(heads, k)
						ids[k] = id
					}
					at := len(pairs)
					for name, v := range rs[i].FOMs {
						pairs = append(pairs, pair[float64]{name, v})
					}
					store = append(store, row{Seq: rs[i].Seq, head: id,
						foms: span{uint32(at), uint32(len(pairs) - at)}, meta: span{n: absent}})
				}
				k := pairKey{rs[i].System, rs[i].Benchmark}
				postings[k] = append(postings[k], int32(i))
			}
			runtime.KeepAlive(store)
			runtime.KeepAlive(pairs)
			runtime.KeepAlive(heads)
			flatHeads = ids
		})
	}
	chunked := func(rs []Result, group int) uint64 {
		return allocated(func() {
			db := New()
			for at := 0; at < len(rs); at += group {
				if err := db.InsertAll(rs[at:min(at+group, len(rs))]); err != nil {
					t.Fatal(err)
				}
			}
			runtime.KeepAlive(db)
		})
	}

	large := results(50000)
	own := uint64(len(large)) * uint64(unsafe.Sizeof(row{})+unsafe.Sizeof(pair[float64]{}))
	lists := flat(large, false)
	got, was := chunked(large, 100)-lists, flat(large, true)-lists
	t.Logf("%d bytes of rows and pairs: the DB allocates %d for them, two slices %d (posting lists, %d, aside)", own, got, was, lists)
	if raceEnabled {
		return
	}
	if got >= own*13/10 {
		t.Errorf("storing %d bytes of rows and pairs allocated %d, want < 1.3x", own, got)
	}
	if was < 4*own {
		t.Errorf("two slices allocated %d for %d bytes of rows and pairs: this no longer measures copying", was, own)
	}

	small := results(600)
	// 1 KiB: the DB, its chunk tables, its trace table and its posting
	// map's first group, which local slices and a local map keep on the
	// stack.
	got, was = chunked(small, 1), flat(small, true)
	t.Logf("a 600-result DB allocates %d bytes, two slices with the same posting lists and heads %d", got, was)
	if got > was+1<<10 {
		t.Errorf("a 600-result DB allocated %d bytes, two slices with the same posting lists and heads %d", got, was)
	}
}

// TestFirstChunkGrowsToChunkLen: the first chunk grows as a slice of
// 32-byte rows does, through 512 and 852 rows, and its next step, which
// would pass chunkLen, lands on chunkLen exactly: a full first chunk has
// no slack, and the next result opens a second chunk instead of growing
// the first.
func TestFirstChunkGrowsToChunkLen(t *testing.T) {
	db := New()
	var caps []int
	for i := 0; i <= chunkLen; i++ {
		db.Add(Result{Benchmark: "b", System: "s", FOMs: map[string]float64{"t": float64(i)}})
		if c := cap(db.rows[0]); len(caps) == 0 || caps[len(caps)-1] != c {
			caps = append(caps, c)
		}
	}
	if c := caps[len(caps)-1]; c != chunkLen || len(db.rows) != 2 || len(db.rows[0]) != chunkLen {
		t.Fatalf("the first chunk grew through capacities %v to %d rows in %d chunks, want it full at exactly %d and a second chunk",
			caps, len(db.rows[0]), len(db.rows), chunkLen)
	}
	if want := []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 852, chunkLen}; unsafe.Sizeof(uintptr(0)) == 8 && !reflect.DeepEqual(caps, want) {
		t.Errorf("the first chunk grew through capacities %v, want %v", caps, want)
	}
	t.Logf("the first chunk grew through capacities %v", caps)
}

// TestRowsShareTheirHeads pins what a stored result costs: a row names
// the one head of its series by number, so 100,000 one-FOM results over
// 512 heads keep under 66 B live each (64.6 measured) — the 32-byte
// row, its 24-byte pair in the FOM arena, its 4-byte posting and a share
// of the last chunks' slack; 110.4 B when the row was 80 bytes, pointing
// at its head and holding its pairs' and trace ID's headers, 118 B when
// a row also held an ID beside its Seq, 188 B when every row held its
// own five strings.
func TestRowsShareTheirHeads(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) == 8 && unsafe.Sizeof(row{}) > 32 {
		t.Errorf("a row is %d bytes, want at most 32", unsafe.Sizeof(row{}))
	}
	const results, heads = 100000, 512
	tuples := make([]Result, heads)
	for i := range tuples {
		tuples[i] = Result{Benchmark: fmt.Sprintf("bench-%d", i%8), Workload: "standard",
			System: fmt.Sprintf("sys-%02d", i/8%16), Experiment: fmt.Sprintf("exp-%03d", i), Manifest: fmt.Sprintf("spack: {env: %d}", i/64)}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	db := New()
	batch := make([]Result, 100)
	for at := 0; at < results; at += len(batch) {
		for i := range batch {
			r := tuples[(at+i)%heads]
			r.Seq, r.FOMs = at+i+1, map[string]float64{"t": float64(i)}
			batch[i] = r
		}
		if err := db.InsertAll(batch); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / results
	t.Logf("%d results over %d heads keep %.1f B live each", results, heads, per)
	if !raceEnabled && per >= 66 {
		t.Errorf("%d one-FOM results keep %.1f B live each, want < 66", results, per)
	}
	if len(db.heads) != heads {
		t.Errorf("the DB holds %d heads, want %d", len(db.heads), heads)
	}
	for pos := range results {
		if r, want := db.at(pos), db.headIDs[headOf(&tuples[pos%heads])]; r.head != want || db.heads[want] != headOf(&tuples[pos%heads]) {
			t.Fatalf("result %d names head %d %+v, want the DB's %d", r.Seq, r.head, db.heads[r.head], want)
		}
	}
}

// TestArenaEdgesMatchFlatOracle stores results whose pairs lie where the
// arenas' layout has edges — runs of 9 to 13 pairs, which end a chunk
// with a rest too short for the next run; runs of chunkLen-1, chunkLen
// and chunkLen+1; nil, empty and single maps between them; and one
// result of 1<<16+1 FOMs and Meta members, more than a 16-bit count
// holds, which gets a chunk of its own — in batches and one at a time.
// Query, QueryAfterN, AppendJSONAfter with and without a table, Series
// and SaveJSON all answer as the flat list of what went in.
func TestArenaEdgesMatchFlatOracle(t *testing.T) {
	members := func(n int, seed int) (map[string]float64, map[string]string) {
		foms, meta := make(map[string]float64, n), make(map[string]string, n)
		for i := range n {
			foms[fmt.Sprintf("f%05d", (i*7919+seed)%n)] = float64(i*seed) / 8
			meta[fmt.Sprintf("m%d", n-i)] = fmt.Sprint(i + seed)
		}
		return foms, meta
	}
	var in []Result
	add := func(foms map[string]float64, meta map[string]string) {
		i := len(in)
		in = append(in, Result{Seq: 3 * (i + 1), Benchmark: propBenchmarks[i%2], System: propSystems[i%3],
			Experiment: propExperiments[i/5%2], FOMs: foms, Meta: meta, TraceID: fmt.Sprintf("run-%d", i/4)})
	}
	for i := 0; i < 600; i++ {
		switch i % 7 {
		case 0:
			add(nil, nil)
		case 1:
			add(map[string]float64{}, map[string]string{})
		case 2:
			add(map[string]float64{"t": float64(i)}, nil)
		default:
			add(members(9+i%5, i))
		}
		switch i {
		case 100:
			add(members(chunkLen-1, i))
		case 200:
			add(members(chunkLen, i))
		case 300:
			add(members(chunkLen+1, i))
		case 400:
			add(members(1<<16+1, i))
			in[len(in)-1].System = "wide" // in no filtered read
		}
	}

	batched, single := New(), New()
	for at, size := 0, 1; at < len(in); at, size = at+size, size%37+1 {
		if err := batched.InsertAll(in[at:min(at+size, len(in))]); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range in {
		if err := single.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	var short, own bool // a chunk left with a rest unused, a chunk of a run's own
	for _, chunk := range batched.foms[:len(batched.foms)-1] {
		short = short || len(chunk) < chunkLen
		own = own || cap(chunk) > chunkLen
	}
	if !short || !own {
		t.Fatalf("the FOM arena's chunks (%d) have no unused rest (%v) or no chunk of a run's own (%v): this no longer tests the edges",
			len(batched.foms), short, own)
	}

	flatJSON, err := AppendResults(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	var flatTable HeadTable
	flatFile, err := appendResults(nil, in, &flatTable)
	if err != nil {
		t.Fatal(err)
	}
	flatFile = flatTable.AppendTables(flatFile)
	flatSave, err := json.MarshalIndent(in, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	o := &oracle{arrived: in}
	for name, db := range map[string]*DB{"batched": batched, "one at a time": single} {
		if got := db.Query(Filter{}); !reflect.DeepEqual(got, in) {
			t.Fatalf("%s: Query returns %d results that are not the %d stored", name, len(got), len(in))
		}
		for _, f := range []Filter{{System: "s1", Benchmark: "b0"}, {System: "s2"}, {Experiment: "e1"}} {
			if got, want := db.Query(f), o.query(f); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: Query(%+v) = Seqs %v, want %v", name, f, seqs(got), seqs(want))
			}
			for _, fom := range []string{"t", "f00003", "f65536"} {
				if got, want := db.Series(f, fom), o.series(f, fom); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: Series(%+v, %q) = %v, want %v", name, f, fom, got, want)
				}
			}
		}
		for seq := 0; seq <= in[len(in)-1].Seq; seq += 61 {
			if got, want := db.QueryAfterN(seq, 50), o.after(seq, 50); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: QueryAfterN(%d, 50) = Seqs %v, want %v", name, seq, seqs(got), seqs(want))
			}
		}
		got, last, err := db.AppendJSONAfter(nil, 0, math.MaxInt, math.MaxInt, nil)
		if err != nil || last != in[len(in)-1].Seq || string(got[1:]) != string(flatJSON[1:len(flatJSON)-1]) {
			t.Fatalf("%s: AppendJSONAfter wrote %d bytes (%v, last %d), not the %d of the stored results", name, len(got), err, last, len(flatJSON))
		}
		var table HeadTable
		if got, _, err = db.AppendJSONAfter([]byte{'['}, 0, math.MaxInt, math.MaxInt, &table); err == nil {
			got = table.AppendTables(append(got[:1], append(got[2:], ']')...))
		}
		if err != nil || string(got) != string(flatFile) {
			t.Fatalf("%s: AppendJSONAfter with a table wrote %d bytes (%v), not the %d a file of the stored results holds", name, len(got), err, len(flatFile))
		}
		if save, err := db.SaveJSON(); err != nil || save != string(flatSave) {
			t.Fatalf("%s: SaveJSON wrote %d bytes (%v), json.MarshalIndent of the stored results %d", name, len(save), err, len(flatSave))
		}
	}
}
