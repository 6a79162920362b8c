package metricsdb

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
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
			if r := db.at(int(pos)); r.System != k.system || r.Benchmark != k.benchmark {
				t.Errorf("%s: postings of %+v name Seq %d of (%s, %s)", name, k, r.Seq, r.System, r.Benchmark)
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

// oracle is the naive model: every result ever stored, in arrival
// order. Its answers scan all of it and stable-sort by Seq, which is
// where Insert's "after any equal Seq" puts a tie.
type oracle struct {
	arrived []Result
	flat    []Result // sorted's answer for len(flat) arrivals
	maxID   int
	maxSeq  int
}

func (o *oracle) store(r Result) {
	o.arrived = append(o.arrived, r)
	o.maxID, o.maxSeq = max(o.maxID, r.ID), max(o.maxSeq, r.Seq)
}

// sorted is the flat store a DB must agree with: one plain []Result,
// rebuilt from scratch whenever something arrived since the last call.
func (o *oracle) sorted() []Result {
	if len(o.flat) != len(o.arrived) {
		o.flat = append(o.flat[:0], o.arrived...)
		sort.SliceStable(o.flat, func(i, j int) bool { return o.flat[i].Seq < o.flat[j].Seq })
	}
	return o.flat
}

func (o *oracle) query(f Filter) []Result {
	var out []Result
	for _, r := range o.sorted() {
		if (f.System == "" || f.System == r.System) && (f.Benchmark == "" || f.Benchmark == r.Benchmark) &&
			(f.Workload == "" || f.Workload == r.Workload) && (f.Experiment == "" || f.Experiment == r.Experiment) {
			out = append(out, r)
		}
	}
	return out
}

// after is QueryAfterN off the flat store: a linear search, a slice.
func (o *oracle) after(seq, n int) []Result {
	flat := o.sorted()
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
// in-order Insert, out-of-order Insert (equal-Seq ties and inserts at
// position 0 included), InsertAll (in order, and with one straggler
// inside the batch) and a SaveJSON→LoadJSON round trip, and after every
// step holds every filtered read to the naive oracle's answer. Each
// seed then grows its database across three chunks a batch at a time,
// lands an out-of-order insert on each side of a chunk boundary, at
// position 0 and one below the top — every one ripples through the
// chunks above it — and reads every page that straddles a boundary,
// both as Results and encoded from the rows.
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
		// batch is n fresh results on new top Seqs; with a straggler, one
		// of them is anywhere below instead.
		batch := func(n int, straggler bool) []Result {
			rs := make([]Result, n)
			for j := range rs {
				rs[j] = fresh()
				rs[j].ID, rs[j].Seq = want.maxID+1+j, want.maxSeq+1+j
			}
			if straggler {
				rs[sch.draw(n)].Seq = sch.draw(want.maxSeq + 1)
			}
			return rs
		}
		insertAll := func(rs []Result) {
			db.InsertAll(rs)
			for _, r := range rs {
				want.store(r)
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
		for step := 0; step < 90; step++ {
			op := sch.draw(12)
			switch {
			case op < 3: // Add
				r := fresh()
				r.ID, r.Seq = want.maxID+1, want.maxSeq+1
				if id := db.Add(r); id != r.ID {
					t.Fatalf("%s step %d: Add assigned ID %d, want %d", seed, step, id, r.ID)
				}
				want.store(r)
			case op < 5: // in-order Insert: a new top Seq, or a tie with it
				r := fresh()
				r.ID, r.Seq = want.maxID+1, want.maxSeq+sch.draw(3)
				db.Insert(r)
				want.store(r)
			case op < 9: // out-of-order Insert: anywhere below, 0 lands first
				r := fresh()
				r.ID, r.Seq = want.maxID+1, sch.draw(want.maxSeq+1)
				db.Insert(r)
				want.store(r)
			case op < 11: // InsertAll: a few at once, every other batch with a straggler
				insertAll(batch(1+sch.draw(4), op == 10))
			default: // round trip; nothing new is stored
				dump, err := db.SaveJSON()
				if err != nil {
					t.Fatal(err)
				}
				if db, err = LoadJSON(dump); err != nil {
					t.Fatal(err)
				}
			}
			check(fmt.Sprintf("%s step %d", seed, step), filters)
		}
		if len(want.arrived) < 40 {
			t.Fatalf("%s stored only %d results", seed, len(want.arrived))
		}

		// Across three chunks, a commit group at a time. Every filter after
		// every batch would be minutes: a drawn handful, then all of them.
		for n := 0; len(want.arrived) < 2*chunkLen+chunkLen/8; n++ {
			insertAll(batch(50+sch.draw(200), n%3 == 2))
			check(fmt.Sprintf("%s at %d results", seed, len(want.arrived)),
				[]Filter{filters[sch.draw(len(filters))], filters[sch.draw(len(filters))], {}})
		}
		pages := func(name string) {
			t.Helper()
			flat := want.sorted()
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
						// The same page encoded from the rows, up to its last Seq:
						// a tie just past it comes along, as the Seq bound says.
						upto := w[len(w)-1].Seq
						wantJSON := []byte("kept")
						for _, r := range want.after(seq, math.MaxInt) {
							if r.Seq <= upto {
								wantJSON = append(append(wantJSON, ','), mustJSON(t, r)...)
							}
						}
						got, last, err := db.AppendJSONAfter([]byte("kept"), seq, upto, math.MaxInt)
						if err != nil || last != upto || string(got) != string(wantJSON) {
							t.Fatalf("%s: AppendJSONAfter(seq %d, upto %d) = %d bytes to Seq %d (%v), want %d bytes",
								name, seq, upto, len(got), last, err, len(wantJSON))
						}
						// A limit the first result passes ends the page after it.
						if got, last, _ := db.AppendJSONAfter(nil, seq, upto, 1); string(got) != ","+string(mustJSON(t, w[0])) || last != w[0].Seq {
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
			// The Seq just below the result now at pos lands there, unless
			// the one before it ties — then this seed needs another draw.
			flat := want.sorted()
			r := fresh()
			r.ID, r.Seq = want.maxID+1, flat[pos].Seq-1
			if pos > 0 && flat[pos-1].Seq > r.Seq {
				t.Fatalf("%s: results %d and %d tie at Seq %d; nothing lands between them", seed, pos-1, pos, flat[pos].Seq)
			}
			db.Insert(r)
			want.store(r)
			name := fmt.Sprintf("%s insert at %d of %d", seed, pos, len(flat))
			if at := db.at(pos); at.ID != r.ID {
				t.Fatalf("%s: position %d holds ID %d Seq %d, want ID %d Seq %d", name, pos, at.ID, at.Seq, r.ID, r.Seq)
			}
			check(name, pairs)
			pages(name)
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

// TestIndexUnderConcurrentInsert: one goroutine Inserts — mostly at the
// top, every eighth below it, which moves every result above it, across
// two chunk boundaries by the end, and rebuilds the index — while
// others read through it. Run under -race; the reads must also stay
// sorted.
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
	for i := 1; i <= total; i++ {
		seq := 2 * i
		if i%8 == 0 {
			seq = i // odd or even, well below the top
		}
		db.Insert(Result{ID: i, Seq: seq, System: fmt.Sprintf("s%d", i%2), Benchmark: "b1",
			FOMs: map[string]float64{"t": float64(i)}})
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
		r := Result{ID: i + 1, Seq: i + 1, System: "hot", Benchmark: "b", FOMs: map[string]float64{"t": 1}}
		one.Insert(r)
		parts[i%2].Insert(r)
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

// TestInsertNeverCopiesTheStore pins the write path's cost model: a
// stored row is copied into its chunk once and no append moves it
// again. Filling a 50,000-result database allocates under 1.3 times the
// rows' own bytes (160 each), posting lists aside — one growing slice
// took 5 times, copying itself for every quarter it grew by — and a
// database smaller than one chunk, all a benchmark session ever builds,
// allocates what that slice did.
func TestInsertNeverCopiesTheStore(t *testing.T) {
	results := func(n int) []Result {
		rs := make([]Result, n)
		for i := range rs {
			rs[i] = Result{ID: i + 1, Seq: i + 1, System: propSystems[i%3], Benchmark: propBenchmarks[i/3%2]}
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
	// flat is the storage the chunks replaced — one slice — under the
	// same posting lists; with keep false, the lists alone.
	flat := func(rs []Result, keep bool) uint64 {
		return allocated(func() {
			var store []row
			postings := map[pairKey][]int32{}
			for i := range rs {
				if keep {
					store = append(store, storedRow(&rs[i]))
				}
				k := pairKey{rs[i].System, rs[i].Benchmark}
				postings[k] = append(postings[k], int32(i))
			}
			runtime.KeepAlive(store)
		})
	}
	chunked := func(rs []Result, group int) uint64 {
		return allocated(func() {
			db := New()
			for at := 0; at < len(rs); at += group {
				db.InsertAll(rs[at:min(at+group, len(rs))])
			}
			runtime.KeepAlive(db)
		})
	}

	large := results(50000)
	own, lists := uint64(len(large))*uint64(unsafe.Sizeof(row{})), flat(large, false)
	got, was := chunked(large, 100)-lists, flat(large, true)-lists
	t.Logf("%d bytes of rows: the DB allocates %d for them, one slice %d (posting lists, %d, aside)", own, got, was, lists)
	if raceEnabled {
		return
	}
	if got >= own*13/10 {
		t.Errorf("storing %d bytes of rows allocated %d, want < 1.3x", own, got)
	}
	if was < 4*own {
		t.Errorf("one slice allocated %d for %d bytes of rows: this no longer measures copying", was, own)
	}

	small := results(600)
	// 1 KiB: the DB, its chunk table and its map's first bucket, which a
	// local slice and a local map keep on the stack.
	if got, was := chunked(small, 1), flat(small, true); got > was+1<<10 {
		t.Errorf("a 600-result DB allocated %d bytes, one slice with the same posting lists %d", got, was)
	}
}
