package metricsdb

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"
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
			if int(pos) >= len(db.results) {
				t.Fatalf("%s: postings of %+v name position %d of %d", name, k, pos, len(db.results))
			}
			if r := db.results[pos]; r.System != k.system || r.Benchmark != k.benchmark {
				t.Errorf("%s: postings of %+v name Seq %d of (%s, %s)", name, k, r.Seq, r.System, r.Benchmark)
			}
		}
		total += len(list)
	}
	if total != len(db.results) {
		t.Errorf("%s: postings name %d positions, the database holds %d results", name, total, len(db.results))
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
	maxID   int
	maxSeq  int
}

func (o *oracle) store(r Result) {
	o.arrived = append(o.arrived, r)
	o.maxID, o.maxSeq = max(o.maxID, r.ID), max(o.maxSeq, r.Seq)
}

func (o *oracle) query(f Filter) []Result {
	var out []Result
	for _, r := range o.arrived {
		if (f.System == "" || f.System == r.System) && (f.Benchmark == "" || f.Benchmark == r.Benchmark) &&
			(f.Workload == "" || f.Workload == r.Workload) && (f.Experiment == "" || f.Experiment == r.Experiment) {
			out = append(out, r)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
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
// position 0 included) and a SaveJSON→LoadJSON round trip, and after
// every step holds every filtered read to the naive oracle's answer.
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
		for step := 0; step < 90; step++ {
			op := sch.draw(10)
			r := fresh()
			switch {
			case op < 3: // Add
				r.ID, r.Seq = want.maxID+1, want.maxSeq+1
				if id := db.Add(r); id != r.ID {
					t.Fatalf("%s step %d: Add assigned ID %d, want %d", seed, step, id, r.ID)
				}
			case op < 5: // in-order Insert: a new top Seq, or a tie with it
				r.ID, r.Seq = want.maxID+1, want.maxSeq+sch.draw(3)
				db.Insert(r)
			case op < 9: // out-of-order Insert: anywhere below, 0 lands first
				r.ID, r.Seq = want.maxID+1, sch.draw(want.maxSeq+1)
				db.Insert(r)
			default: // round trip; nothing new is stored
				dump, err := db.SaveJSON()
				if err != nil {
					t.Fatal(err)
				}
				if db, err = LoadJSON(dump); err != nil {
					t.Fatal(err)
				}
				r = Result{}
			}
			if r.ID != 0 {
				want.store(r)
			}
			name := fmt.Sprintf("%s step %d", seed, step)
			checkPostings(t, name, db)
			if db.MaxSeq() != want.maxSeq || db.Len() != len(want.arrived) {
				t.Fatalf("%s: MaxSeq %d Len %d, want %d %d", name, db.MaxSeq(), db.Len(), want.maxSeq, len(want.arrived))
			}
			if got, w := db.Systems(), want.systems(); len(got) != len(w) || (len(w) > 0 && !reflect.DeepEqual(got, w)) {
				t.Fatalf("%s: Systems = %v, want %v", name, got, w)
			}
			for _, f := range filters {
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
		if len(want.arrived) < 40 {
			t.Fatalf("%s stored only %d results", seed, len(want.arrived))
		}
	}
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
// top, every eighth below it, which rebuilds the index — while others
// read through it. Run under -race; the reads must also stay sorted.
func TestIndexUnderConcurrentInsert(t *testing.T) {
	db := New()
	const total = 2000
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
		if allocs := testing.AllocsPerRun(20, func() { db.Series(tc.f, "t") }); allocs > 1 {
			t.Errorf("Series(%+v) over %d points: %v allocations per call, want at most 1", tc.f, tc.points, allocs)
		}
	}
}
