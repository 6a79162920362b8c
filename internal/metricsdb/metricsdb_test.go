package metricsdb

import (
	"encoding/json"
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"
)

func TestAddAndQuery(t *testing.T) {
	db := New()
	db.Add(Result{Benchmark: "saxpy", System: "cts1", Experiment: "e1",
		FOMs: map[string]float64{"time": 1.5}})
	db.Add(Result{Benchmark: "saxpy", System: "ats2", Experiment: "e1",
		FOMs: map[string]float64{"time": 0.9}})
	db.Add(Result{Benchmark: "amg2023", System: "cts1", Experiment: "e2",
		FOMs: map[string]float64{"fom": 2e6}})

	if db.Len() != 3 {
		t.Fatalf("len = %d", db.Len())
	}
	if got := db.Query(Filter{Benchmark: "saxpy"}); len(got) != 2 {
		t.Errorf("saxpy results = %d", len(got))
	}
	if got := db.Query(Filter{Benchmark: "saxpy", System: "cts1"}); len(got) != 1 {
		t.Errorf("saxpy/cts1 = %d", len(got))
	}
	if got := db.Query(Filter{}); len(got) != 3 {
		t.Errorf("all = %d", len(got))
	}
	// Sequence numbers increase in insertion order.
	all := db.Query(Filter{})
	for i := 1; i < len(all); i++ {
		if all[i].Seq <= all[i-1].Seq {
			t.Error("sequence not monotone")
		}
	}
}

func TestSeries(t *testing.T) {
	db := New()
	for i, v := range []float64{1.0, 1.1, 0.9} {
		db.Add(Result{Benchmark: "saxpy", System: "cts1",
			FOMs: map[string]float64{"time": v, "other": float64(i)}})
	}
	s := db.Series(Filter{Benchmark: "saxpy"}, "time")
	if len(s) != 3 || s[0].Value != 1.0 || s[2].Value != 0.9 {
		t.Errorf("series = %v", s)
	}
	if got := db.Series(Filter{}, "missing"); len(got) != 0 {
		t.Errorf("missing FOM series = %v", got)
	}
}

func TestDetectRegressionSlowdown(t *testing.T) {
	db := New()
	// Stable baseline around 1.0, then a firmware upgrade doubles it.
	vals := []float64{1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 2.1, 2.05}
	for _, v := range vals {
		db.Add(Result{Benchmark: "stream", System: "cts1",
			FOMs: map[string]float64{"time": v}})
	}
	regs := db.DetectRegressions(Filter{Benchmark: "stream"}, "time", 4, 1.2)
	if len(regs) != 2 {
		t.Fatalf("regressions = %v", regs)
	}
	if regs[0].Ratio < 2 {
		t.Errorf("ratio = %v", regs[0].Ratio)
	}
}

func TestDetectRegressionThroughputDrop(t *testing.T) {
	db := New()
	// Bandwidth drops: throughput-like FOM with threshold < 1.
	vals := []float64{100, 101, 99, 100, 100, 60}
	for _, v := range vals {
		db.Add(Result{Benchmark: "stream", System: "cts1",
			FOMs: map[string]float64{"triad_bw": v}})
	}
	regs := db.DetectRegressions(Filter{Benchmark: "stream"}, "triad_bw", 4, 0.8)
	if len(regs) != 1 || regs[0].Value != 60 {
		t.Errorf("regressions = %v", regs)
	}
}

func TestDetectRegressionNoFalsePositives(t *testing.T) {
	db := New()
	for i := 0; i < 20; i++ {
		v := 1.0 + 0.01*float64(i%3)
		db.Add(Result{Benchmark: "saxpy", FOMs: map[string]float64{"time": v}})
	}
	if regs := db.DetectRegressions(Filter{}, "time", 5, 1.2); len(regs) != 0 {
		t.Errorf("false positives: %v", regs)
	}
}

func TestDetectRegressionShortSeries(t *testing.T) {
	db := New()
	db.Add(Result{FOMs: map[string]float64{"t": 1}})
	if regs := db.DetectRegressions(Filter{}, "t", 4, 1.2); regs != nil {
		t.Errorf("short series = %v", regs)
	}
}

func TestSaveLoadJSON(t *testing.T) {
	db := New()
	db.Add(Result{Benchmark: "saxpy", System: "cts1", Manifest: "saxpy@1.0.0+openmp",
		FOMs: map[string]float64{"time": 1.5}, Meta: map[string]string{"compiler": "gcc"}})
	js, err := db.SaveJSON()
	if err != nil {
		t.Fatal(err)
	}
	db2, err := LoadJSON(js)
	if err != nil {
		t.Fatal(err)
	}
	if db2.Len() != 1 {
		t.Fatalf("loaded len = %d", db2.Len())
	}
	r := db2.Query(Filter{})[0]
	if r.Manifest != "saxpy@1.0.0+openmp" || r.Meta["compiler"] != "gcc" || r.FOMs["time"] != 1.5 {
		t.Errorf("round trip: %+v", r)
	}
	// Appending after load continues the sequence.
	id := db2.Add(Result{Benchmark: "x"})
	if id <= 1 {
		t.Errorf("id after load = %d", id)
	}
}

func TestLoadJSONBad(t *testing.T) {
	if _, err := LoadJSON("{not json"); err == nil {
		t.Error("bad JSON should fail")
	}
}

func TestParseFOMs(t *testing.T) {
	in := map[string]string{"time": "1.5", "success": "Kernel done", "iters": "12"}
	out := ParseFOMs(in)
	if len(out) != 2 || out["time"] != 1.5 || out["iters"] != 12 {
		t.Errorf("parsed = %v", out)
	}
}

func TestSystems(t *testing.T) {
	db := New()
	db.Add(Result{System: "cts1"})
	db.Add(Result{System: "ats2"})
	db.Add(Result{System: "cts1"})
	got := db.Systems()
	if len(got) != 2 || got[0] != "ats2" || got[1] != "cts1" {
		t.Errorf("systems = %v", got)
	}
}

func TestConcurrentAdds(t *testing.T) {
	db := New()
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			db.Add(Result{Benchmark: "saxpy", FOMs: map[string]float64{"t": 1}})
			db.Query(Filter{Benchmark: "saxpy"})
		}()
	}
	wg.Wait()
	if db.Len() != 32 {
		t.Errorf("len = %d", db.Len())
	}
	// IDs must be unique.
	seen := map[int]bool{}
	for _, r := range db.Query(Filter{}) {
		if seen[r.ID] {
			t.Errorf("duplicate id %d", r.ID)
		}
		seen[r.ID] = true
	}
}

func TestUsage(t *testing.T) {
	db := New()
	for i := 0; i < 5; i++ {
		db.Add(Result{Benchmark: "saxpy", System: "cts1"})
	}
	db.Add(Result{Benchmark: "saxpy", System: "ats2"})
	db.Add(Result{Benchmark: "amg2023", System: "cts1"})
	rows := db.Usage()
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0].Benchmark != "saxpy" || rows[0].Runs != 6 || rows[0].Systems != 2 {
		t.Errorf("top row = %+v", rows[0])
	}
	if rows[1].Benchmark != "amg2023" || rows[1].LastSeq != 7 {
		t.Errorf("second row = %+v", rows[1])
	}
	if got := New().Usage(); len(got) != 0 {
		t.Errorf("empty usage = %v", got)
	}
}

func TestCompareSystems(t *testing.T) {
	db := New()
	for _, r := range []Result{
		{Benchmark: "saxpy", System: "cts1", Experiment: "e1", FOMs: map[string]float64{"t": 1.0}},
		{Benchmark: "saxpy", System: "cts1", Experiment: "e1", FOMs: map[string]float64{"t": 2.0}}, // latest
		{Benchmark: "saxpy", System: "ats2", Experiment: "e1", FOMs: map[string]float64{"t": 1.0}},
		{Benchmark: "saxpy", System: "cts1", Experiment: "only-cts", FOMs: map[string]float64{"t": 5}},
	} {
		db.Add(r)
	}
	cmp := db.CompareSystems("saxpy", "cts1", "ats2", "t")
	if len(cmp) != 1 {
		t.Fatalf("cmp = %+v", cmp)
	}
	if cmp[0].A != 2.0 || cmp[0].B != 1.0 || cmp[0].Ratio != 0.5 {
		t.Errorf("row = %+v", cmp[0])
	}
}

// TestDetectRegressionEdges pins the boundary semantics documented on
// DetectRegressions: a full window of predecessors is required for
// every judged sample, degenerate windows return nil, and zero
// baselines are skipped rather than dividing.
func TestDetectRegressionEdges(t *testing.T) {
	mk := func(vals []float64) *DB {
		db := New()
		for _, v := range vals {
			db.Add(Result{Benchmark: "b", System: "s", FOMs: map[string]float64{"t": v}})
		}
		return db
	}
	cases := []struct {
		name      string
		vals      []float64
		window    int
		threshold float64
		want      int
	}{
		{"empty series", nil, 4, 1.2, 0},
		{"series shorter than window", []float64{1, 1, 1}, 4, 1.2, 0},
		{"series == window: no judged sample", []float64{1, 1, 1, 9}, 4, 1.2, 0},
		{"series == window+1: exactly one judged sample", []float64{1, 1, 1, 1, 9}, 4, 1.2, 1},
		{"window below 2 is rejected", []float64{1, 1, 1, 1, 9}, 1, 1.2, 0},
		{"window 0 is rejected", []float64{1, 1, 9}, 0, 1.2, 0},
		{"negative window is rejected", []float64{1, 1, 9}, -3, 1.2, 0},
		{"zero baseline skipped", []float64{0, 0, 9}, 2, 1.2, 0},
		{"zeros in window still give nonzero median", []float64{0, 1, 1, 9}, 2, 1.2, 2},
		{"exactly at threshold flags", []float64{1, 1, 1.2}, 2, 1.2, 1},
		{"just under threshold passes", []float64{1, 1, 1.19}, 2, 1.2, 0},
		{"throughput drop at threshold flags", []float64{10, 10, 8}, 2, 0.8, 1},
		{"throughput just above threshold passes", []float64{10, 10, 8.1}, 2, 0.8, 0},
	}
	for _, tc := range cases {
		got := mk(tc.vals).DetectRegressions(Filter{}, "t", tc.window, tc.threshold)
		if len(got) != tc.want {
			t.Errorf("%s: %d regressions, want %d (%+v)", tc.name, len(got), tc.want, got)
		}
	}
}

func TestUsageEmptyDB(t *testing.T) {
	if got := New().Usage(); len(got) != 0 {
		t.Fatalf("Usage on empty DB = %+v", got)
	}
}

func TestUsageSingleBenchmark(t *testing.T) {
	db := New()
	db.Add(Result{Benchmark: "saxpy", System: "cts1", FOMs: map[string]float64{"t": 1}})
	db.Add(Result{Benchmark: "saxpy", System: "cts1", FOMs: map[string]float64{"t": 2}})
	db.Add(Result{Benchmark: "saxpy", System: "cloud-c5n", FOMs: map[string]float64{"t": 3}})
	rows := db.Usage()
	if len(rows) != 1 {
		t.Fatalf("Usage = %+v", rows)
	}
	r := rows[0]
	if r.Benchmark != "saxpy" || r.Runs != 3 || r.Systems != 2 || r.LastSeq != 3 {
		t.Fatalf("row = %+v", r)
	}
}

func TestCompareSystemsEdges(t *testing.T) {
	// Empty DB: no rows.
	if got := New().CompareSystems("saxpy", "cts1", "ats2", "t"); len(got) != 0 {
		t.Fatalf("empty DB comparison = %+v", got)
	}

	db := New()
	// e1 exists on both systems; e2 only on cts1 (one-sided).
	db.Add(Result{Benchmark: "saxpy", System: "cts1", Experiment: "e1",
		FOMs: map[string]float64{"t": 2.0}})
	db.Add(Result{Benchmark: "saxpy", System: "ats2", Experiment: "e1",
		FOMs: map[string]float64{"t": 1.0}})
	db.Add(Result{Benchmark: "saxpy", System: "cts1", Experiment: "e2",
		FOMs: map[string]float64{"t": 5.0}})
	cmp := db.CompareSystems("saxpy", "cts1", "ats2", "t")
	if len(cmp) != 1 || cmp[0].Experiment != "e1" {
		t.Fatalf("one-sided data must pair only shared experiments: %+v", cmp)
	}

	// A system with NO data at all: nothing pairs.
	if got := db.CompareSystems("saxpy", "cts1", "missing-system", "t"); len(got) != 0 {
		t.Fatalf("absent system comparison = %+v", got)
	}

	// FOM present on one side only: the experiment does not pair.
	db2 := New()
	db2.Add(Result{Benchmark: "saxpy", System: "cts1", Experiment: "e1",
		FOMs: map[string]float64{"t": 2.0}})
	db2.Add(Result{Benchmark: "saxpy", System: "ats2", Experiment: "e1",
		FOMs: map[string]float64{"other": 1.0}})
	if got := db2.CompareSystems("saxpy", "cts1", "ats2", "t"); len(got) != 0 {
		t.Fatalf("one-sided FOM must not pair: %+v", got)
	}

	// Zero on the A side: ratio stays 0 instead of dividing by zero.
	db3 := New()
	db3.Add(Result{Benchmark: "saxpy", System: "cts1", Experiment: "e1",
		FOMs: map[string]float64{"t": 0}})
	db3.Add(Result{Benchmark: "saxpy", System: "ats2", Experiment: "e1",
		FOMs: map[string]float64{"t": 3}})
	got := db3.CompareSystems("saxpy", "cts1", "ats2", "t")
	if len(got) != 1 || got[0].Ratio != 0 {
		t.Fatalf("zero-A comparison = %+v", got)
	}

	// Latest wins: a rerun of e1 on ats2 replaces the earlier value.
	db.Add(Result{Benchmark: "saxpy", System: "ats2", Experiment: "e1",
		FOMs: map[string]float64{"t": 4.0}})
	cmp = db.CompareSystems("saxpy", "cts1", "ats2", "t")
	if len(cmp) != 1 || cmp[0].B != 4.0 || cmp[0].Ratio != 2.0 {
		t.Fatalf("latest-wins comparison = %+v", cmp)
	}
}

func TestInsertPreservesIdentity(t *testing.T) {
	db := New()
	db.Insert(Result{ID: 7, Seq: 9, Benchmark: "b", System: "s",
		FOMs: map[string]float64{"t": 1}})
	all := db.Query(Filter{})
	if len(all) != 1 || all[0].ID != 7 || all[0].Seq != 9 {
		t.Fatalf("Insert mangled identity: %+v", all)
	}
	// Add after Insert continues past the restored watermark.
	id := db.Add(Result{Benchmark: "b", System: "s", FOMs: map[string]float64{"t": 2}})
	if id != 8 {
		t.Fatalf("Add after Insert assigned ID %d, want 8", id)
	}
	all = db.Query(Filter{})
	if all[len(all)-1].Seq != 10 {
		t.Fatalf("Add after Insert assigned Seq %d, want 10", all[len(all)-1].Seq)
	}
}

// TestResultsStayInSeqOrder: out-of-order Inserts and a LoadJSON of a
// shuffled dump must answer Query, QueryAfterN and Series exactly as a
// scan of the inserted set followed by a sort on Seq does — the
// invariant that lets Query skip its sort and QueryAfterN binary-search
// its start.
func TestResultsStayInSeqOrder(t *testing.T) {
	// A fixed shuffle of Seqs 1..40 (7 is coprime to 41), two systems.
	var shuffled []Result
	for i := 1; i <= 40; i++ {
		seq := i * 7 % 41
		sys := "cts1"
		if seq%3 == 0 {
			sys = "ats2"
		}
		shuffled = append(shuffled, Result{ID: seq, Seq: seq, Benchmark: "saxpy", System: sys,
			FOMs: map[string]float64{"t": float64(seq)}})
	}
	inserted := New()
	for _, r := range shuffled {
		inserted.Insert(r)
	}
	dump, err := json.Marshal(shuffled)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadJSON(string(dump))
	if err != nil {
		t.Fatal(err)
	}
	// The reference: scan everything, keep what matches, sort by Seq.
	reference := func(f Filter, after int) []Result {
		var out []Result
		for _, r := range shuffled {
			if r.Seq > after && f.matches(&r) {
				out = append(out, r)
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
		return out
	}
	for name, db := range map[string]*DB{"Insert": inserted, "LoadJSON": loaded} {
		// The shift an out-of-order Insert causes must leave the postings
		// naming the moved positions, not the old ones.
		checkPostings(t, name, db)
		for _, f := range []Filter{{}, {System: "cts1"}, {System: "ats2"}, {System: "nowhere"},
			{System: "cts1", Benchmark: "saxpy"}, {System: "ats2", Benchmark: "saxpy"}, {System: "ats2", Benchmark: "nothing"}} {
			if got, want := db.Query(f), reference(f, 0); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: Query(%+v) = Seqs %v, want %v", name, f, seqs(got), seqs(want))
			}
			var want []Point
			for _, r := range reference(f, 0) {
				want = append(want, Point{Seq: r.Seq, Value: r.FOMs["t"]})
			}
			if got := db.Series(f, "t"); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: Series(%+v) = %v, want %v", name, f, got, want)
			}
		}
		for _, after := range []int{-1, 0, 1, 17, 39, 40, 41} {
			if got, want := db.QueryAfterN(after, math.MaxInt), reference(Filter{}, after); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: QueryAfterN(%d, all) = Seqs %v, want %v", name, after, seqs(got), seqs(want))
			}
		}
		for _, n := range []int{0, 1, 5, 40, 100} {
			want := reference(Filter{}, 17)
			want = want[:min(n, len(want))]
			if got := db.QueryAfterN(17, n); len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Errorf("%s: QueryAfterN(17, %d) = Seqs %v, want %v", name, n, seqs(got), seqs(want))
			}
		}
		if db.MaxSeq() != 40 {
			t.Errorf("%s: MaxSeq = %d, want 40", name, db.MaxSeq())
		}
	}
}

func seqs(rs []Result) []int {
	out := make([]int, len(rs))
	for i, r := range rs {
		out[i] = r.Seq
	}
	return out
}
