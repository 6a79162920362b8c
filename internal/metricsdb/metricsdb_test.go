package metricsdb

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
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
	// Seqs must be unique.
	seen := map[int]bool{}
	for _, r := range db.Query(Filter{}) {
		if seen[r.Seq] {
			t.Errorf("duplicate seq %d", r.Seq)
		}
		seen[r.Seq] = true
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

// TestInsertPreservesIdentity: Insert keeps the Seq it is given, and
// the newest row's Seq is the watermark Add continues from — an Insert
// at or below the top is refused and moves neither.
func TestInsertPreservesIdentity(t *testing.T) {
	db := New()
	if err := db.Insert(Result{Seq: 9, Benchmark: "b", System: "s", FOMs: map[string]float64{"t": 1}}); err != nil {
		t.Fatal(err)
	}
	all := db.Query(Filter{})
	if len(all) != 1 || all[0].Seq != 9 {
		t.Fatalf("Insert mangled identity: %+v", all)
	}
	if seq := db.Add(Result{Benchmark: "b", System: "s", FOMs: map[string]float64{"t": 2}}); seq != 10 {
		t.Fatalf("Add after an Insert at Seq 9 assigned Seq %d, want 10", seq)
	}
	for _, seq := range []int{4, 10} {
		if err := db.Insert(Result{Seq: seq, Benchmark: "b", System: "s", FOMs: map[string]float64{"t": 3}}); err == nil {
			t.Fatalf("Insert at Seq %d under the top 10 was taken", seq)
		}
	}
	if got := db.MaxSeq(); got != 10 || db.Len() != 2 {
		t.Fatalf("after refused Inserts MaxSeq = %d and Len = %d, want 10 and 2", got, db.Len())
	}
	if seq := db.Add(Result{Benchmark: "b", System: "s", FOMs: map[string]float64{"t": 4}}); seq != 11 {
		t.Fatalf("Add after refused Inserts assigned Seq %d, want 11", seq)
	}
	all = db.Query(Filter{})
	if got := all[len(all)-1].Seq; got != 11 || db.MaxSeq() != 11 {
		t.Fatalf("newest row has Seq %d and MaxSeq is %d, want 11 both", got, db.MaxSeq())
	}
}

// TestRefusedInsertAllChangesNothing: a batch that is not an append — its
// first Seq at or below the top, or a Seq at or below the one before it —
// is refused whole, with an error naming that result, and stores nothing:
// not its rows, not its heads, not a posting list for a pair it brings.
// Len, MaxSeq and every read stay as they were, and Add continues from
// the same top. An empty DB takes any first Seq, negative ones included.
func TestRefusedInsertAllChangesNothing(t *testing.T) {
	db := New()
	base := make([]Result, chunkLen+10) // past a chunk boundary
	for i := range base {
		base[i] = Result{Seq: -5 + 2*i, Benchmark: "saxpy", System: fmt.Sprintf("cts%d", i%3),
			FOMs: map[string]float64{"t": float64(i)}}
	}
	if err := db.InsertAll(base); err != nil {
		t.Fatalf("an empty DB refused Seqs from -5: %v", err)
	}
	top := base[len(base)-1].Seq
	served := func() string {
		t.Helper()
		dump, err := db.SaveJSON()
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(dump, db.Len(), db.MaxSeq(), db.Systems(), db.Usage(), len(db.heads),
			db.Series(Filter{System: "cts1", Benchmark: "saxpy"}, "t"), db.QueryAfterN(top-10, 100))
	}
	want := served()
	fresh := func(seqs ...int) []Result {
		rs := make([]Result, len(seqs))
		for i, seq := range seqs {
			rs[i] = Result{Seq: seq, Benchmark: "saxpy", System: "new-system", FOMs: map[string]float64{"t": 1}}
		}
		return rs
	}
	for _, tc := range []struct {
		rs  []Result
		bad int
	}{
		{fresh(top), 0},
		{fresh(top - 1), 0},
		{fresh(-100, top+1), 0},
		{fresh(top+1, top+2, top+2), 2},
		{fresh(top+1, top+5, top+3, top+4), 2},
		{fresh(top+1, top+2, 0), 2},
	} {
		err := db.InsertAll(tc.rs)
		if msg := fmt.Sprintf("result %d of %d has Seq %d,", tc.bad, len(tc.rs), tc.rs[tc.bad].Seq); err == nil || !strings.Contains(err.Error(), msg) {
			t.Fatalf("InsertAll of Seqs %v over top %d: err %v, want one naming %q", seqs(tc.rs), top, err, msg)
		}
		if got := served(); got != want {
			t.Fatalf("a refused InsertAll of Seqs %v changed what the DB serves", seqs(tc.rs))
		}
	}
	if seq := db.Add(fresh(0)[0]); seq != top+1 {
		t.Fatalf("Add after refused batches assigned Seq %d, want %d", seq, top+1)
	}
}

// TestResultsStayInSeqOrder: a LoadJSON of a shuffled dump answers
// Query, QueryAfterN and Series exactly as a scan of the set followed by
// a sort on Seq does — the invariant that lets Query skip its sort and
// QueryAfterN binary-search its start. Inserted in the dump's order, the
// same results are refused at the first step back, and a dump that
// holds one Seq twice does not load.
func TestResultsStayInSeqOrder(t *testing.T) {
	// A fixed shuffle of Seqs 1..40 (7 is coprime to 41), two systems.
	var shuffled []Result
	for i := 1; i <= 40; i++ {
		seq := i * 7 % 41
		sys := "cts1"
		if seq%3 == 0 {
			sys = "ats2"
		}
		shuffled = append(shuffled, Result{Seq: seq, Benchmark: "saxpy", System: sys,
			FOMs: map[string]float64{"t": float64(seq)}})
	}
	inserted := New()
	for _, r := range shuffled {
		if inserted.Insert(r) != nil {
			break
		}
	}
	if got := seqs(inserted.Query(Filter{})); !reflect.DeepEqual(got, []int{7, 14, 21, 28, 35}) {
		t.Fatalf("Inserting the shuffle stored Seqs %v, want those before its first step back, to Seq 1", got)
	}
	dump, err := json.Marshal(shuffled)
	if err != nil {
		t.Fatal(err)
	}
	db, err := LoadJSON(string(dump))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadJSON(`[{"seq":28},{"seq":3},{"seq":28}]`); err == nil || !strings.Contains(err.Error(), "Seq 28,") {
		t.Fatalf("LoadJSON of a dump holding Seq 28 twice: %v", err)
	}
	// The reference: scan everything, keep what matches, sort by Seq.
	reference := func(f Filter, after int) []Result {
		var out []Result
		for _, r := range shuffled {
			if h := headOf(&r); r.Seq > after && f.matches(&h) {
				out = append(out, r)
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
		return out
	}
	checkPostings(t, "LoadJSON", db)
	for _, f := range []Filter{{}, {System: "cts1"}, {System: "ats2"}, {System: "nowhere"},
		{System: "cts1", Benchmark: "saxpy"}, {System: "ats2", Benchmark: "saxpy"}, {System: "ats2", Benchmark: "nothing"}} {
		if got, want := db.Query(f), reference(f, 0); !reflect.DeepEqual(got, want) {
			t.Errorf("Query(%+v) = Seqs %v, want %v", f, seqs(got), seqs(want))
		}
		var want []Point
		for _, r := range reference(f, 0) {
			want = append(want, Point{Seq: r.Seq, Value: r.FOMs["t"]})
		}
		if got := db.Series(f, "t"); !reflect.DeepEqual(got, want) {
			t.Errorf("Series(%+v) = %v, want %v", f, got, want)
		}
	}
	for _, after := range []int{-1, 0, 1, 17, 39, 40, 41} {
		if got, want := db.QueryAfterN(after, math.MaxInt), reference(Filter{}, after); !reflect.DeepEqual(got, want) {
			t.Errorf("QueryAfterN(%d, all) = Seqs %v, want %v", after, seqs(got), seqs(want))
		}
	}
	for _, n := range []int{0, 1, 5, 40, 100} {
		want := reference(Filter{}, 17)
		want = want[:min(n, len(want))]
		if got := db.QueryAfterN(17, n); len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Errorf("QueryAfterN(17, %d) = Seqs %v, want %v", n, seqs(got), seqs(want))
		}
	}
	if db.MaxSeq() != 40 {
		t.Errorf("MaxSeq = %d, want 40", db.MaxSeq())
	}
}

// TestStoredResultsAreCopies: results already stored never change. A
// caller that changes a map it handed to Add or InsertAll, or a map of a
// Result that Query, QueryAfterN or a Reader returned, changes nothing a
// DB serves afterwards.
func TestStoredResultsAreCopies(t *testing.T) {
	fresh := func(seq int) Result {
		return Result{Seq: seq, Benchmark: "b", System: "s",
			FOMs: map[string]float64{"t": 1}, Meta: map[string]string{"runner": "r1"}}
	}
	dbs := []*DB{New(), New()}
	added, inserted := fresh(0), []Result{fresh(2), fresh(3)}
	dbs[0].Add(added)
	if err := dbs[1].InsertAll(inserted); err != nil {
		t.Fatal(err)
	}
	reader := NewReader(nil, dbs...)
	served := func() string {
		t.Helper()
		data, err := json.Marshal(reader.Query(Filter{}))
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(string(data), reader.Series(Filter{}, "t"))
	}
	want := served()
	scribble := func(rs ...Result) {
		for _, r := range rs {
			r.FOMs["t"], r.FOMs["new"], r.Meta["runner"] = 9, 9, "someone else"
		}
	}
	scribble(added)
	scribble(inserted...)
	scribble(dbs[0].Query(Filter{})...)
	scribble(dbs[1].QueryAfterN(0, 10)...)
	scribble(reader.Query(Filter{})...)
	if got := served(); got != want {
		t.Fatalf("after callers changed their maps the DBs serve\n%s\nwhere they served\n%s", got, want)
	}
}

func seqs(rs []Result) []int {
	out := make([]int, len(rs))
	for i, r := range rs {
		out[i] = r.Seq
	}
	return out
}

// TestStoredRowsHoldNoMap pins the stored layout: the rows DB's chunks
// hold keep their FOMs and Meta as spans of name-sorted pairs in the
// DB's arenas, so no map (with its buckets and its random iteration
// order) is reachable from a row, from an arena, or from the head and
// trace tables a row names.
func TestStoredRowsHoldNoMap(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Map:
			t.Errorf("%s is a %s: a stored row holds sorted pairs, not maps", path, typ)
		case reflect.Slice, reflect.Array, reflect.Pointer:
			walk(path+"[]", typ.Elem())
		case reflect.Struct:
			for i := range typ.NumField() {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		}
	}
	for _, name := range []string{"rows", "foms", "meta", "traces", "heads"} {
		field, ok := reflect.TypeOf(DB{}).FieldByName(name)
		if !ok {
			t.Fatalf("DB has no %s field", name)
		}
		walk("DB."+name, field.Type)
	}
}
