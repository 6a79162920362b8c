package metricsdb

import (
	"fmt"
	"reflect"
	"testing"
)

// TestReaderOneDBAndPartitionedAgree builds the same result set as one
// DB and as four DBs partitioned by a placement func, and requires the
// whole read surface to answer identically for pinned, half-pinned and
// empty filters — the property that lets the store, the router and the
// followers share one Reader.
func TestReaderOneDBAndPartitionedAgree(t *testing.T) {
	place := func(system, benchmark string, n int) int { return (len(system) + 3*len(benchmark)) % n }
	one := New()
	parts := []*DB{New(), New(), New(), New()}
	systems := []string{"cts1", "tioga", "cloud-c5n"}
	benches := []string{"saxpy", "stream", "amg2023", "hpcg"}
	for i := 0; i < 240; i++ {
		r := Result{
			ID: i + 1, Seq: i + 1,
			System:     systems[i%len(systems)],
			Benchmark:  benches[(i/3)%len(benches)],
			Experiment: fmt.Sprintf("exp-%d", i%2),
			TraceID:    fmt.Sprintf("%032x", i),
			FOMs:       map[string]float64{"t": 1},
		}
		if i%60 == 59 {
			r.FOMs["t"] = 9 // a regression against the rolling median of 1s
		}
		one.Insert(r)
		parts[place(r.System, r.Benchmark, len(parts))].Insert(r)
	}
	single := NewReader(nil, one)
	sharded := MergeReaders(place, NewReader(nil, parts[:2]...), NewReader(nil, parts[2:]...))
	unplaced := NewReader(nil, parts...)

	if sharded.Len() != single.Len() || sharded.MaxSeq() != single.MaxSeq() {
		t.Fatalf("Len/MaxSeq = %d/%d, want %d/%d", sharded.Len(), sharded.MaxSeq(), single.Len(), single.MaxSeq())
	}
	if got, want := sharded.Systems(), single.Systems(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Systems = %v, want %v", got, want)
	}
	for _, n := range []int{0, 1, 7, 40, 1000} {
		if got, want := sharded.QueryAfterN(200, n), single.QueryAfterN(200, n); len(got) != min(n, 40) || (n > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("QueryAfterN(200, %d) returned %d results, want %d", n, len(got), len(want))
		}
	}
	// Parts: one single-DB Reader per DB, in DB order, placement dropped.
	for i, part := range sharded.Parts() {
		if want := NewReader(nil, parts[i]); len(sharded.Parts()) != len(parts) || !reflect.DeepEqual(part, want) {
			t.Fatalf("Parts()[%d] of %d is not the Reader over DB %d alone", i, len(sharded.Parts()), i)
		}
	}
	if got := single.Parts(); len(got) != 1 || !reflect.DeepEqual(got[0].Query(Filter{}), single.Query(Filter{})) {
		t.Fatalf("a one-DB Reader has %d parts, want itself", len(got))
	}
	for name, f := range map[string]Filter{
		"empty":            {},
		"pinned":           {System: "tioga", Benchmark: "stream"},
		"pinned+extra":     {System: "cts1", Benchmark: "saxpy", Experiment: "exp-1"},
		"pinned, no match": {System: "cts1", Benchmark: "nope"},
		"system only":      {System: "cloud-c5n"},
		"benchmark only":   {Benchmark: "hpcg"},
		"experiment only":  {Experiment: "exp-0"},
	} {
		for _, rd := range []Reader{sharded, unplaced} {
			if got, want := rd.Query(f), single.Query(f); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: Query returned %d results, want %d", name, len(got), len(want))
			}
			if got, want := rd.Series(f, "t"), single.Series(f, "t"); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: Series returned %d points, want %d", name, len(got), len(want))
			}
			got, want := rd.DetectRegressions(f, "t", 4, 1.2), single.DetectRegressions(f, "t", 4, 1.2)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: DetectRegressions = %v, want %v", name, got, want)
			}
			if name == "empty" && len(want) == 0 {
				t.Error("fixture seeds no regression: the detector comparison is vacuous")
			}
		}
	}
	if empty := NewReader(place); len(empty.Parts()) != 0 || empty.QueryAfterN(0, 5) != nil || empty.Len() != 0 || empty.Query(Filter{System: "a", Benchmark: "b"}) != nil || len(empty.Systems()) != 0 {
		t.Error("a Reader over no DBs (an unsynced follower) must answer empty")
	}
}
