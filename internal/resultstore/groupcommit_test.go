package resultstore

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/metricsdb"
)

// TestAppendManyGroupCommit: a group of batches lands atomically under
// one fsync, with identity assigned in group order, and survives
// recovery exactly.
func TestAppendManyGroupCommit(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, fixedOpts())
	if err != nil {
		t.Fatal(err)
	}
	batches := []Batch{
		{Key: "g1", Results: []metricsdb.Result{res("saxpy", "cts1", "t", 1), res("saxpy", "cts1", "t", 2)}},
		{Key: "g2", Results: []metricsdb.Result{res("stream", "cts1", "bw", 90)}},
		{Key: "g3", Results: []metricsdb.Result{res("hpcg", "tioga", "gflops", 7)}},
	}
	applied, err := s.AppendMany(context.Background(), batches)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range applied {
		if !a {
			t.Fatalf("batch %d reported duplicate on first apply", i)
		}
	}
	if got := s.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	all := s.Query(metricsdb.Filter{})
	for i, r := range all {
		if r.Seq != i+1 {
			t.Fatalf("result %d has Seq %d — group order broken", i, r.Seq)
		}
	}
	before, _ := json.Marshal(all)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery replays the group exactly.
	s2, err := Open(dir, fixedOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	after, _ := json.Marshal(s2.Query(metricsdb.Filter{}))
	if string(before) != string(after) {
		t.Fatalf("group commit not byte-identical across recovery:\n%s\n%s", before, after)
	}
	if !s2.HasKey("g1") || !s2.HasKey("g2") || !s2.HasKey("g3") {
		t.Fatal("recovered store lost group keys")
	}
}

// TestAppendManyDedupsWithinAndAcrossGroups: a key repeated inside one
// group applies once; a key replayed in a later group is a duplicate.
func TestAppendManyDedupsWithinAndAcrossGroups(t *testing.T) {
	s, err := Open(t.TempDir(), fixedOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	applied, err := s.AppendMany(context.Background(), []Batch{
		{Key: "dup", Results: []metricsdb.Result{res("a", "x", "t", 1)}},
		{Key: "dup", Results: []metricsdb.Result{res("a", "x", "t", 2)}},
		{Key: "other", Results: []metricsdb.Result{res("b", "x", "t", 3)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{true, false, true}
	for i := range want {
		if applied[i] != want[i] {
			t.Fatalf("applied = %v, want %v", applied, want)
		}
	}
	if got := s.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2 (within-group duplicate applied)", got)
	}
	applied, err = s.AppendMany(context.Background(), []Batch{
		{Key: "dup", Results: []metricsdb.Result{res("a", "x", "t", 9)}},
	})
	if err != nil || applied[0] {
		t.Fatalf("cross-group replay: applied=%v err=%v", applied, err)
	}
}

// TestAppendManyValidatesUpFront: one bad batch rejects the whole
// group before anything is written.
func TestAppendManyValidatesUpFront(t *testing.T) {
	s, err := Open(t.TempDir(), fixedOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, err = s.AppendMany(context.Background(), []Batch{
		{Key: "ok", Results: []metricsdb.Result{res("a", "x", "t", 1)}},
		{Key: "", Results: []metricsdb.Result{res("b", "x", "t", 2)}},
	})
	if err == nil {
		t.Fatal("group with a keyless batch should fail")
	}
	if got := s.Len(); got != 0 {
		t.Fatalf("failed group leaked %d results", got)
	}
}

// TestAppendManyEmptyGroup: an empty group is a no-op, not an error.
func TestAppendManyEmptyGroup(t *testing.T) {
	s, err := Open(t.TempDir(), fixedOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	applied, err := s.AppendMany(context.Background(), nil)
	if err != nil || len(applied) != 0 {
		t.Fatalf("empty group: applied=%v err=%v", applied, err)
	}
}

// TestReplicationAccessors: the embedded Reader's QueryAfterN/MaxSeq
// are the watermark protocol's primitives (resultshard.Primary serves
// replication from them), and Health counts the applied ingest keys.
func TestReplicationAccessors(t *testing.T) {
	s, err := Open(t.TempDir(), fixedOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mustAppend(t, s, "k1", res("a", "x", "t", 1), res("a", "x", "t", 2))
	mustAppend(t, s, "k2", res("b", "x", "t", 3))
	if got := s.MaxSeq(); got != 3 {
		t.Fatalf("MaxSeq = %d, want 3", got)
	}
	if got := s.Health().IngestKeys; got != 2 {
		t.Fatalf("Health().IngestKeys = %d, want 2", got)
	}
	delta := s.QueryAfterN(1, 10)
	if len(delta) != 2 || delta[0].Seq != 2 || delta[1].Seq != 3 {
		t.Fatalf("QueryAfterN(1, 10) = %+v", delta)
	}
	if got := s.QueryAfterN(3, 10); len(got) != 0 {
		t.Fatalf("QueryAfterN(MaxSeq, 10) = %+v, want empty", got)
	}
	// Watermark 0 is the full bootstrap snapshot, a page at a time.
	if got := s.QueryAfterN(0, 10); len(got) != 3 {
		t.Fatalf("QueryAfterN(0, 10) returned %d results, want 3", len(got))
	}
	if got := s.QueryAfterN(0, 2); len(got) != 2 || got[1].Seq != 2 {
		t.Fatalf("QueryAfterN(0, 2) = %+v, want the first two", got)
	}
	if parts := s.Parts(); len(parts) != 1 || parts[0].MaxSeq() != 3 {
		t.Fatalf("a store has %d parts, want its one DB", len(parts))
	}
}

// TestGroupIsStagedInTheStoresOwnSlice: a commit group gets its Seqs
// and trace IDs in a slice the store owns, so the caller's results
// are never written to; between groups that slice is empty, holds no
// result's strings or maps through its whole capacity, and is no larger
// than maxIdleStaged — after a wide group, after a group of duplicates
// and after a group that failed to encode — and what a group stored is
// the DB's own copy, untouched by the groups staged after it.
func TestGroupIsStagedInTheStoresOwnSlice(t *testing.T) {
	s, err := Open(t.TempDir(), fixedOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	group := func(name string, batches, each int) []Batch {
		out := make([]Batch, batches)
		for i := range out {
			out[i] = Batch{Key: fmt.Sprintf("%s-%d", name, i), TraceID: fmt.Sprintf("%032x", i+1)}
			for j := 0; j < each; j++ {
				out[i].Results = append(out[i].Results, res(name, "cts1", "t", float64(i*each+j)))
			}
		}
		return out
	}
	idle := func(after string) {
		t.Helper()
		s.mu.Lock()
		defer s.mu.Unlock()
		if len(s.staged) != 0 || cap(s.staged) > maxIdleStaged {
			t.Fatalf("after %s the store holds a staging slice of %d results in room for %d, want 0 in at most %d", after, len(s.staged), cap(s.staged), maxIdleStaged)
		}
		for i, r := range s.staged[:cap(s.staged)] {
			if !reflect.DeepEqual(r, metricsdb.Result{}) {
				t.Fatalf("after %s staging slot %d still holds %+v", after, i, r)
			}
		}
	}
	var want []metricsdb.Result // what the store must hold, in Seq order
	commit := func(name string, batches []Batch) {
		t.Helper()
		pristine := group(name, len(batches), len(batches[0].Results))
		if _, err := s.AppendMany(context.Background(), batches); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(batches, pristine) {
			t.Fatalf("%s: AppendMany wrote to its caller's batches: %+v", name, batches)
		}
		for _, b := range pristine {
			for _, r := range b.Results {
				r.Seq, r.TraceID = len(want)+1, b.TraceID
				want = append(want, r)
			}
		}
		idle(name)
		if got := s.Query(metricsdb.Filter{}); !reflect.DeepEqual(got, want) {
			t.Fatalf("after %s the store holds %+v, want %+v", name, got, want)
		}
	}
	commit("small", group("small", 3, 5))
	commit("wide", group("wide", 4, maxIdleStaged/2)) // outgrows the idle slice: dropped, not kept
	commit("next", group("next", 2, 7))

	if applied, err := s.AppendMany(context.Background(), group("small", 3, 5)); err != nil || applied[0] || applied[1] || applied[2] {
		t.Fatalf("a group of duplicates: applied %v, %v", applied, err)
	}
	idle("a group of duplicates")
	bad := group("bad", 2, 3)
	bad[1].Results[2].FOMs["t"] = math.NaN()
	if _, err := s.AppendMany(context.Background(), bad); err == nil {
		t.Fatal("a group with a NaN FOM was committed")
	}
	idle("a group that failed to encode")
	if got := s.Query(metricsdb.Filter{}); !reflect.DeepEqual(got, want) || s.HasKey("bad-0") {
		t.Fatalf("a group that failed to encode left the store holding %d results (key applied: %v), want %d", len(got), s.HasKey("bad-0"), len(want))
	}
	commit("last", group("last", 1, 2))
}
