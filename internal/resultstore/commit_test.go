package resultstore

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/metricsdb"
)

// holdCommitter opens a store whose committer sleeps delay before every
// group, enqueues a blocker, and returns once the committer has taken
// it — so whatever the test queues next either joins the blocker's
// group (if the committer has not sized it yet) or waits behind the
// sleep in the queue. With QueueDepth 1 a group is one batch, so it
// always waits.
func holdCommitter(t *testing.T, opts Options, delay time.Duration) (*Store, *Pending) {
	t.Helper()
	opts.CommitDelay = delay
	s, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	blocker, err := s.Enqueue(Batch{Key: "blocker", Results: []metricsdb.Result{res("b", "s", "t", 0)}})
	if err != nil {
		t.Fatal(err)
	}
	waitQueueLen(t, s, 0)
	return s, blocker
}

func waitQueueLen(t *testing.T, s *Store, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(s.queue) != n {
		if time.Now().After(deadline) {
			t.Fatalf("commit queue holds %d batches, want %d", len(s.queue), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConcurrentAppendsCommitEachKeyOnce: 8 writers, every tenth Append
// a replay of the writer's previous key, through the one queue and
// committer: each distinct key applies exactly once, Seqs are dense,
// and recovery reproduces the served bytes. The second case rotates
// every few batches with the background compactor on, so generations
// are captured, written outside s.mu and published while appends keep
// landing: a generation that missed an acked batch, or a merge that
// dropped one, shows as a gap or a lost key after the reopen.
func TestConcurrentAppendsCommitEachKeyOnce(t *testing.T) {
	compacting := fixedOpts()
	compacting.SegmentBytes = 512
	compacting.NoBackgroundCompact = false
	for _, tc := range []struct {
		name   string
		opts   Options
		pushes int
	}{
		{"one segment", fixedOpts(), 50},
		{"background compaction", compacting, 200},
	} {
		t.Run(tc.name, func(t *testing.T) { concurrentAppends(t, tc.opts, 8, tc.pushes) })
	}
}

func concurrentAppends(t *testing.T, opts Options, writers, pushes int) {
	dir := t.TempDir()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	want := make([]int, writers) // results under each writer's distinct keys
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < pushes; i++ {
				replay := i%10 == 9
				k := i
				if replay {
					k = i - 1
				}
				rs := make([]metricsdb.Result, 1+k%3)
				for j := range rs {
					rs[j] = res("saxpy", fmt.Sprintf("sys-%d", g), "t", float64(k))
				}
				applied, err := s.Append(context.Background(), Batch{Key: fmt.Sprintf("w%d-%d", g, k), Results: rs})
				if err != nil {
					t.Errorf("writer %d push %d: %v", g, i, err)
					return
				}
				if applied == replay {
					t.Errorf("writer %d push %d: applied=%v, replay=%v", g, i, applied, replay)
				}
				if !replay {
					want[g] += len(rs)
				}
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, n := range want {
		total += n
	}
	if got := s.Len(); got != total {
		t.Fatalf("Len = %d, want %d (distinct keys' results)", got, total)
	}
	for i, r := range s.Query(metricsdb.Filter{}) {
		if r.Seq != i+1 {
			t.Fatalf("result %d has Seq %d: sequence has a gap or a repeat", i, r.Seq)
		}
	}
	before, _ := json.Marshal(s.Series(metricsdb.Filter{}, "t"))
	keys := s.Health().IngestKeys
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if !opts.NoBackgroundCompact {
		if snaps, err := listNumbered(dir, snapshotPrefix, snapshotSuffix); err != nil || len(snaps) == 0 {
			t.Fatalf("background compaction left snapshot files %v (%v): the case tested nothing", snaps, err)
		}
	}
	s2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Len(); got != total {
		t.Fatalf("recovered Len = %d, want %d", got, total)
	}
	if got := s2.Health().IngestKeys; got != keys {
		t.Fatalf("recovered %d ingest keys, want %d", got, keys)
	}
	for g := 0; g < writers; g++ {
		for k := 0; k < pushes; k++ {
			if key := fmt.Sprintf("w%d-%d", g, k); k%10 != 9 && !s2.HasKey(key) {
				t.Fatalf("ingest key %s lost across Close + Open", key)
			}
		}
	}
	if after, _ := json.Marshal(s2.Series(metricsdb.Filter{}, "t")); string(after) != string(before) {
		t.Fatal("Series not byte-identical across Close + Open")
	}
}

// TestQueuedBatchesCommitAsOneGroup: batches that queue up while the
// committer is busy ride one group. A group rotates at most once, so
// with a 1-byte segment bound every group after the first lands in its
// own segment: six batches committed one by one would leave six
// segments, the blocker's group plus one group for everything queued
// behind it leaves at most two.
func TestQueuedBatchesCommitAsOneGroup(t *testing.T) {
	opts := fixedOpts()
	opts.SegmentBytes = 1
	s, blocker := holdCommitter(t, opts, 300*time.Millisecond)
	defer s.Close()
	queued := []*Pending{blocker}
	for i := 0; i < 5; i++ {
		p, err := s.Enqueue(Batch{Key: fmt.Sprintf("k%d", i), Results: []metricsdb.Result{res("b", "s", "t", float64(i))}})
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, p)
	}
	for _, p := range queued {
		if applied, err := p.Wait(context.Background()); err != nil || !applied {
			t.Fatalf("Wait: applied=%v err=%v", applied, err)
		}
	}
	segs, err := listNumbered(s.dir, segmentPrefix, segmentSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) > 2 {
		t.Fatalf("segments %v: the five queued batches were split over several commits", segs)
	}
	records := 0
	for _, seg := range segs {
		data, err := os.ReadFile(filepath.Join(s.dir, segmentName(seg)))
		if err != nil {
			t.Fatal(err)
		}
		payloads, good := scanRecords(data)
		if good != len(data) {
			t.Fatalf("segment %d has a torn tail at %d of %d bytes", seg, good, len(data))
		}
		records += len(payloads)
	}
	if records != 6 {
		t.Fatalf("WAL holds %d records, want one per batch (6)", records)
	}
}

// TestAppendLeavesTheQueueWhenItsContextDoes: an Append cancelled while
// queued — and one cancelled while still waiting for a slot — returns
// ctx.Err() without waiting out the commit, and retrying the key
// afterwards leaves it applied exactly once.
func TestAppendLeavesTheQueueWhenItsContextDoes(t *testing.T) {
	opts := fixedOpts()
	opts.QueueDepth = 1
	const delay = 500 * time.Millisecond
	s, blocker := holdCommitter(t, opts, delay)
	defer s.Close()

	ctx, cancel := context.WithCancel(context.Background())
	errs := make(chan error, 2)
	push := func(key string) {
		_, err := s.Append(ctx, Batch{Key: key, Results: []metricsdb.Result{res("b", "s", "t", 1)}})
		errs <- err
	}
	go push("queued")
	waitQueueLen(t, s, 1)
	go push("slotless") // the depth-1 queue is full: blocks for a slot
	start := time.Now()
	cancel()
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled Append returned %v, want context.Canceled", err)
		}
	}
	if waited := time.Since(start); waited >= delay {
		t.Fatalf("cancelled Appends took %v, as long as the commit they were abandoning", waited)
	}
	if _, err := blocker.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	// "queued" may or may not have committed behind its caller's back;
	// either way one retry per key converges on exactly one copy.
	for _, key := range []string{"queued", "slotless"} {
		if _, err := s.Append(context.Background(), Batch{Key: key, Results: []metricsdb.Result{res("b", "s", "t", 1)}}); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3 (blocker + each retried key once)", got)
	}
}

// TestCloseFailsQueuedWaiters: Close does not write what is still
// queued or held; every waiter — handles already queued, Appends in
// whatever state Close finds them — gets the closed error, and Close
// returns only after the committer has exited.
func TestCloseFailsQueuedWaiters(t *testing.T) {
	s, blocker := holdCommitter(t, fixedOpts(), time.Hour)
	batch := func(key string) Batch {
		return Batch{Key: key, Results: []metricsdb.Result{res("b", "s", "t", 1)}}
	}
	queued := []*Pending{blocker}
	for i := 0; i < 6; i++ {
		p, err := s.Enqueue(batch(fmt.Sprintf("queued-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, p)
	}
	const appenders = 4
	errs := make(chan error, appenders)
	for i := 0; i < appenders; i++ {
		go func(i int) {
			_, err := s.Append(context.Background(), batch(fmt.Sprintf("append-%d", i)))
			errs <- err
		}(i)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < appenders; i++ {
		if err := <-errs; !errors.Is(err, errClosed) {
			t.Fatalf("Append across Close returned %v, want the closed error", err)
		}
	}
	for _, p := range queued {
		if _, err := p.Wait(context.Background()); !errors.Is(err, errClosed) {
			t.Fatalf("queued batch returned %v, want the closed error", err)
		}
	}
	// A batch handed to a closed store fails at Enqueue or, if it won
	// the race into the orphaned queue, at Wait.
	late, err := s.Enqueue(batch("late"))
	if err == nil {
		_, err = late.Wait(context.Background())
	}
	if !errors.Is(err, errClosed) {
		t.Fatalf("Enqueue after Close returned %v, want the closed error", err)
	}
	if got := s.Len(); got != 0 {
		t.Fatalf("Close wrote %d queued results", got)
	}
}
