package resultstore

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"repro/internal/fsys"
	"repro/internal/metricsdb"
)

// hookFS is the real disk with a hook in front of every Write, Sync and
// Truncate on a WAL segment, and of every CreateTemp, where a generation
// write begins. A hook that returns an error fails the call — a failed
// Write still writes the first half of its bytes, the way a disk that
// fills up mid-write does — and a hook that sleeps makes a slow disk.
type hookFS struct {
	fsys.FS
	write, sync, truncate, createTemp func() error
}

func (d *hookFS) CreateTemp(dir string) (fsys.File, error) {
	if err := runHook(d.createTemp); err != nil {
		return nil, err
	}
	return d.FS.CreateTemp(dir)
}

func (d *hookFS) OpenAppend(path string) (fsys.File, error) {
	f, err := d.FS.OpenAppend(path)
	if err != nil || !strings.HasPrefix(filepath.Base(path), segmentPrefix) {
		return f, err
	}
	return hookFile{f, d}, nil
}

type hookFile struct {
	fsys.File
	d *hookFS
}

func runHook(hook func() error) error {
	if hook == nil {
		return nil
	}
	return hook()
}

func (f hookFile) Write(p []byte) (int, error) {
	if err := runHook(f.d.write); err != nil {
		n, _ := f.File.Write(p[:len(p)/2])
		return n, err
	}
	return f.File.Write(p)
}

func (f hookFile) Sync() error {
	if err := runHook(f.d.sync); err != nil {
		return err
	}
	return f.File.Sync()
}

func (f hookFile) Truncate(size int64) error {
	if err := runHook(f.d.truncate); err != nil {
		return err
	}
	return f.File.Truncate(size)
}

// failNth returns a hook that fails its nth call with err and passes
// every other one.
func failNth(n int, err error) func() error {
	calls := 0
	return func() error {
		if calls++; calls == n {
			return err
		}
		return nil
	}
}

// TestGroupCommitFaults drives the group commit's error path through a
// disk that fails the nth segment Write or Sync with ENOSPC or EIO: the
// batch is not acknowledged, nothing of it is queryable, a retry under
// its key once the fault clears applies it exactly once, and Open
// recovers exactly the acknowledged batches. When the truncate that
// cuts the failed group back fails too, the store turns failed: it
// refuses appends, and Health says why.
func TestGroupCommitFaults(t *testing.T) {
	for _, op := range []string{"Write", "Sync"} {
		for _, errno := range []syscall.Errno{syscall.ENOSPC, syscall.EIO} {
			for n := 1; n <= 4; n++ {
				for _, truncateFails := range []bool{false, true} {
					name := fmt.Sprintf("%s-%d-%v", op, n, errno)
					if truncateFails {
						name += "-truncate-fails"
					}
					t.Run(name, func(t *testing.T) { groupCommitFault(t, op, n, errno, truncateFails) })
				}
			}
		}
	}
}

func groupCommitFault(t *testing.T, op string, n int, errno syscall.Errno, truncateFails bool) {
	disk := &hookFS{FS: fsys.OS}
	if op == "Write" {
		disk.write = failNth(n, errno)
	} else {
		disk.sync = failNth(n, errno)
	}
	if truncateFails {
		disk.truncate = failNth(1, syscall.EIO)
	}
	dir := t.TempDir()
	opts := fixedOpts()
	opts.FS = disk
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	batch := func(i int) Batch {
		return Batch{Key: fmt.Sprintf("k%d", i), Results: []metricsdb.Result{res("saxpy", "cts1", "t", float64(i))}}
	}
	ctx := context.Background()
	acked := map[string]bool{}
	for i := 1; i <= 4; i++ {
		applied, err := s.Append(ctx, batch(i))
		if i != n {
			if err != nil || !applied {
				t.Fatalf("batch %d: applied=%v err=%v", i, applied, err)
			}
			acked[batch(i).Key] = true
			continue
		}
		if !errors.Is(err, errno) || applied {
			t.Fatalf("batch %d on the failing %s: applied=%v err=%v, want %v", i, op, applied, err, errno)
		}
		if s.HasKey(batch(i).Key) || len(s.Query(metricsdb.Filter{})) != len(acked) {
			t.Fatalf("the failed batch %d is queryable: %d results for %d acknowledged batches", i, s.Len(), len(acked))
		}
		if truncateFails {
			break
		}
	}
	if truncateFails {
		h := s.Health()
		if h.Ready || !strings.Contains(h.Reason, "store failed") {
			t.Fatalf("Health after a failed truncate = %+v, want not ready with a store failed reason", h)
		}
		if _, err := s.Append(ctx, batch(n)); err == nil || !strings.Contains(err.Error(), "store failed") {
			t.Fatalf("a failed store took an append: %v", err)
		}
	} else {
		// The fault has cleared: the retry applies, a second one dedups.
		for _, want := range []bool{true, false} {
			if applied, err := s.Append(ctx, batch(n)); err != nil || applied != want {
				t.Fatalf("retry of batch %d: applied=%v err=%v, want applied=%v", n, applied, err, want)
			}
		}
		acked[batch(n).Key] = true
	}
	if s.Len() != len(acked) {
		t.Fatalf("store holds %d results for %d acknowledged batches", s.Len(), len(acked))
	}
	want := served(t, s)
	s.Close()

	again, err := Open(dir, fixedOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if !truncateFails {
		if got := served(t, again); got != want {
			t.Fatalf("Open recovered\n%s\nthe acknowledged batches are\n%s", got, want)
		}
		return
	}
	// The failed group stayed on disk: torn after a failed Write, so
	// recovery drops it; whole after a failed Sync, so it may come back —
	// a batch that was never acknowledged may survive, and its retry
	// dedups. Either way the retry leaves it applied exactly once.
	survived, recovered := op == "Sync", len(acked)
	if survived {
		recovered++
	}
	if again.Len() != recovered {
		t.Fatalf("Open recovered %d results, want %d: the acknowledged batches, and the failed one if its Sync failed", again.Len(), recovered)
	}
	for k := range acked {
		if !again.HasKey(k) {
			t.Fatalf("Open lost the acknowledged key %s", k)
		}
	}
	if applied, err := again.Append(ctx, batch(n)); err != nil || applied == survived {
		t.Fatalf("retry of batch %d after Open: applied=%v err=%v", n, applied, err)
	}
	if again.Len() != len(acked)+1 {
		t.Fatalf("after the retry the store holds %d results, want %d", again.Len(), len(acked)+1)
	}
}
