package resultshard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/metricsdb"
	"repro/internal/resultstore"
)

// The protocol-level tests follow a Primary in process; the HTTP
// transport is covered in internal/resultsd.

// TestFollowerBootstrapAndByteIdenticalReads: one Sync bootstraps an
// empty follower from watermark 0, after which every read API returns
// byte-identical responses to the primary's.
func TestFollowerBootstrapAndByteIdenticalReads(t *testing.T) {
	r := openRouter(t, t.TempDir(), 4)
	defer r.Close()
	for i := 0; i < 4; i++ {
		if _, err := r.Append(context.Background(), resultstore.Batch{
			Key:     fmt.Sprintf("k%d", i),
			TraceID: fmt.Sprintf("%032x", i+1),
			Results: spreadResults(10),
		}); err != nil {
			t.Fatal(err)
		}
	}

	f := NewFollower()
	if f.Health().Ready {
		t.Fatal("unsynced follower claims ready")
	}
	applied, err := f.Sync(context.Background(), Primary{r})
	if err != nil {
		t.Fatal(err)
	}
	if st := f.Status(); applied != 40 || st.LagResults != 40 || st.Syncs != 1 {
		t.Fatalf("bootstrap applied %d, status %+v; want 40 applied and reported by pass 1", applied, st)
	}
	if !f.Health().Ready {
		t.Fatal("synced follower not ready")
	}
	if f.Len() != r.Len() {
		t.Fatalf("follower holds %d results, primary %d", f.Len(), r.Len())
	}

	// Byte-for-byte equality across the whole read surface, both
	// fanned-out and single-shard-routed filters.
	filters := []metricsdb.Filter{
		{},
		{System: "sys-01"},
		{System: "sys-01", Benchmark: "bench-01"},
	}
	for _, flt := range filters {
		pq, _ := json.Marshal(r.Query(flt))
		fq, _ := json.Marshal(f.Query(flt))
		if string(pq) != string(fq) {
			t.Fatalf("Query(%+v) differs:\nprimary:  %s\nfollower: %s", flt, pq, fq)
		}
		ps, _ := json.Marshal(r.Series(flt, "fom"))
		fs, _ := json.Marshal(f.Series(flt, "fom"))
		if string(ps) != string(fs) {
			t.Fatalf("Series(%+v) differs", flt)
		}
		pr, _ := json.Marshal(r.DetectRegressions(flt, "fom", 3, 1.2))
		fr, _ := json.Marshal(f.DetectRegressions(flt, "fom", 3, 1.2))
		if string(pr) != string(fr) {
			t.Fatalf("DetectRegressions(%+v) differs", flt)
		}
	}
	psys, _ := json.Marshal(r.Systems())
	fsys, _ := json.Marshal(f.Systems())
	if string(psys) != string(fsys) {
		t.Fatalf("Systems differ: %s vs %s", psys, fsys)
	}
}

// TestFollowerReadsAreCopies: a follower in process mirrors its primary
// from the primary's own pages, and a caller that changes the maps of
// what either one's Query returned changes nothing either serves.
func TestFollowerReadsAreCopies(t *testing.T) {
	r := openRouter(t, t.TempDir(), 2)
	defer r.Close()
	if _, err := r.Append(context.Background(), resultstore.Batch{Key: "k0", Results: spreadResults(6)}); err != nil {
		t.Fatal(err)
	}
	f := NewFollower()
	if _, err := f.Sync(context.Background(), Primary{r}); err != nil {
		t.Fatal(err)
	}
	served := func() string {
		t.Helper()
		p, _ := json.Marshal(r.Query(metricsdb.Filter{}))
		q, _ := json.Marshal(f.Query(metricsdb.Filter{}))
		return string(p) + "\n" + string(q)
	}
	want := served()
	for _, rs := range [][]metricsdb.Result{f.Query(metricsdb.Filter{}), r.Query(metricsdb.Filter{})} {
		for _, res := range rs {
			res.FOMs["fom"], res.FOMs["new"] = -1, -1
		}
	}
	if got := served(); got != want {
		t.Fatalf("after a caller changed returned maps the primary and follower serve\n%s\nwhere they served\n%s", got, want)
	}
}

// TestFollowerCatchUpAndLag: a follower that synced once catches up
// incrementally as the primary keeps ingesting, and Status reports the
// interim lag: what the pass that caught up had to apply, then zero.
func TestFollowerCatchUpAndLag(t *testing.T) {
	r := openRouter(t, t.TempDir(), 2)
	defer r.Close()
	if _, err := r.Append(context.Background(), resultstore.Batch{Key: "k0", Results: spreadResults(6)}); err != nil {
		t.Fatal(err)
	}
	f := NewFollower()
	if _, err := f.Sync(context.Background(), Primary{r}); err != nil {
		t.Fatal(err)
	}
	if f.Len() != 6 {
		t.Fatalf("follower Len = %d, want 6", f.Len())
	}

	// Primary moves ahead; the follower is now behind until it syncs.
	if _, err := r.Append(context.Background(), resultstore.Batch{Key: "k1", Results: spreadResults(8)}); err != nil {
		t.Fatal(err)
	}
	applied, err := f.Sync(context.Background(), Primary{r})
	if err != nil {
		t.Fatal(err)
	}
	st := f.Status()
	if !st.Synced || st.Syncs != 2 {
		t.Fatalf("status = %+v", st)
	}
	if applied != 8 || st.LagResults != 8 {
		t.Fatalf("the pass that caught up 8 results returned %d and reports lag_results %d, want 8 and 8", applied, st.LagResults)
	}
	if f.Len() != 14 {
		t.Fatalf("caught-up follower Len = %d, want 14", f.Len())
	}
	// The mirrored stream is still byte-identical after the
	// incremental delta (not just after a clean bootstrap).
	pq, _ := json.Marshal(r.Query(metricsdb.Filter{}))
	fq, _ := json.Marshal(f.Query(metricsdb.Filter{}))
	if string(pq) != string(fq) {
		t.Fatal("incremental catch-up diverged from primary")
	}
	// One quiet pass later the lag is gone.
	applied, err = f.Sync(context.Background(), Primary{r})
	if st := f.Status(); err != nil || applied != 0 || st.LagResults != 0 || st.Syncs != 3 {
		t.Fatalf("quiet pass: applied %d, err %v, status %+v; want 0, nil, lag_results 0 as of pass 3", applied, err, st)
	}
	sum := 0
	for i, sh := range st.Shards {
		if sh.Shard != i || sh.Results == 0 || sh.MaxSeq != r.Parts()[i].MaxSeq() {
			t.Fatalf("shard status %+v, want shard %d at its primary's max_seq %d", sh, i, r.Parts()[i].MaxSeq())
		}
		sum += sh.Results
	}
	if len(st.Shards) != 2 || sum != 14 {
		t.Fatalf("status lists %d shards holding %d results, want 2 holding 14", len(st.Shards), sum)
	}
}

// TestFollowerRefusesPrimaryBehindItsMirror: a primary that comes back
// with less than the follower mirrored (a wiped or restored data dir) is
// not the store this follower bootstrapped from. The pass must fail
// loudly, not report "synced, lag 0" over results the primary lost.
func TestFollowerRefusesPrimaryBehindItsMirror(t *testing.T) {
	r := openRouter(t, t.TempDir(), 2)
	defer r.Close()
	if _, err := r.Append(context.Background(), resultstore.Batch{Key: "k0", Results: spreadResults(12)}); err != nil {
		t.Fatal(err)
	}
	f := NewFollower()
	if _, err := f.Sync(context.Background(), Primary{r}); err != nil {
		t.Fatal(err)
	}
	before, _ := json.Marshal(f.Query(metricsdb.Filter{}))

	// The "restored" primary: same topology, a shorter history.
	restored := openRouter(t, t.TempDir(), 2)
	defer restored.Close()
	if _, err := restored.Append(context.Background(), resultstore.Batch{Key: "k0", Results: spreadResults(12)[:5]}); err != nil {
		t.Fatal(err)
	}
	applied, err := f.Sync(context.Background(), Primary{restored})
	if err == nil || !strings.Contains(err.Error(), "restart the follower to re-bootstrap") {
		t.Fatalf("pass against a primary behind the mirror: err = %v, want the re-bootstrap error", err)
	}
	st := f.Status()
	if applied != 0 || st.Syncs != 1 || !st.Synced || st.LastError != err.Error() {
		t.Fatalf("failed pass applied %d, status %+v; want nothing applied, syncs still 1, last_error set", applied, st)
	}
	if after, _ := json.Marshal(f.Query(metricsdb.Filter{})); string(after) != string(before) {
		t.Fatal("failed pass changed the mirrors")
	}
	// The real primary again: the follower recovers on its own.
	if _, err := f.Sync(context.Background(), Primary{r}); err != nil || f.Status().LastError != "" || f.Status().Syncs != 2 {
		t.Fatalf("pass against the original primary: %v, status %+v", err, f.Status())
	}
}

// TestFollowerRefusesAStalePage: a primary whose page repeats the
// follower's watermark — here the result at it, again and again — does
// not advance the mirror. The pass fails at that page, naming the shard
// and the watermark, without pulling it again or applying any of it; a
// pass against a sound primary then carries on.
func TestFollowerRefusesAStalePage(t *testing.T) {
	ctx := context.Background()
	r := openRouter(t, t.TempDir(), 2)
	defer r.Close()
	if _, err := r.Append(ctx, resultstore.Batch{Key: "k0", Results: spreadResults(12)}); err != nil {
		t.Fatal(err)
	}
	f := NewFollower()
	if _, err := f.Sync(ctx, Primary{r}); err != nil {
		t.Fatal(err)
	}
	at := f.Status().Shards[0].MaxSeq
	if at == 0 {
		t.Fatal("shard 0 holds nothing: no watermark to repeat")
	}
	// The primary has more, so the follower asks for it.
	if _, err := r.Append(ctx, resultstore.Batch{Key: "k1", Results: spreadResults(12)}); err != nil {
		t.Fatal(err)
	}
	before, _ := json.Marshal(f.Query(metricsdb.Filter{}))
	pulls := 0
	stale := sourceFunc{
		meta: func() (ReplicaMeta, error) { return Primary{r}.ReplicaMeta(ctx) },
		delta: func(shard, after int) (ReplicaDelta, error) {
			if pulls++; pulls > 50 {
				return ReplicaDelta{}, errors.New("the stale primary stopped serving")
			}
			page, err := Primary{r}.ReplicaDelta(ctx, shard, after-1)
			page.Results = page.Results[:min(1, len(page.Results))]
			return page, err
		},
	}
	applied, err := f.Sync(ctx, stale)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("shard 0 sent a page that does not follow this follower's seq %d", at)) {
		t.Fatalf("pass against a stale page: err = %v, want one naming shard 0 and seq %d", err, at)
	}
	st := f.Status()
	if applied != 0 || pulls != 1 || st.Syncs != 1 || st.LastError != err.Error() || st.Shards[0].MaxSeq != at {
		t.Fatalf("failed pass applied %d in %d pulls, status %+v; want nothing applied in one pull, syncs still 1, last_error set", applied, pulls, st)
	}
	if after, _ := json.Marshal(f.Query(metricsdb.Filter{})); string(after) != string(before) {
		t.Fatal("failed pass changed the mirrors")
	}
	if _, err := f.Sync(ctx, Primary{r}); err != nil || f.Len() != r.Len() || f.Status().LastError != "" {
		t.Fatalf("pass against the sound primary: %v, %d of %d results, status %+v", err, f.Len(), r.Len(), f.Status())
	}
}

// TestFollowerIsReadOnly: Append on a replica fails with ErrReadOnly.
func TestFollowerIsReadOnly(t *testing.T) {
	f := NewFollower()
	_, err := f.Append(context.Background(), resultstore.Batch{
		Key: "k", Results: []metricsdb.Result{res("b", "s", "fom", 1)},
	})
	if !errors.Is(err, ErrReadOnly) {
		t.Fatalf("replica Append: %v, want ErrReadOnly", err)
	}
}

// TestFollowerRejectsForeignSchema: schema and topology mismatches are
// hard errors, not silent corruption.
func TestFollowerRejectsForeignSchema(t *testing.T) {
	r := openRouter(t, t.TempDir(), 2)
	defer r.Close()
	f := NewFollower()

	badSchema := sourceFunc{
		meta: func() (ReplicaMeta, error) {
			return ReplicaMeta{Schema: "benchpark-replica-99", KeySchema: KeySchema, Shards: 2}, nil
		},
		delta: func(shard, after int) (ReplicaDelta, error) {
			return Primary{r}.ReplicaDelta(context.Background(), shard, after)
		},
	}
	if _, err := f.Sync(context.Background(), badSchema); err == nil {
		t.Fatal("foreign replica schema accepted")
	}
	if st := f.Status(); st.LastError == "" {
		t.Fatal("sync failure not recorded in status")
	}

	// Bootstrap against the real 2-shard primary, then present a
	// resharded topology: the follower must refuse, instructing a
	// re-bootstrap.
	if _, err := f.Sync(context.Background(), Primary{r}); err != nil {
		t.Fatal(err)
	}
	resharded := sourceFunc{
		meta: func() (ReplicaMeta, error) {
			return ReplicaMeta{Schema: ReplicaSchema, KeySchema: KeySchema, Shards: 4}, nil
		},
		delta: func(shard, after int) (ReplicaDelta, error) {
			return Primary{r}.ReplicaDelta(context.Background(), shard, after)
		},
	}
	if _, err := f.Sync(context.Background(), resharded); err == nil {
		t.Fatal("resharded primary accepted without re-bootstrap")
	}
}

// sourceFunc builds ad-hoc Sources for failure-path tests.
type sourceFunc struct {
	meta  func() (ReplicaMeta, error)
	delta func(shard, after int) (ReplicaDelta, error)
}

func (s sourceFunc) ReplicaMeta(ctx context.Context) (ReplicaMeta, error) { return s.meta() }
func (s sourceFunc) ReplicaDelta(ctx context.Context, shard, after int) (ReplicaDelta, error) {
	return s.delta(shard, after)
}

// TestFollowerRestartRebootstraps: a fresh follower (the restart
// model: replicas keep no durable state) re-pulls everything from
// watermark 0 and converges to the same bytes.
func TestFollowerRestartRebootstraps(t *testing.T) {
	r := openRouter(t, t.TempDir(), 3)
	defer r.Close()
	if _, err := r.Append(context.Background(), resultstore.Batch{Key: "k", Results: spreadResults(12)}); err != nil {
		t.Fatal(err)
	}
	f1 := NewFollower()
	if _, err := f1.Sync(context.Background(), Primary{r}); err != nil {
		t.Fatal(err)
	}
	f2 := NewFollower() // the "restarted" replica
	if _, err := f2.Sync(context.Background(), Primary{r}); err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(f1.Query(metricsdb.Filter{}))
	b, _ := json.Marshal(f2.Query(metricsdb.Filter{}))
	if string(a) != string(b) {
		t.Fatal("re-bootstrapped follower diverged")
	}
}

// TestReplicaPageIsCutWhileEncoding: whatever the reply bound, what
// AppendJSON writes is json.Marshal of the page's longest prefix that
// stays under it — never fewer than one result — appended after what
// the buffer held, and DecodeReplicaDelta reads that prefix back.
func TestReplicaPageIsCutWhileEncoding(t *testing.T) {
	page := ReplicaDelta{MaxSeq: 12}
	for i := 1; i <= 6; i++ {
		page.Results = append(page.Results, metricsdb.Result{
			Seq: i, Benchmark: "saxpy", System: fmt.Sprintf("sys-%d", i),
			FOMs: map[string]float64{"t": float64(i) / 4}, Manifest: strings.Repeat("m", 10*i),
		})
	}
	whole, err := json.Marshal(page)
	if err != nil {
		t.Fatal(err)
	}
	var dec metricsdb.Decoder
	for limit := 0; limit <= len(whole)+2; limit++ {
		out, kept, err := page.AppendJSON([]byte("kept"), limit)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(ReplicaDelta{MaxSeq: 12, Results: page.Results[:kept]})
		if string(out) != "kept"+string(want) {
			t.Fatalf("limit %d: wrote %s, want %s", limit, out[4:], want)
		}
		if kept < 1 || (kept > 1 && len(want) >= limit) {
			t.Fatalf("limit %d: kept %d results in %d bytes", limit, kept, len(want))
		}
		if kept < len(page.Results) {
			if longer, _ := json.Marshal(ReplicaDelta{MaxSeq: 12, Results: page.Results[:kept+1]}); len(longer) < limit {
				t.Fatalf("limit %d: cut at %d results though %d fit in %d bytes", limit, kept, kept+1, len(longer))
			}
		}
		back, err := DecodeReplicaDelta(&dec, out[4:])
		if err != nil || back.MaxSeq != 12 || len(back.Results) != kept || back.Results[kept-1].Manifest != page.Results[kept-1].Manifest {
			t.Fatalf("limit %d: read back %+v, %v", limit, back, err)
		}
	}
	empty, kept, err := ReplicaDelta{MaxSeq: 3}.AppendJSON(nil, 0)
	if err != nil || kept != 0 || string(empty) != `{"max_seq":3}` {
		t.Fatalf("an empty page: %s, %d, %v", empty, kept, err)
	}
}
