package resultshard

// The seeded replication oracle: random interleavings of appends,
// passes, failing passes, tiny pages and status polls against a
// one-shard Store primary and a 4-shard Router primary, with the
// follower's contract checked after EVERY step — each mirror a
// Seq-prefix of its shard, syncs counting completed passes only, a
// failed pass keeping synced and setting last_error, and a quiet
// completed pass leaving byte-identical reads and a lag_results equal to
// exactly what it applied.

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/metricsdb"
	"repro/internal/resultstore"
)

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

// followed is what the oracle needs of a primary; *resultstore.Store
// and *Router both are one.
type followed interface {
	Sharded
	Append(ctx context.Context, b resultstore.Batch) (bool, error)
	Len() int
	Query(f metricsdb.Filter) []metricsdb.Result
	Series(f metricsdb.Filter, fom string) []metricsdb.Point
	DetectRegressions(f metricsdb.Filter, fom string, window int, threshold float64) []metricsdb.Regression
	Systems() []string
}

// oraclePrimaries opens the two topologies a follower can follow.
func oraclePrimaries(t *testing.T) map[string]followed {
	t.Helper()
	st, err := resultstore.Open(t.TempDir(), fixedStoreOpts())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	r := openRouter(t, t.TempDir(), 4)
	t.Cleanup(func() { r.Close() })
	return map[string]followed{"one-shard store": st, "4-shard router": r}
}

var errInjected = errors.New("injected source failure")

// faultySource wraps a Source for one pass: it cuts every page to at
// most limit results (0: uncut) and fails the failPage-th delta pull of
// failShard (failShard < 0: never), counting pulls per shard.
type faultySource struct {
	Source
	limit               int
	failShard, failPage int
	pulls               map[int]int
}

func (s *faultySource) ReplicaDelta(ctx context.Context, shard, afterSeq int) (ReplicaDelta, error) {
	if s.pulls == nil {
		s.pulls = map[int]int{}
	}
	s.pulls[shard]++
	if shard == s.failShard && s.pulls[shard] == s.failPage+1 {
		return ReplicaDelta{}, errInjected
	}
	d, err := s.Source.ReplicaDelta(ctx, shard, afterSeq)
	if s.limit > 0 && len(d.Results) > s.limit {
		d.Results = d.Results[:s.limit]
	}
	return d, err
}

// oracleBatch is the n-th batch of a schedule: 1–6 results over a
// pool of pairs wide enough to hit every shard, values that seed a few
// regressions, and a trace ID to carry through the mirror.
func oracleBatch(sch *schedule, n int) resultstore.Batch {
	rs := make([]metricsdb.Result, 1+sch.draw(6))
	for i := range rs {
		v := 1.0
		if sch.draw(10) == 0 {
			v = 9 // against a rolling median of 1s
		}
		rs[i] = res(fmt.Sprintf("bench-%02d", sch.draw(4)), fmt.Sprintf("sys-%02d", sch.draw(3)), "fom", v)
	}
	return resultstore.Batch{Key: fmt.Sprintf("b%d", n), TraceID: fmt.Sprintf("%032x", n+1), Results: rs}
}

// checkPrefixes asserts every mirror is a Seq-prefix of its shard:
// result for result the same ID, Seq, TraceID and placement key (the
// byte-identity checks compare the rest). The mirror is read first: a
// primary ingesting meanwhile only grows past it.
func checkPrefixes(t *testing.T, at string, f *Follower, p followed) {
	t.Helper()
	f.mu.RLock()
	dbs := f.dbs
	f.mu.RUnlock()
	for i, db := range dbs {
		mirror := db.QueryAfterN(0, math.MaxInt)
		shard := p.Parts()[i].QueryAfterN(0, math.MaxInt)
		if len(mirror) > len(shard) {
			t.Fatalf("%s: mirror %d holds %d results, its shard %d", at, i, len(mirror), len(shard))
		}
		for j, m := range mirror {
			if s := shard[j]; m.ID != s.ID || m.Seq != s.Seq || m.TraceID != s.TraceID || m.System != s.System || m.Benchmark != s.Benchmark {
				t.Fatalf("%s: mirror %d is not a prefix of its shard: result %d is %+v there, %+v here", at, i, j, s, m)
			}
		}
	}
}

// checkReadsIdentical asserts the follower answers the whole read
// surface with the primary's bytes, for pinned, half-pinned and empty
// filters.
func checkReadsIdentical(t *testing.T, at string, f *Follower, p followed) {
	t.Helper()
	same := func(what string, got, want any) {
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(want)
		if string(g) != string(w) {
			t.Fatalf("%s: %s differs\nprimary:  %s\nfollower: %s", at, what, w, g)
		}
	}
	for _, flt := range []metricsdb.Filter{
		{},
		{System: "sys-01"},
		{Benchmark: "bench-02"},
		{System: "sys-01", Benchmark: "bench-02"},
		{System: "sys-00", Benchmark: "bench-03", Experiment: "bench-03_exp"},
	} {
		same(fmt.Sprintf("Query(%+v)", flt), f.Query(flt), p.Query(flt))
		same(fmt.Sprintf("Series(%+v)", flt), f.Series(flt, "fom"), p.Series(flt, "fom"))
		same(fmt.Sprintf("DetectRegressions(%+v)", flt), f.DetectRegressions(flt, "fom", 3, 1.2), p.DetectRegressions(flt, "fom", 3, 1.2))
	}
	same("Systems", f.Systems(), p.Systems())
}

func TestReplicationOracle(t *testing.T) {
	const steps = 200
	for _, seed := range []string{"replica-a", "replica-b", "replica-c"} {
		for name, p := range oraclePrimaries(t) {
			sch := &schedule{seed: seed + "/" + name}
			f := NewFollower()
			shards := len(p.Parts())
			var (
				batches, completed, failed, regressions int
				lastApplied                             int    // by the last completed pass
				lastErr                                 string // "" once a pass completes
			)
			for step := 0; step < steps; step++ {
				at := fmt.Sprintf("%s, %s, step %d", seed, name, step)
				switch kind := sch.draw(10); {
				case kind < 4: // append a batch
					if _, err := p.Append(context.Background(), oracleBatch(sch, batches)); err != nil {
						t.Fatalf("%s: append: %v", at, err)
					}
					batches++
				case kind < 9: // a pass: plain, tiny-paged, failing, or both
					src := &faultySource{Source: Primary{p}, failShard: -1}
					if kind >= 6 {
						src.limit = 1 + sch.draw(3)
					}
					if kind == 5 || kind == 8 {
						src.failShard, src.failPage = sch.draw(shards), sch.draw(3)
					}
					behind := p.Len() - f.Len()
					before := f.Len()
					applied, err := f.Sync(context.Background(), src)
					if f.Len()-before != applied {
						t.Fatalf("%s: Sync says it applied %d, mirrors grew by %d", at, applied, f.Len()-before)
					}
					if err != nil {
						if !errors.Is(err, errInjected) {
							t.Fatalf("%s: pass failed on its own: %v", at, err)
						}
						failed++
						lastErr = err.Error()
						break
					}
					completed++
					lastApplied, lastErr = applied, ""
					// Nothing was appended since the pass began, so it
					// caught up all the way.
					if applied != behind {
						t.Fatalf("%s: a quiet pass applied %d of the %d results it was behind", at, applied, behind)
					}
					checkReadsIdentical(t, at, f, p)
					regressions += len(f.DetectRegressions(metricsdb.Filter{}, "fom", 3, 1.2))
				}
				// After every step, status polls included (kind 9 is only one).
				st := f.Status()
				if st.Syncs != completed || st.Synced != (completed > 0) || st.LagResults != lastApplied || st.LastError != lastErr {
					t.Fatalf("%s: status %+v; want syncs %d, lag_results %d (the last completed pass's), last_error %q",
						at, st, completed, lastApplied, lastErr)
				}
				if f.Health().Ready != st.Synced {
					t.Fatalf("%s: ready %v but synced %v", at, f.Health().Ready, st.Synced)
				}
				held := 0
				for _, sh := range st.Shards {
					held += sh.Results
				}
				if held != f.Len() {
					t.Fatalf("%s: status shards hold %d results, the follower serves %d", at, held, f.Len())
				}
				checkPrefixes(t, at, f, p)
			}
			// A schedule that never failed a pass, never completed one
			// after a failure or never saw a regression tested less than
			// it claims.
			if batches < 50 || completed < 50 || failed < 10 || regressions == 0 {
				t.Fatalf("%s, %s: %d batches, %d completed and %d failed passes, %d regressions seen: the schedule is too thin",
					seed, name, batches, completed, failed, regressions)
			}
		}
	}
}

// TestReplicationOracleConcurrentAppender is the variant where the
// primary ingests WHILE the follower passes (run it under -race): every
// pass, complete or failed, leaves prefixes; once the appender is done,
// the second pass from then is quiet and leaves identical reads.
func TestReplicationOracleConcurrentAppender(t *testing.T) {
	for name, p := range oraclePrimaries(t) {
		f := NewFollower()
		const batches = 150
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			sch := &schedule{seed: "appender/" + name}
			for n := 0; n < batches; n++ {
				if _, err := p.Append(context.Background(), oracleBatch(sch, n)); err != nil {
					t.Errorf("%s: append %d: %v", name, n, err)
					return
				}
			}
		}()
		appended := make(chan struct{})
		go func() { wg.Wait(); close(appended) }()

		sch := &schedule{seed: "passes/" + name}
		completed := 0
		pass := func(at string) int {
			src := &faultySource{Source: Primary{p}, limit: sch.draw(4), failShard: -1}
			if sch.draw(4) == 0 {
				src.failShard, src.failPage = sch.draw(len(p.Parts())), sch.draw(2)
			}
			applied, err := f.Sync(context.Background(), src)
			if err != nil && !errors.Is(err, errInjected) {
				t.Fatalf("%s: pass failed on its own: %v", at, err)
			}
			if err == nil {
				completed++
			}
			if st := f.Status(); st.Syncs != completed || (err == nil) != (st.LastError == "") || (err == nil && st.LagResults != applied) {
				t.Fatalf("%s: pass returned (%d, %v), status %+v after %d completed passes", at, applied, err, st, completed)
			}
			checkPrefixes(t, at, f, p)
			return applied
		}
		for n, done := 0, false; !done; n++ {
			select {
			case <-appended:
				done = true
			default:
				pass(fmt.Sprintf("%s, pass %d beside the appender", name, n))
			}
		}
		// Ingest is over. A pass that starts now catches up; the next
		// has nothing to apply.
		for _, want := range []int{p.Len() - f.Len(), 0} {
			applied, err := f.Sync(context.Background(), Primary{p})
			if err != nil || applied != want || f.Status().LagResults != want {
				t.Fatalf("%s: pass after ingest ended applied %d (lag_results %d, err %v), want %d",
					name, applied, f.Status().LagResults, err, want)
			}
		}
		if f.Len() != p.Len() || p.Len() == 0 {
			t.Fatalf("%s: follower holds %d of %d results", name, f.Len(), p.Len())
		}
		checkReadsIdentical(t, name+", after ingest", f, p)
		checkPrefixes(t, name+", after ingest", f, p)
	}
}

// TestPrimaryPagesAShard: a delta is a page — at most replicaPage
// results however far behind the asker is, max_seq the whole shard's —
// and a follower needs only one Sync to walk them all.
func TestPrimaryPagesAShard(t *testing.T) {
	st, err := resultstore.Open(t.TempDir(), fixedStoreOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for n := 0; n*100 < 2*replicaPage+100; n++ { // two full pages and a short one
		rs := make([]metricsdb.Result, 100)
		for i := range rs {
			rs[i] = res("bench", fmt.Sprintf("sys-%02d", i%4), "fom", float64(n))
		}
		if _, err := st.Append(context.Background(), resultstore.Batch{Key: fmt.Sprint("k", n), Results: rs}); err != nil {
			t.Fatal(err)
		}
	}
	src, total := Primary{st}, st.Len()
	if meta, err := src.ReplicaMeta(context.Background()); err != nil || meta.Shards != 1 || meta.Schema != ReplicaSchema {
		t.Fatalf("a plain store's meta = %+v, %v; want a one-shard primary", meta, err)
	}
	for _, after := range []int{0, replicaPage, 2 * replicaPage, total} {
		d, err := src.ReplicaDelta(context.Background(), 0, after)
		if want := min(replicaPage, total-after); err != nil || d.MaxSeq != total || len(d.Results) != want || (want > 0 && d.Results[0].Seq != after+1) {
			t.Fatalf("delta after %d: %d results from seq %v, max_seq %d, err %v; want %d from %d, max_seq %d",
				after, len(d.Results), d.Results[:min(1, len(d.Results))], d.MaxSeq, err, want, after+1, total)
		}
	}
	if _, err := src.ReplicaDelta(context.Background(), 1, 0); err == nil {
		t.Fatal("a one-shard primary served shard 1")
	}
	pulls := &faultySource{Source: src, failShard: -1}
	f := NewFollower()
	if applied, err := f.Sync(context.Background(), pulls); err != nil || applied != total || pulls.pulls[0] != 3 {
		t.Fatalf("bootstrap: applied %d of %d in %d pulls, err %v; want all of it in 3 pages of one pass", applied, total, pulls.pulls[0], err)
	}
	checkReadsIdentical(t, "paged bootstrap", f, st)
}
