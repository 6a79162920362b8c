package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/buildcache"
	"repro/internal/cachekey"
)

// nightlyMatrix is the eleven sessions of benchmarks/sysbench's nightly.
var nightlyMatrix = [][2]string{
	{"saxpy/openmp", "cts1"}, {"stream/triad", "cts1"}, {"hpcg/hpcg", "cts1"},
	{"lulesh/hydro", "cts1"}, {"osu/bcast", "cts1"}, {"osu/allreduce", "cts1"},
	{"amg2023/cube", "cts1"}, {"saxpy/openmp", "cloud-c5n"}, {"saxpy/openmp", "fugaku-a64fx"},
	{"saxpy/cuda", "ats2"}, {"saxpy/rocm", "ats4"},
}

// marshalledKey is the run-layer key as it was defined before
// ExperimentKey encoded it by hand: cachekey.Hash of this struct. The
// keys of deployed run layers were derived this way, so it is the
// oracle ExperimentKey must keep agreeing with.
func marshalledKey(t *testing.T, r *sessionRunner, i int) cachekey.Key {
	t.Helper()
	e := r.exps[i]
	norm := func(v string) string {
		return strings.ReplaceAll(v, r.s.Workspace.Root, "$WORKSPACE")
	}
	normMap := func(m map[string]string) map[string]string {
		out := make(map[string]string, len(m))
		for k, v := range m {
			out[k] = norm(v)
		}
		return out
	}
	lock := ""
	if lf, ok := r.s.Lockfiles[e.App.Name]; ok {
		var err error
		if lock, err = lf.JSON(); err != nil {
			t.Fatal(err)
		}
	}
	in := struct {
		Suite      string
		System     string
		Experiment string
		App        string
		Workload   string
		Vars       map[string]string
		Env        map[string]string
		Modifiers  []string
		Script     string
		NNodes     int
		ProcsNode  int
		NRanks     int
		NThreads   int
		Lockfile   string
	}{
		Suite:      r.s.Suite,
		System:     r.s.System.Name,
		Experiment: e.Name,
		App:        e.App.Name,
		Workload:   e.Workload,
		Vars:       normMap(expandedVars(e)),
		Env:        normMap(e.Env),
		Modifiers:  e.Modifiers,
		Script:     norm(e.Script),
		NNodes:     e.NNodes,
		ProcsNode:  e.ProcsPerNode,
		NRanks:     e.NRanks,
		NThreads:   e.NThreads,
		Lockfile:   lock,
	}
	return cachekey.Hash(in).Derive("execute")
}

// TestExperimentKeyMatchesMarshalledStruct: for every experiment of
// the nightly matrix, and again with seeded hostile variables, the
// hand-encoded key is the key encoding/json gives — a deployed run
// layer stays warm across the change of encoder.
func TestExperimentKeyMatchesMarshalledStruct(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(24))
	experiments := 0
	for _, spec := range nightlyMatrix {
		sess, err := New().Setup(spec[0], spec[1], t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		r := &sessionRunner{s: sess}
		if err := r.Setup(ctx); err != nil {
			t.Fatal(err)
		}
		if err := r.Install(ctx); err != nil {
			t.Fatal(err)
		}
		check := func(what string) {
			t.Helper()
			for i, e := range r.exps {
				r.vars[i] = nil
				if got, want := r.ExperimentKey(i), marshalledKey(t, r, i); got != want || !got.Valid() {
					t.Errorf("%s@%s %s (%s): key %q, encoding/json gives %q", spec[0], spec[1], e.Name, what, got, want)
				}
			}
		}
		check("as generated")
		experiments += len(r.exps)

		// Everything encoding/json escapes, the root as a substring
		// (alone, repeated, overlapping a multi-byte character's tail),
		// and the shapes of Modifiers and Env a generated experiment
		// does not have.
		root := sess.Workspace.Root
		pieces := []string{"<", ">", "&", "\u2028", "\u2029", "\xff", "\xe2\x80", `"`, `\`, "\n", "\x01", "é",
			"plain", "$WORKSPACE", root, root + root, root[:len(root)/2]}
		hostile := func() string {
			var b strings.Builder
			for n := rng.Intn(8); n >= 0; n-- {
				b.WriteString(pieces[rng.Intn(len(pieces))])
			}
			return b.String()
		}
		for i, e := range r.exps {
			for n := 0; n < 4; n++ {
				e.Expander.Set(fmt.Sprintf("hostile_%d%s", n, pieces[rng.Intn(6)]), hostile())
			}
			e.Env = map[string]string{hostile(): hostile(), "ROOT": root}
			e.Script += hostile()
			switch i % 3 {
			case 0:
				e.Modifiers = []string{}
			case 1:
				e.Modifiers = []string{hostile(), hostile()}
			}
		}
		check("hostile")
		for _, e := range r.exps {
			e.Env = nil
		}
		check("nil Env")
	}
	if experiments != 52 {
		t.Errorf("the nightly matrix generated %d experiments, want 52", experiments)
	}
}

// allocatedBy reports the bytes the process allocated while f ran.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestWarmSessionCostIndependentOfCacheSize pins the warm path's cost
// model: a session that hits every layer pays for the entries it
// touches, so 2,000 binaries it never asks about — a community cache's
// worth — do not change what it allocates.
func TestWarmSessionCostIndependentOfCacheSize(t *testing.T) {
	st, err := cachekey.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	session := func() {
		bp := New()
		bp.UseCache(st)
		sess, err := bp.Setup("saxpy/openmp", "cts1", t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		_, erep, err := sess.Run(context.Background(), RunOptions{Jobs: 2})
		if err != nil {
			t.Fatal(err)
		}
		if bc := runStat(t, erep, "buildcache"); erep.CacheHits != erep.Total || bc.Misses != 0 {
			t.Fatalf("session not fully warm: %d of %d replayed, buildcache %+v", erep.CacheHits, erep.Total, bc)
		}
	}
	// A session that meets a GC cycle refills the runtime's pools and
	// reads tens of kB high, so a layer is judged by the least of ten
	// sessions. spread is how far the middle one sits above it: a few
	// percent, except under the race detector, whose sync.Pool drops at
	// random.
	warm := func() (least uint64, spread float64) {
		runs := make([]uint64, 10)
		for i := range runs {
			runs[i] = allocatedBy(session)
		}
		slices.Sort(runs)
		return runs[0], float64(runs[len(runs)/2]-runs[0]) / float64(runs[0])
	}
	// The priming session is cold; it fills every layer.
	bp := New()
	bp.UseCache(st)
	sess, err := bp.Setup("saxpy/openmp", "cts1", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.RunAll(); err != nil {
		t.Fatal(err)
	}
	small, spread := warm()

	community := buildcache.New()
	community.Persist(st.Layer("buildcache"))
	for i := 0; i < 2000; i++ {
		community.Put(buildcache.Entry{
			Hash:     fmt.Sprintf("unrelated%023d", i),
			SpecText: fmt.Sprintf("pkg%d@1.0%%gcc@12.1.1 target=broadwell", i),
			Size:     1 << 20, Package: fmt.Sprintf("pkg%d", i), Version: "1.0", Target: "broadwell",
		})
	}
	large, spreadLarge := warm()
	// 5 %, or what the instrument resolves when that is coarser (before
	// the read-through cache the 2,000 entries cost 11x).
	bound := max(0.05, spread, spreadLarge)
	t.Logf("warm session allocates %d bytes over the primed layer, %d with 2,000 more entries (%.3fx, bound %.1f%%)",
		small, large, float64(large)/float64(small), 100*bound)
	if float64(large) > (1+bound)*float64(small) {
		t.Errorf("a warm session allocates %d bytes over a 2,000-entry buildcache layer, %d over the primed one: want within %.0f%%",
			large, small, 100*bound)
	}
}
