package core

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/adiak"
	"repro/internal/bench"
	"repro/internal/cachekey"
	"repro/internal/caliper"
	"repro/internal/ci"
	"repro/internal/engine"
	"repro/internal/hpcsim"
	"repro/internal/ramble"
	"repro/internal/spec"
	"repro/internal/telemetry"
)

// runStat extracts one layer's row from a report's cache table.
func runStat(t *testing.T, rep *engine.Report, layer string) engine.CacheStat {
	t.Helper()
	for _, cs := range rep.Cache {
		if cs.Layer == layer {
			return cs
		}
	}
	t.Fatalf("report has no %q cache layer: %+v", layer, rep.Cache)
	return engine.CacheStat{}
}

// TestWarmSessionRunReplaysByteIdentical is the incremental pipeline's
// headline guarantee at the session level: a warm re-run of an
// unchanged suite over a shared run layer executes zero experiments —
// every outcome replays from the cache — yet leaves a byte-identical
// results.json behind, emits the identical results batch, and produces
// the identical span tree (cold vs warm) under a FixedClock tracer.
// Two warm runs must produce byte-identical full traces, metrics
// included.
func TestWarmSessionRunReplaysByteIdentical(t *testing.T) {
	st, err := cachekey.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Only the run layer is shared (bp.Store, not UseCache): a shared
	// buildcache would legitimately change the install spans of the warm
	// run, and this test pins span identity.
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

	runOnce := func() (results string, trace *telemetry.Trace, traceJSON string, erep *engine.Report) {
		t.Helper()
		bp := New()
		bp.Store = st
		tr := telemetry.New(telemetry.FixedClock{T: epoch})
		ctx := telemetry.WithTracer(context.Background(), tr)
		dir := t.TempDir()
		sess, err := bp.Setup("saxpy/openmp", "cts1", dir)
		if err != nil {
			t.Fatal(err)
		}
		_, erep, err = sess.Run(ctx, RunOptions{Jobs: 8})
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Workspace.Save(); err != nil {
			t.Fatal(err)
		}
		artifact, err := os.ReadFile(filepath.Join(dir, "logs", "results.json"))
		if err != nil {
			t.Fatal(err)
		}
		src, err := tr.Snapshot().JSON()
		if err != nil {
			t.Fatal(err)
		}
		parsed, err := telemetry.ParseTrace(src)
		if err != nil {
			t.Fatal(err)
		}
		return string(artifact), parsed, src, erep
	}

	coldRes, coldTrace, _, coldRep := runOnce()
	warmRes, warmTrace, warmJSON, warmRep := runOnce()
	warm2Res, _, warm2JSON, warm2Rep := runOnce()

	if coldRep.Total == 0 {
		t.Fatal("suite generated no experiments")
	}
	cold := runStat(t, coldRep, "run")
	if cold.Hits != 0 || cold.Misses != coldRep.Total || cold.Bytes == 0 {
		t.Errorf("cold run layer = %+v, want 0 hits, %d misses, bytes>0", cold, coldRep.Total)
	}

	// Warm: zero executions — every experiment replays.
	for _, rep := range []*engine.Report{warmRep, warm2Rep} {
		warm := runStat(t, rep, "run")
		if warm.Misses != 0 || warm.Hits != rep.Total {
			t.Errorf("warm run layer = %+v, want %d hits, 0 misses", warm, rep.Total)
		}
		if rep.CacheHits != rep.Total {
			t.Errorf("warm CacheHits = %d, want %d", rep.CacheHits, rep.Total)
		}
		if rep.Executed != rep.Total || rep.Failed != 0 {
			t.Errorf("warm report executed=%d failed=%d, want %d committed replays",
				rep.Executed, rep.Failed, rep.Total)
		}
	}

	// The replayed run settles into the same artifact, byte for byte.
	if coldRes != warmRes {
		t.Errorf("results.json differs cold vs warm:\n--- cold ---\n%s\n--- warm ---\n%s", coldRes, warmRes)
	}
	if warmRes != warm2Res {
		t.Errorf("results.json differs across warm runs")
	}

	// The results batch — what a CI job would push to the federation
	// service — replays identically too.
	coldBatch, err := json.Marshal(coldRep.Results)
	if err != nil {
		t.Fatal(err)
	}
	warmBatch, err := json.Marshal(warmRep.Results)
	if err != nil {
		t.Fatal(err)
	}
	if string(coldBatch) != string(warmBatch) {
		t.Errorf("results batch differs cold vs warm:\n%s\nvs\n%s", coldBatch, warmBatch)
	}

	// Span trees are identical cold vs warm: a cache hit opens the
	// same spans an execution would. (The full trace JSON legitimately
	// differs — cache hit/miss counters — so compare spans only.)
	coldSpans, err := json.Marshal(coldTrace.Spans)
	if err != nil {
		t.Fatal(err)
	}
	warmSpans, err := json.Marshal(warmTrace.Spans)
	if err != nil {
		t.Fatal(err)
	}
	if string(coldSpans) != string(warmSpans) {
		t.Errorf("span tree differs cold vs warm:\n--- cold ---\n%s\n--- warm ---\n%s", coldSpans, warmSpans)
	}

	// Warm vs warm, nothing differs — metrics included.
	if warmJSON != warm2JSON {
		t.Errorf("full trace differs across warm runs:\n--- first ---\n%s\n--- second ---\n%s", warmJSON, warm2JSON)
	}
}

// TestRunLayerSeesTheSystemModel: two deployments share one store, and
// between their runs cts1's network bandwidth halves. The second run
// must measure again — not replay FOMs taken on the old model as if
// they were measured — and once the model is restored, the first run's
// entries replay.
func TestRunLayerSeesTheSystemModel(t *testing.T) {
	st, err := cachekey.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cts, err := hpcsim.Get("cts1")
	if err != nil {
		t.Fatal(err)
	}
	run := func() engine.CacheStat {
		t.Helper()
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
		return runStat(t, erep, "run")
	}
	cold := run()
	if cold.Hits != 0 || cold.Misses == 0 {
		t.Fatalf("cold run layer = %+v", cold)
	}
	bw := cts.Network.BandwidthGBs
	t.Cleanup(func() { cts.Network.BandwidthGBs = bw })
	cts.Network.BandwidthGBs = bw / 2
	if edited := run(); edited.Hits != 0 || edited.Misses != cold.Misses {
		t.Errorf("after cts1's bandwidth halved, run layer = %+v, want %d misses and no replay", edited, cold.Misses)
	}
	cts.Network.BandwidthGBs = bw
	if again := run(); again.Misses != 0 || again.Hits != cold.Misses {
		t.Errorf("with the model restored, run layer = %+v, want %d hits", again, cold.Misses)
	}
}

// deltaSuiteYAML is a three-experiment saxpy suite whose middle
// experiment's problem size is the fmt parameter — the "single
// variable edit" of the incremental-pipeline acceptance test.
const deltaSuiteYAML = `
ramble:
  include:
  - ./configs/spack.yaml
  - ./configs/variables.yaml
  applications:
    saxpy:
      workloads:
        problem:
          env_vars:
            set:
              OMP_NUM_THREADS: '{n_threads}'
          variables:
            variant: 'openmp'
            batch_time: '120'
            processes_per_node: '8'
            n_nodes: '1'
            n_threads: '2'
          experiments:
            saxpy_small_{n}:
              variables:
                n: '512'
            saxpy_medium_{n}:
              variables:
                n: '%s'
            saxpy_large_{n}:
              variables:
                n: '4096'
  spack:
    packages:
      saxpy:
        spack_spec: saxpy@1.0.0 +openmp ^cmake@3.23.1
        compiler: default-compiler
    environments:
      saxpy:
        packages:
        - default-mpi
        - saxpy
`

// deltaSession builds a session over the delta suite with the middle
// experiment's size set to mediumN.
func deltaSession(t *testing.T, bp *Benchpark, mediumN string) *Session {
	t.Helper()
	sys, err := hpcsim.Get("cts1")
	if err != nil {
		t.Fatal(err)
	}
	ws, err := ramble.NewWorkspace("saxpy/delta@cts1", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	files, err := SystemConfigs(sys)
	if err != nil {
		t.Fatal(err)
	}
	for name, content := range files {
		ws.WriteConfig(name, content)
	}
	if err := ws.Configure(fmt.Sprintf(deltaSuiteYAML, mediumN)); err != nil {
		t.Fatal(err)
	}
	sess, err := NewSessionForWorkspace(bp, sys, ws.Name, ws)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// TestWarmRunReExecutesOnlyTheEditedExperiment: after one variable
// edit, a warm run over the shared layer re-executes exactly the
// changed experiment and replays the rest.
func TestWarmRunReExecutesOnlyTheEditedExperiment(t *testing.T) {
	st, err := cachekey.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	run := func(mediumN string) *engine.Report {
		t.Helper()
		bp := New()
		bp.Store = st
		sess := deltaSession(t, bp, mediumN)
		_, erep, err := sess.Run(context.Background(), RunOptions{Jobs: 4})
		if err != nil {
			t.Fatal(err)
		}
		if erep.Failed != 0 {
			t.Fatalf("%d experiments failed", erep.Failed)
		}
		return erep
	}

	cold := run("1024")
	if cold.Total != 3 {
		t.Fatalf("delta suite generated %d experiments, want 3", cold.Total)
	}
	if cold.CacheHits != 0 {
		t.Fatalf("cold run hit %d entries in an empty cache", cold.CacheHits)
	}

	warm := run("1024")
	if cs := runStat(t, warm, "run"); cs.Hits != 3 || cs.Misses != 0 {
		t.Errorf("unchanged warm run = %+v, want 3 hits, 0 misses", cs)
	}

	edited := run("2048")
	if cs := runStat(t, edited, "run"); cs.Hits != 2 || cs.Misses != 1 {
		t.Errorf("after a one-variable edit, run layer = %+v, want 2 hits, 1 miss", cs)
	}

	again := run("2048")
	if cs := runStat(t, again, "run"); cs.Hits != 3 || cs.Misses != 0 {
		t.Errorf("re-run of the edited suite = %+v, want 3 hits (delta now cached)", cs)
	}
}

// TestConcurrentSessionsCountOnlyTheirOwnCacheTraffic: two suites run
// at once on one deployment with a store. Each session's concretize
// and buildcache rows count the lookups that session made, so together
// they make as many as the same suites make each alone on a fresh
// deployment — whatever the interleaving decides about hit or miss,
// the number of lookups is fixed. lulesh/hydro is the cheapest suite
// that looks up some of saxpy/openmp's binaries, so order matters.
func TestConcurrentSessionsCountOnlyTheirOwnCacheTraffic(t *testing.T) {
	suites := []string{"saxpy/openmp", "lulesh/hydro"}
	deployment := func() *Benchpark {
		st, err := cachekey.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		bp := New()
		bp.UseCache(st)
		return bp
	}
	run := func(bp *Benchpark, suite string) *engine.Report {
		sess, err := bp.Setup(suite, "cts1", t.TempDir())
		if err != nil {
			t.Error(err)
			return nil
		}
		_, erep, err := sess.Run(context.Background(), RunOptions{Jobs: 2})
		if err != nil {
			t.Error(err)
		}
		return erep
	}
	lookups := func(reps []*engine.Report) map[string]int {
		n := map[string]int{}
		for _, rep := range reps {
			if rep == nil {
				t.FailNow()
			}
			for _, cs := range rep.Cache {
				if cs.Layer != "run" {
					n[cs.Layer] += cs.Hits + cs.Misses
				}
			}
		}
		return n
	}

	alone := make([]*engine.Report, len(suites))
	for i, suite := range suites {
		alone[i] = run(deployment(), suite)
	}
	together := make([]*engine.Report, len(suites))
	bp := deployment()
	var wg sync.WaitGroup
	for i, suite := range suites {
		wg.Add(1)
		go func() {
			defer wg.Done()
			together[i] = run(bp, suite)
		}()
	}
	wg.Wait()

	want, got := lookups(alone), lookups(together)
	for _, layer := range []string{"concretize", "buildcache"} {
		if want[layer] == 0 || got[layer] != want[layer] {
			t.Errorf("%s lookups: concurrent sessions report %d, alone %d", layer, got[layer], want[layer])
		}
	}
}

// TestNightlyPipelineCacheProvenance: a CI deployment over a shared
// durable store records per-job cache provenance in each job log's
// "cache layer" records, and the second nightly's jobs are 100%
// run-layer hits — the pipeline re-ran the benchmarks without
// executing any of them.
func TestNightlyPipelineCacheProvenance(t *testing.T) {
	bp := New()
	auto, err := NewAutomation(bp, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st, err := cachekey.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	auto.Benchpark.UseCache(st)

	// jobProvenance sums one layer's "cache layer" records over the
	// job's benchpark runs.
	jobProvenance := func(j *ci.CIJob, layer string) (cp engine.CacheStat, ok bool) {
		for _, line := range strings.Split(j.Log, "\n") {
			if !strings.Contains(line, `msg="cache layer"`) || !strings.Contains(line, " layer="+layer+" ") {
				continue
			}
			var hits, misses int
			_, counts, _ := strings.Cut(line, " hits=")
			if _, err := fmt.Sscanf(counts, "%d misses=%d", &hits, &misses); err != nil {
				t.Fatalf("job %s: unreadable cache record %q: %v", j.Name, line, err)
			}
			cp.Hits += hits
			cp.Misses += misses
			ok = true
		}
		return cp, ok
	}

	first, err := auto.RunNightly(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if first.Status() != ci.JobSuccess {
		t.Fatalf("first nightly = %v", first.Status())
	}
	for _, j := range first.Jobs {
		cp, ok := jobProvenance(j, "run")
		if !ok {
			t.Fatalf("job %s recorded no run-layer provenance: %s", j.Name, j.Log)
		}
		if cp.Hits != 0 || cp.Misses == 0 {
			t.Errorf("job %s cold provenance = %+v, want all misses", j.Name, cp)
		}
	}

	second, err := auto.RunNightly(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if second.Status() != ci.JobSuccess {
		t.Fatalf("second nightly = %v", second.Status())
	}
	for _, j := range second.Jobs {
		cp, ok := jobProvenance(j, "run")
		if !ok {
			t.Fatalf("job %s recorded no run-layer provenance: %s", j.Name, j.Log)
		}
		if cp.Misses != 0 || cp.Hits == 0 {
			t.Errorf("job %s warm provenance = %+v, want all hits", j.Name, cp)
		}
		if _, ok := jobProvenance(j, "concretize"); !ok {
			t.Errorf("job %s has no concretize provenance: %s", j.Name, j.Log)
		}
	}
}

// TestRunLayerSeesTheLockfile: a dependency below saxpy's root changes
// (zlib, under cmake, pinned to its older version) while no
// experiment's text does. The run key folds in the environment's root
// DAG hashes, which cover every node below the root, so every
// experiment must measure again; with the preference undone, the first
// run's entries replay.
func TestRunLayerSeesTheLockfile(t *testing.T) {
	st, err := cachekey.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	type text struct{ vars, env, script string }
	run := func(zlib string) (engine.CacheStat, []text, string) {
		t.Helper()
		bp := New()
		bp.UseCache(st)
		sess, err := bp.Setup("saxpy/openmp", "cts1", t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if zlib != "" {
			sess.Config.VersionPrefs["zlib"] = zlib
		}
		_, erep, err := sess.Run(context.Background(), RunOptions{Jobs: 2})
		if err != nil {
			t.Fatal(err)
		}
		root := sess.Workspace.Root
		var texts []text
		for _, e := range sess.Workspace.Experiments {
			norm := func(v any) string { return strings.ReplaceAll(fmt.Sprint(v), root, "$WORKSPACE") }
			texts = append(texts, text{norm(expandedVars(e)), norm(e.Env), norm(e.Script)})
		}
		var zlibSpec string
		for _, root := range sess.Envs["saxpy"].Roots {
			root.Traverse(func(n *spec.Spec) {
				if n.Name == "zlib" {
					zlibSpec = n.ConcreteVersion().String()
				}
			})
		}
		return runStat(t, erep, "run"), texts, zlibSpec
	}
	cold, coldText, coldZlib := run("")
	if cold.Hits != 0 || cold.Misses == 0 {
		t.Fatalf("cold run layer = %+v", cold)
	}
	edited, editedText, editedZlib := run("1.2.11")
	if coldZlib != "1.2.12" || editedZlib != "1.2.11" {
		t.Fatalf("saxpy's zlib went %q -> %q, want 1.2.12 -> 1.2.11", coldZlib, editedZlib)
	}
	if !slices.Equal(coldText, editedText) {
		t.Fatalf("pinning zlib changed an experiment's text:\n%v\nvs\n%v", coldText, editedText)
	}
	if edited.Hits != 0 || edited.Misses != cold.Misses {
		t.Errorf("after zlib moved under cmake, run layer = %+v, want %d misses and no replay", edited, cold.Misses)
	}
	if again, _, _ := run(""); again.Misses != 0 || again.Hits != cold.Misses {
		t.Errorf("with the preference undone, run layer = %+v, want %d hits", again, cold.Misses)
	}
}

// savedOutputs saves the session's workspace and returns every .cali
// and .out file under it, keyed by path relative to the root.
func savedOutputs(t *testing.T, sess *Session) map[string]string {
	t.Helper()
	if err := sess.Workspace.Save(); err != nil {
		t.Fatal(err)
	}
	files := map[string]string{}
	root := sess.Workspace.Root
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".cali") && !strings.HasSuffix(path, ".out") {
			return err
		}
		data, err := os.ReadFile(path)
		rel, _ := filepath.Rel(root, path)
		files[rel] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestRunEntryWithoutProfileReExecutes: a run-layer entry that decodes
// but holds no profile cannot settle an experiment. The restore refuses
// it, the engine re-executes that experiment and counts a miss, and
// every .cali and .out — the replayed ones written from their stored
// text, the re-executed one rendered afresh — is byte for byte the cold
// run's.
func TestRunEntryWithoutProfileReExecutes(t *testing.T) {
	ctx := context.Background()
	st, err := cachekey.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	session := func() *Session {
		t.Helper()
		bp := New()
		bp.UseCache(st)
		sess, err := bp.Setup("saxpy/openmp", "cts1", t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return sess
	}
	sess := session()
	if _, _, err := sess.Run(ctx, RunOptions{Jobs: 2}); err != nil {
		t.Fatal(err)
	}
	cold := savedOutputs(t, sess)

	r := &sessionRunner{s: session()}
	if err := r.Setup(ctx); err != nil {
		t.Fatal(err)
	}
	if err := r.Install(ctx); err != nil {
		t.Fatal(err)
	}
	if err := st.Layer("run").Put(r.ExperimentKey(0), []byte(`{"text":"x","elapsed_s":1}`)); err != nil {
		t.Fatal(err)
	}

	sess = session()
	_, erep, err := sess.Run(ctx, RunOptions{Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if cs := runStat(t, erep, "run"); cs.Misses != 1 || cs.Hits != erep.Total-1 || erep.Failed != 0 {
		t.Errorf("run layer = %+v with %d failed, want 1 miss, %d hits, none failed", cs, erep.Failed, erep.Total-1)
	}
	warm := savedOutputs(t, sess)
	if len(cold) != 2*erep.Total {
		t.Fatalf("cold run left %d .cali/.out files for %d experiments", len(cold), erep.Total)
	}
	for rel, want := range cold {
		if warm[rel] != want {
			t.Errorf("%s differs from the cold run's:\n got %q\nwant %q", rel, warm[rel], want)
		}
	}
}

// FuzzRestoreExperiment: whatever bytes a run layer hands back, a
// restore either fails — leaving the experiment's slots empty for the
// engine to execute into — or leaves the outcome encoding/json decodes
// from the same bytes (jsonOutcome): text, elapsed time, metadata and
// the profile the kept .cali text holds, that text being the stored
// one. The restore may refuse an entry encoding/json takes, never
// restore one differently. Every entry MarshalExperiment wrote
// restores.
func FuzzRestoreExperiment(f *testing.F) {
	ctx := context.Background()
	sess, err := New().Setup("saxpy/openmp", "cts1", f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	r := &sessionRunner{s: sess}
	if err := r.Setup(ctx); err != nil {
		f.Fatal(err)
	}
	for i := range r.exps[:2] {
		if err := r.Execute(ctx, i); err != nil {
			f.Fatal(err)
		}
		data, err := r.MarshalExperiment(i)
		if err != nil {
			f.Fatal(err)
		}
		if err := r.RestoreExperiment(ctx, i, data); err != nil {
			f.Fatalf("the entry MarshalExperiment wrote does not restore: %v", err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	f.Add([]byte(`{"text":"x","elapsed_s":1}`))
	f.Add([]byte(`{"text":"x","profile":"{\"format\":\"cali-json-1\",\"regions\":null}","meta":null}`))
	f.Add([]byte(`{"profile":"{\"format\":\"cali-json-1\",\"regions\":{\"a\":{\"Count\":1}},\"regions\":null}"}`))
	f.Add([]byte(`{"profile":"{\"format\":\"cali-json-1\",\"metrics\":{\"a\":null}}","profile":null,"meta":{"k":null},"meta":{"j":"v"}}`))
	f.Add([]byte(`{"profile":"{\"format\":\"cali-json-1\",\"regions\":{\"\\u00e9\":null,\"r\":{\"Count\":2,\"Count\":3}}}","meta":{"a":"1"},"meta":null}`))
	f.Add([]byte(`{"Text":"x","profile":"{\"format\":\"cali-json-1\"}"}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		r.outs[0], r.errs[0], r.calis[0] = nil, nil, ""
		if err := r.RestoreExperiment(ctx, 0, data); err != nil {
			if r.outs[0] != nil || r.calis[0] != "" {
				t.Fatalf("a failed restore (%v) left output %+v and .cali %q", err, r.outs[0], r.calis[0])
			}
			return
		}
		out := r.outs[0]
		if out == nil || out.Profile == nil || out.Metadata == nil {
			t.Fatalf("restore succeeded but left output %+v", out)
		}
		want, cali, err := jsonOutcome(data)
		if err != nil {
			t.Fatalf("restored an entry encoding/json refuses: %v", err)
		}
		if r.calis[0] != cali {
			t.Fatalf("kept .cali %q, the entry stores %q", r.calis[0], cali)
		}
		if !reflect.DeepEqual(out, want) {
			t.Fatalf("restored %+v (profile %+v), encoding/json decodes %+v (profile %+v)", out, out.Profile, want, want.Profile)
		}
	})
}

// jsonOutcome is the outcome encoding/json decodes from a run-layer
// entry, and the profile text it keeps: the restore as it was before
// it was read by hand, its oracle.
func jsonOutcome(data []byte) (*bench.Output, string, error) {
	var co cachedOutcome
	if err := json.Unmarshal(data, &co); err != nil {
		return nil, "", err
	}
	var f struct {
		Format  string                        `json:"format"`
		Regions map[string]caliper.RegionStat `json:"regions"`
		Metrics map[string]float64            `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(co.Profile), &f); err != nil {
		return nil, "", err
	}
	if f.Format != caliper.FileFormat {
		return nil, "", fmt.Errorf("format %q", f.Format)
	}
	p := &caliper.Profile{Regions: f.Regions, Metrics: f.Metrics}
	if p.Regions == nil {
		p.Regions = map[string]caliper.RegionStat{}
	}
	if p.Metrics == nil {
		p.Metrics = map[string]float64{}
	}
	return &bench.Output{Text: co.Text, Elapsed: co.Elapsed, Profile: p, Metadata: adiak.FromMap(co.Meta)}, co.Profile, nil
}
