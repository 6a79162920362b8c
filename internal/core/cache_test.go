package core

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cachekey"
	"repro/internal/ci"
	"repro/internal/engine"
	"repro/internal/hpcsim"
	"repro/internal/ramble"
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
		bp.Cache.Instrument(tr.Metrics())
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
	sess, err := NewSessionForWorkspace(bp, sys, ws)
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

// TestNightlyPipelineCacheProvenance: a CI deployment over a shared
// durable store records per-job cache provenance, and the second
// nightly's jobs are 100% run-layer hits — the pipeline re-ran the
// benchmarks without executing any of them.
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
	auto.UseCache(st)

	jobProvenance := func(j *ci.CIJob, layer string) (ci.CacheProvenance, bool) {
		for _, cp := range j.Cache {
			if cp.Layer == layer {
				return cp, true
			}
		}
		return ci.CacheProvenance{}, false
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
			t.Fatalf("job %s recorded no run-layer provenance: %+v", j.Name, j.Cache)
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
			t.Fatalf("job %s recorded no run-layer provenance: %+v", j.Name, j.Cache)
		}
		if cp.Misses != 0 || cp.Hits == 0 {
			t.Errorf("job %s warm provenance = %+v, want all hits", j.Name, cp)
		}
		if _, ok := jobProvenance(j, "concretize"); !ok {
			t.Errorf("job %s has no concretize provenance: %+v", j.Name, j.Cache)
		}
	}
}
