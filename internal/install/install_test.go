package install

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/buildcache"
	"repro/internal/concretizer"
	"repro/internal/pkgrepo"
	"repro/internal/spec"
)

func ctsConcretizer(t *testing.T) *concretizer.Concretizer {
	t.Helper()
	cfg := concretizer.NewConfig()
	cfg.Platform = "linux"
	cfg.Target = "broadwell"
	cfg.DefaultCompiler = "gcc@12.1.1"
	if err := cfg.AddCompiler("gcc@12.1.1", "/usr/tce/gcc"); err != nil {
		t.Fatal(err)
	}
	if err := cfg.AddExternal("mvapich2@2.3.7", "/usr/tce/mvapich2"); err != nil {
		t.Fatal(err)
	}
	if err := cfg.AddExternal("intel-oneapi-mkl@2022.1.0", "/opt/intel/mkl"); err != nil {
		t.Fatal(err)
	}
	cfg.ProviderPrefs["mpi"] = []string{"mvapich2"}
	cfg.ProviderPrefs["blas"] = []string{"intel-oneapi-mkl"}
	cfg.ProviderPrefs["lapack"] = []string{"intel-oneapi-mkl"}
	return concretizer.New(pkgrepo.Builtin(), cfg)
}

func concretizeSaxpy(t *testing.T) *spec.Spec {
	t.Helper()
	c := ctsConcretizer(t)
	s, err := c.Concretize(spec.MustParse("saxpy@1.0.0+openmp ^cmake@3.23.1"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestInstallSaxpy(t *testing.T) {
	inst := New(pkgrepo.Builtin())
	root := concretizeSaxpy(t)
	rep, err := inst.Install(context.Background(), root, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !inst.DB.Has(root.DAGHash()) {
		t.Error("root not in database")
	}
	// Externals must be recorded but not built.
	if rep.Count(UsedExternal) == 0 {
		t.Error("mvapich2 external expected")
	}
	if rep.Count(Built) == 0 {
		t.Error("some packages should build from source")
	}
	// Every node in the DAG is installed.
	root.Traverse(func(n *spec.Spec) {
		if !inst.DB.Has(n.DAGHash()) {
			t.Errorf("node %s missing from db", n.Name)
		}
	})
	// Root is explicit; deps are not.
	rec, _ := inst.DB.Get(root.DAGHash())
	if !rec.Explicit {
		t.Error("root should be explicit")
	}
	cmake := root.FindDep("cmake")
	crec, _ := inst.DB.Get(cmake.DAGHash())
	if crec.Explicit {
		t.Error("dependency should not be explicit")
	}
	if rep.Makespan <= 0 || rep.TotalWork < rep.Makespan {
		t.Errorf("makespan=%f totalwork=%f", rep.Makespan, rep.TotalWork)
	}
}

func TestInstallIdempotent(t *testing.T) {
	inst := New(pkgrepo.Builtin())
	root := concretizeSaxpy(t)
	if _, err := inst.Install(context.Background(), root, nil); err != nil {
		t.Fatal(err)
	}
	rep2, err := inst.Install(context.Background(), root, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Count(Built) != 0 {
		t.Errorf("second install rebuilt %d packages", rep2.Count(Built))
	}
	if rep2.Makespan != 0 {
		t.Errorf("second install makespan = %f", rep2.Makespan)
	}
}

func TestInstallAbstractRejected(t *testing.T) {
	inst := New(pkgrepo.Builtin())
	if _, err := inst.Install(context.Background(), spec.MustParse("saxpy"), nil); err == nil {
		t.Error("abstract spec must be rejected")
	}
}

func TestBuildCacheSpeedsUpSecondSite(t *testing.T) {
	cache := buildcache.New()
	root := concretizeSaxpy(t)

	// Site A builds from source and pushes to the cache.
	siteA := New(pkgrepo.Builtin())
	siteA.Cache = cache
	repA, err := siteA.Install(context.Background(), root, nil)
	if err != nil {
		t.Fatal(err)
	}
	if repA.Count(Built) == 0 {
		t.Fatal("site A built nothing")
	}
	for _, r := range repA.Results {
		if _, ok := cache.Get(r.Hash); ok != (r.Action == Built) {
			t.Fatalf("site A %s %s, but the cache holds it: %v", r.Action, r.Name, ok)
		}
	}

	// Site B (fresh database) fetches binaries.
	siteB := New(pkgrepo.Builtin())
	siteB.Cache = cache
	repB, err := siteB.Install(context.Background(), root, nil)
	if err != nil {
		t.Fatal(err)
	}
	if repB.Count(Built) != 0 {
		t.Errorf("site B built %d packages; cache should cover all", repB.Count(Built))
	}
	if repB.Count(FetchedFromCache) != repA.Count(Built) {
		t.Errorf("fetched %d != built %d", repB.Count(FetchedFromCache), repA.Count(Built))
	}
	if repB.Makespan >= repA.Makespan {
		t.Errorf("cache makespan %.1f should beat source %.1f", repB.Makespan, repA.Makespan)
	}
}

func TestMakespanImprovesWithWorkers(t *testing.T) {
	c := ctsConcretizer(t)
	root, err := c.Concretize(spec.MustParse("amg2023+caliper"))
	if err != nil {
		t.Fatal(err)
	}
	inst1 := New(pkgrepo.Builtin())
	inst1.workers = 1
	rep1, err := inst1.Install(context.Background(), root, nil)
	if err != nil {
		t.Fatal(err)
	}
	inst8 := New(pkgrepo.Builtin())
	inst8.workers = 8
	rep8, err := inst8.Install(context.Background(), root, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.TotalWork != rep8.TotalWork {
		t.Errorf("total work differs: %f vs %f", rep1.TotalWork, rep8.TotalWork)
	}
	// With one worker the makespan equals total work.
	if diff := rep1.Makespan - rep1.TotalWork; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("1-worker makespan %f != total work %f", rep1.Makespan, rep1.TotalWork)
	}
	if rep8.Makespan > rep1.Makespan {
		t.Errorf("8-worker makespan %f worse than 1-worker %f", rep8.Makespan, rep1.Makespan)
	}
	if rep8.Makespan == rep1.Makespan {
		t.Log("DAG has no parallelism — acceptable but unexpected for amg2023")
	}
}

func TestInstallDeterministicReport(t *testing.T) {
	root := concretizeSaxpy(t)
	var first *Report
	for i := 0; i < 3; i++ {
		inst := New(pkgrepo.Builtin())
		rep, err := inst.Install(context.Background(), root, nil)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = rep
			continue
		}
		if rep.Makespan != first.Makespan || len(rep.Results) != len(first.Results) {
			t.Fatalf("non-deterministic report: %v vs %v", rep.Makespan, first.Makespan)
		}
		for j := range rep.Results {
			if rep.Results[j] != first.Results[j] {
				t.Fatalf("result %d differs: %+v vs %+v", j, rep.Results[j], first.Results[j])
			}
		}
	}
}

func TestDatabaseFind(t *testing.T) {
	inst := New(pkgrepo.Builtin())
	root := concretizeSaxpy(t)
	if _, err := inst.Install(context.Background(), root, nil); err != nil {
		t.Fatal(err)
	}
	recs := inst.DB.Find(spec.MustParse("saxpy"))
	if len(recs) != 1 || recs[0].Spec.Name != "saxpy" {
		t.Errorf("Find(saxpy) = %v", recs)
	}
	recs = inst.DB.Find(spec.MustParse("cmake@3.23.1"))
	if len(recs) != 1 {
		t.Errorf("Find(cmake@3.23.1) = %d records", len(recs))
	}
	if got := inst.DB.Find(spec.MustParse("cuda")); len(got) != 0 {
		t.Errorf("Find(cuda) = %v", got)
	}
}

func TestDatabaseConcurrentAccess(t *testing.T) {
	db := NewDatabase()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := spec.MustParse("zlib@1.2.12")
			if err := s.MarkConcrete(); err != nil {
				t.Error(err)
				return
			}
			db.Add(Record{Hash: string(rune('a'+i)) + "hash", Spec: s})
			db.Find(spec.MustParse("zlib"))
			db.Len()
		}(i)
	}
	wg.Wait()
	if db.Len() != 16 {
		t.Errorf("len = %d", db.Len())
	}
}

func TestCacheStats(t *testing.T) {
	c := buildcache.New()
	c.Put(buildcache.Entry{Hash: "h1", SpecText: "zlib@1.2.12"})
	if _, ok := c.Get("h1"); !ok {
		t.Error("h1 should hit")
	}
	if _, ok := c.Get("h2"); ok {
		t.Error("h2 should miss")
	}
}

// TestOtherTargetBinaryIsRebuilt: the cache is read by exact DAG
// hash, so a binary built for a generic x86_64 target never stands in
// for the broadwell build of the same package — the site rebuilds it.
func TestOtherTargetBinaryIsRebuilt(t *testing.T) {
	concretizeZlib := func(target string) *spec.Spec {
		t.Helper()
		cfg := concretizer.NewConfig()
		cfg.Platform = "linux"
		cfg.Target = target
		cfg.DefaultCompiler = "gcc@12.1.1"
		if err := cfg.AddCompiler("gcc@12.1.1", "/usr"); err != nil {
			t.Fatal(err)
		}
		s, err := concretizer.New(pkgrepo.Builtin(), cfg).Concretize(spec.MustParse("zlib"))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	genZlib, bdwZlib := concretizeZlib("x86_64"), concretizeZlib("broadwell")
	if bdwZlib.DAGHash() == genZlib.DAGHash() {
		t.Fatal("targets should yield distinct hashes")
	}
	cache := buildcache.New()
	builder := New(pkgrepo.Builtin())
	builder.Cache = cache
	if _, err := builder.Install(context.Background(), genZlib, nil); err != nil {
		t.Fatal(err)
	}
	site := New(pkgrepo.Builtin())
	site.Cache = cache
	rep, err := site.Install(context.Background(), bdwZlib, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Count(Built) != 1 || rep.Count(FetchedFromCache) != 0 {
		t.Errorf("the broadwell site should rebuild zlib: %+v", rep.Results)
	}
}

func TestDatabaseSaveLoadJSON(t *testing.T) {
	inst := New(pkgrepo.Builtin())
	root := concretizeSaxpy(t)
	if _, err := inst.Install(context.Background(), root, nil); err != nil {
		t.Fatal(err)
	}
	js, err := inst.DB.SaveJSON()
	if err != nil {
		t.Fatal(err)
	}
	db2, err := LoadDatabaseJSON(js)
	if err != nil {
		t.Fatal(err)
	}
	if db2.Len() != inst.DB.Len() {
		t.Fatalf("len %d vs %d", db2.Len(), inst.DB.Len())
	}
	// The reloaded root satisfies the same queries with the same hash.
	recs := db2.Find(spec.MustParse("saxpy"))
	if len(recs) != 1 || recs[0].Hash != root.DAGHash() {
		t.Errorf("reloaded saxpy = %+v", recs)
	}
	if !recs[0].Explicit {
		t.Error("explicitness lost")
	}
	ext := db2.Find(spec.MustParse("mvapich2"))
	if len(ext) != 1 || !ext[0].External {
		t.Errorf("external flag lost: %+v", ext)
	}
}

// TestReloadedDatabaseSharesNodes: in a live database saxpy's cmake
// dependency is the cmake record's spec, and zlib below it is the zlib
// record's; a database reloaded from SaveJSON keeps that sharing
// instead of giving every record its own copy of its subtree.
func TestReloadedDatabaseSharesNodes(t *testing.T) {
	inst := New(pkgrepo.Builtin())
	if _, err := inst.Install(context.Background(), concretizeSaxpy(t), nil); err != nil {
		t.Fatal(err)
	}
	js, err := inst.DB.SaveJSON()
	if err != nil {
		t.Fatal(err)
	}
	reloaded, err := LoadDatabaseJSON(js)
	if err != nil {
		t.Fatal(err)
	}
	for _, db := range []struct {
		name string
		db   *Database
	}{{"live", inst.DB}, {"reloaded", reloaded}} {
		one := func(name string) *spec.Spec {
			recs := db.db.Find(spec.MustParse(name))
			if len(recs) != 1 {
				t.Fatalf("%s: %d %s records", db.name, len(recs), name)
			}
			return recs[0].Spec
		}
		saxpy, cmake, zlib := one("saxpy"), one("cmake"), one("zlib")
		if saxpy.Deps["cmake"] != cmake {
			t.Errorf("%s: saxpy's cmake is not the cmake record's spec", db.name)
		}
		if cmake.Deps["zlib"] != zlib {
			t.Errorf("%s: cmake's zlib is not the zlib record's spec", db.name)
		}
	}
}

func TestDatabaseRemove(t *testing.T) {
	inst := New(pkgrepo.Builtin())
	root := concretizeSaxpy(t)
	if _, err := inst.Install(context.Background(), root, nil); err != nil {
		t.Fatal(err)
	}
	h := root.DAGHash()
	if !inst.DB.Remove(h) {
		t.Fatal("remove should succeed")
	}
	if inst.DB.Remove(h) {
		t.Error("second remove should report absent")
	}
	if inst.DB.Has(h) {
		t.Error("record still present")
	}
}

// TestArchspecFlagsRecorded: builds record the target-tuning flags
// archspec selects for the node's compiler and microarchitecture.
func TestArchspecFlagsRecorded(t *testing.T) {
	inst := New(pkgrepo.Builtin())
	root := concretizeSaxpy(t)
	if _, err := inst.Install(context.Background(), root, nil); err != nil {
		t.Fatal(err)
	}
	rec, _ := inst.DB.Get(root.DAGHash())
	if !strings.Contains(rec.Flags, "-march=broadwell") {
		t.Errorf("saxpy flags = %q, want broadwell tuning", rec.Flags)
	}
	// Externals carry no flags.
	ext := inst.DB.Find(spec.MustParse("mvapich2"))[0]
	if ext.Flags != "" {
		t.Errorf("external flags = %q", ext.Flags)
	}
	// Flags survive persistence.
	js, err := inst.DB.SaveJSON()
	if err != nil {
		t.Fatal(err)
	}
	db2, err := LoadDatabaseJSON(js)
	if err != nil {
		t.Fatal(err)
	}
	rec2, _ := db2.Get(root.DAGHash())
	if rec2.Flags != rec.Flags {
		t.Error("flags lost in persistence")
	}
}
