package concretizer

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cachekey"
	"repro/internal/pkgrepo"
	"repro/internal/spec"
)

func openLayer(t *testing.T, dir string) *cachekey.Layer {
	t.Helper()
	st, err := cachekey.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st.Layer("concretize")
}

func TestMemoHitReplaysEqualResult(t *testing.T) {
	c := newC(t)
	c.Cache = openLayer(t, t.TempDir())
	roots := []*spec.Spec{spec.MustParse("saxpy@1.0.0 +openmp ^cmake@3.23.1")}

	cold, err := c.ConcretizeTogether(roots)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := c.ConcretizeTogether([]*spec.Spec{spec.MustParse("saxpy@1.0.0 +openmp ^cmake@3.23.1")})
	if err != nil {
		t.Fatal(err)
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 1 hit 1 miss", c.Hits, c.Misses)
	}
	if cold[0].DAGHash() != warm[0].DAGHash() {
		t.Errorf("cache hit must replay the identical DAG:\ncold %s\nwarm %s", cold[0], warm[0])
	}
	if cold[0] == warm[0] {
		t.Error("cache hit must decode a fresh DAG, not alias the cold result")
	}
	if !warm[0].IsConcrete() {
		t.Error("replayed root not concrete")
	}
}

func TestMemoKeySensitivity(t *testing.T) {
	c := newC(t)
	c.Cache = openLayer(t, t.TempDir())
	if _, err := c.ConcretizeTogether([]*spec.Spec{spec.MustParse("saxpy@1.0.0")}); err != nil {
		t.Fatal(err)
	}

	// A different abstract root is a miss.
	if _, err := c.ConcretizeTogether([]*spec.Spec{spec.MustParse("saxpy@1.0.0 +openmp")}); err != nil {
		t.Fatal(err)
	}
	if c.Hits != 0 || c.Misses != 2 {
		t.Fatalf("hits/misses after distinct roots = %d/%d, want 0 hits 2 misses", c.Hits, c.Misses)
	}

	// A configuration change is a miss even for the same root.
	c.Config.VariantPrefs["saxpy"] = "+openmp"
	if _, err := c.ConcretizeTogether([]*spec.Spec{spec.MustParse("saxpy@1.0.0")}); err != nil {
		t.Fatal(err)
	}
	if c.Hits != 0 || c.Misses != 3 {
		t.Fatalf("hits/misses after config change = %d/%d, want 0 hits 3 misses", c.Hits, c.Misses)
	}
}

func TestConfigFingerprintSensitivity(t *testing.T) {
	base := testConfig(t).Fingerprint()
	if !base.Valid() {
		t.Fatalf("fingerprint %q invalid", base)
	}
	if testConfig(t).Fingerprint() != base {
		t.Error("equal configs must fingerprint equally")
	}

	mut := testConfig(t)
	mut.Target = "zen2"
	if mut.Fingerprint() == base {
		t.Error("target change must change the fingerprint")
	}

	mut = testConfig(t)
	if err := mut.AddCompiler("clang@14.0.6", "/usr/bin"); err != nil {
		t.Fatal(err)
	}
	if mut.Fingerprint() == base {
		t.Error("compiler change must change the fingerprint")
	}

	mut = testConfig(t)
	mut.ReuseInstalled = []*spec.Spec{mustConcrete(t, "cmake@3.23.1")}
	if mut.Fingerprint() == base {
		t.Error("reuse set change must change the fingerprint")
	}
}

func mustConcrete(t *testing.T, s string) *spec.Spec {
	t.Helper()
	got, err := New(pkgrepo.Builtin(), testConfig(t)).Concretize(spec.MustParse(s))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestMemoDurableLayerSharedAcrossProcesses(t *testing.T) {
	dir := t.TempDir()
	c1 := newC(t)
	c1.Cache = openLayer(t, dir)
	cold, err := c1.ConcretizeTogether([]*spec.Spec{spec.MustParse("saxpy@1.0.0 +openmp")})
	if err != nil {
		t.Fatal(err)
	}

	// A second concretizer over the same store directory (a new
	// process in a CI pipeline) hits without solving.
	c2 := newC(t)
	c2.Cache = openLayer(t, dir)
	warm, err := c2.ConcretizeTogether([]*spec.Spec{spec.MustParse("saxpy@1.0.0 +openmp")})
	if err != nil {
		t.Fatal(err)
	}
	if c2.Hits != 1 || c2.Misses != 0 {
		t.Errorf("durable hits/misses = %d/%d, want 1 hit 0 misses", c2.Hits, c2.Misses)
	}
	if cold[0].DAGHash() != warm[0].DAGHash() {
		t.Errorf("durable hit must replay the identical DAG")
	}
}

func TestMemoCorruptDurableEntryIsColdMiss(t *testing.T) {
	dir := t.TempDir()
	c := newC(t)
	c.Cache = openLayer(t, dir)
	if _, err := c.ConcretizeTogether([]*spec.Spec{spec.MustParse("saxpy@1.0.0")}); err != nil {
		t.Fatal(err)
	}

	// Corrupt every persisted entry on disk.
	root := filepath.Join(dir, "concretize")
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		return os.WriteFile(path, []byte("garbage"), 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}

	// A fresh concretizer over the corrupted store must re-solve, not fail.
	c2 := newC(t)
	c2.Cache = openLayer(t, dir)
	got, err := c2.ConcretizeTogether([]*spec.Spec{spec.MustParse("saxpy@1.0.0")})
	if err != nil {
		t.Fatal(err)
	}
	if !got[0].IsConcrete() {
		t.Error("re-solve after corruption must yield a concrete spec")
	}
	if c2.Hits != 0 || c2.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want the corrupt entry counted as a miss", c2.Hits, c2.Misses)
	}
}

// deployedSaxpyEntry is a concretize-layer entry as deployed stores
// hold it: the bytes stored for saxpy@1.0.0 +openmp under testConfig
// before concretize entries, spack.lock and the install database
// shared spec.DAG, captured as a literal.
const deployedSaxpyEntry = `{"nodes":{"63wrtrnxen2khqgu6pi3vtuiu6zdwbns":{"node":"mvapich2@2.3.7 target=broadwell platform=linux","external":"/usr/tce/mvapich2"},"6mmi7rebhxqu7xkvarluifp7ueykuex3":{"node":"zlib@1.2.12%gcc@12.1.1 target=broadwell platform=linux"},"6tklakm7shebgjv4ka6r3bjnnn5liosd":{"node":"saxpy@1.0.0%gcc@12.1.1~cuda+openmp~rocm target=broadwell platform=linux","deps":{"cmake":"izehj4volecqc2oyam3uwbgaifk3kyou","mvapich2":"63wrtrnxen2khqgu6pi3vtuiu6zdwbns"}},"izehj4volecqc2oyam3uwbgaifk3kyou":{"node":"cmake@3.23.1%gcc@12.1.1 target=broadwell platform=linux","deps":{"zlib":"6mmi7rebhxqu7xkvarluifp7ueykuex3"}}},"roots":["6tklakm7shebgjv4ka6r3bjnnn5liosd"]}`

// TestDeployedEntryReplays: no deployed concretize layer goes cold. A
// cold solve stores exactly the deployed entry's bytes, and those
// bytes, put under the key, replay as a hit with the cold DAG.
func TestDeployedEntryReplays(t *testing.T) {
	dir := t.TempDir()
	solve := func() (*Concretizer, *spec.Spec) {
		t.Helper()
		c := newC(t)
		c.Cache = openLayer(t, dir)
		out, err := c.ConcretizeTogether([]*spec.Spec{spec.MustParse("saxpy@1.0.0 +openmp")})
		if err != nil {
			t.Fatal(err)
		}
		return c, out[0]
	}
	c, cold := solve()
	var keys []cachekey.Key
	err := filepath.WalkDir(filepath.Join(dir, "concretize"), func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			keys = append(keys, cachekey.Key(d.Name()))
		}
		return err
	})
	if err != nil || len(keys) != 1 || !keys[0].Valid() {
		t.Fatalf("concretize layer holds %v (%v), want one entry", keys, err)
	}
	if got, _ := c.Cache.Get(keys[0]); string(got) != deployedSaxpyEntry {
		t.Errorf("cold solve stored\n%s\nwant the deployed entry\n%s", got, deployedSaxpyEntry)
	}
	if err := c.Cache.Put(keys[0], []byte(deployedSaxpyEntry)); err != nil {
		t.Fatal(err)
	}
	warm, replayed := solve()
	if warm.Hits != 1 || warm.Misses != 0 {
		t.Errorf("deployed entry: hits/misses = %d/%d, want 1 hit", warm.Hits, warm.Misses)
	}
	if replayed.DAGHash() != cold.DAGHash() {
		t.Errorf("deployed entry replays %s, the cold solve gave %s", replayed, cold)
	}
}
