package concretizer

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/cachekey"
	"repro/internal/metricsdb"
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

	cold, err := c.ConcretizeTogether(roots, spec.Hasher{})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := c.ConcretizeTogether([]*spec.Spec{spec.MustParse("saxpy@1.0.0 +openmp ^cmake@3.23.1")}, spec.Hasher{})
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
	if _, err := c.ConcretizeTogether([]*spec.Spec{spec.MustParse("saxpy@1.0.0")}, spec.Hasher{}); err != nil {
		t.Fatal(err)
	}

	// A different abstract root is a miss.
	if _, err := c.ConcretizeTogether([]*spec.Spec{spec.MustParse("saxpy@1.0.0 +openmp")}, spec.Hasher{}); err != nil {
		t.Fatal(err)
	}
	if c.Hits != 0 || c.Misses != 2 {
		t.Fatalf("hits/misses after distinct roots = %d/%d, want 0 hits 2 misses", c.Hits, c.Misses)
	}

	// A configuration change is a miss even for the same root.
	c.Config.VariantPrefs["saxpy"] = "+openmp"
	if _, err := c.ConcretizeTogether([]*spec.Spec{spec.MustParse("saxpy@1.0.0")}, spec.Hasher{}); err != nil {
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
	cold, err := c1.ConcretizeTogether([]*spec.Spec{spec.MustParse("saxpy@1.0.0 +openmp")}, spec.Hasher{})
	if err != nil {
		t.Fatal(err)
	}

	// A second concretizer over the same store directory (a new
	// process in a CI pipeline) hits without solving.
	c2 := newC(t)
	c2.Cache = openLayer(t, dir)
	warm, err := c2.ConcretizeTogether([]*spec.Spec{spec.MustParse("saxpy@1.0.0 +openmp")}, spec.Hasher{})
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
	if _, err := c.ConcretizeTogether([]*spec.Spec{spec.MustParse("saxpy@1.0.0")}, spec.Hasher{}); err != nil {
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
	got, err := c2.ConcretizeTogether([]*spec.Spec{spec.MustParse("saxpy@1.0.0")}, spec.Hasher{})
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
		out, err := c.ConcretizeTogether([]*spec.Spec{spec.MustParse("saxpy@1.0.0 +openmp")}, spec.Hasher{})
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
	var got string
	c.Cache.Read(keys[0], func(data []byte) bool { got = string(data); return true })
	if got != deployedSaxpyEntry {
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

// FuzzConcretizeEntry holds the concretize layer's hand decoder to
// encoding/json: whatever decodeEntry takes, json.Unmarshal takes too
// and decodes to the same spec.DAG. Refusing is always allowed — a
// refused entry is a miss and a re-solve. One decoder reads every
// input, as one concretizer reads all of its hits.
func FuzzConcretizeEntry(f *testing.F) {
	f.Add([]byte(deployedSaxpyEntry))
	f.Add([]byte(`{"nodes":{},"roots":null}`))
	f.Add([]byte(`null`))
	f.Add([]byte(` {"roots":[ "a" , null ],"nodes":{"a":{"node":"x\u00e9\ud83d\ude00","deps":{"b":"c"},"deps":{"d":null}},"b":null}} `))
	f.Add([]byte(`{"nodes":{"a":{"node":"x"}},"nodes":null,"nodes":{"b":{"external":"/opt/\u003c"}}}`))
	f.Add([]byte(`{"Nodes":{}}`))                  // encoding/json folds the case; decodeEntry refuses
	f.Add([]byte(`{"roots":["a"],"roots":["b"]}`)) // so is a second roots
	f.Add([]byte(`{"nodes":{"a":{"node":7}}}`))
	var d metricsdb.Decoder
	f.Fuzz(func(t *testing.T, data []byte) {
		var got spec.DAG
		if decodeEntry(&d, data, &got) != nil {
			return
		}
		var want spec.DAG
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("decodeEntry took %q, which encoding/json refuses: %v", data, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decodeEntry(%q) =\n%#v\nencoding/json gives\n%#v", data, got, want)
		}
	})
}

// fingerprintOf is the struct Config.Fingerprint hashes the canonical
// JSON of; appendFingerprint writes those bytes by hand.
func fingerprintOf(c *Config) any {
	type extFP struct {
		Spec   string
		Prefix string
	}
	fp := struct {
		Platform         string
		Target           string
		Compilers        []string
		DefaultCompiler  string
		Externals        map[string][]extFP
		NotBuildable     []string
		ProviderPrefs    map[string][]string
		VersionPrefs     map[string]string
		VariantPrefs     map[string]string
		ReuseFromContext bool
		ReuseInstalled   []string
	}{
		Platform:         c.Platform,
		Target:           c.Target,
		DefaultCompiler:  c.DefaultCompiler,
		ProviderPrefs:    c.ProviderPrefs,
		VersionPrefs:     c.VersionPrefs,
		VariantPrefs:     c.VariantPrefs,
		ReuseFromContext: c.ReuseFromContext,
	}
	for _, def := range c.Compilers {
		fp.Compilers = append(fp.Compilers, def.Name+"@"+def.Version.String()+" prefix="+def.Prefix)
	}
	if len(c.Externals) > 0 {
		fp.Externals = map[string][]extFP{}
		for name, exts := range c.Externals {
			for _, e := range exts {
				fp.Externals[name] = append(fp.Externals[name], extFP{Spec: e.Spec.String(), Prefix: e.Prefix})
			}
		}
	}
	for name, nb := range c.NotBuildable {
		if nb {
			fp.NotBuildable = append(fp.NotBuildable, name)
		}
	}
	sort.Strings(fp.NotBuildable)
	for _, s := range c.ReuseInstalled {
		if s != nil {
			fp.ReuseInstalled = append(fp.ReuseInstalled, s.String())
		}
	}
	return fp
}

// FuzzFingerprint holds Config.Fingerprint's hand encoder to
// json.Marshal of fingerprintOf: the same bytes for configurations of
// every shape — nil and empty maps and lists, escaped and invalid
// UTF-8 names, externals listed and unlisted, a reuse set with a nil.
// Each bit of shape adds one part of a configuration.
func FuzzFingerprint(f *testing.F) {
	f.Add("linux", "mpi", "mvapich2", "/usr/tce/<&>", uint8(0))
	f.Add("linux", "zlib", "1.2.12", "/opt", uint8(1))
	f.Add("", "\u2028", "\xff", "\"", uint8(0xff))
	f.Add("cray", "hypre", "+openmp", "", uint8(0xaa))
	f.Add("x", "a", "a", "a", uint8(0x55))
	f.Fuzz(func(t *testing.T, platform, name, value, prefix string, shape uint8) {
		c := &Config{Platform: platform, Target: value, DefaultCompiler: name + "@" + value}
		if shape&1 != 0 {
			c = testConfig(t)
			c.Platform = platform
		}
		if shape&2 != 0 {
			c.ProviderPrefs = map[string][]string{name: {value, prefix}, value: nil, prefix: {}}
		}
		if shape&4 != 0 {
			c.VersionPrefs = map[string]string{name: value, prefix: name}
		}
		if shape&8 != 0 {
			c.VariantPrefs = map[string]string{value: prefix}
		}
		if shape&16 != 0 {
			c.NotBuildable = map[string]bool{name: true, value: false, prefix: true}
		}
		if shape&32 != 0 {
			ext := spec.MustParse("zlib@1.2.12")
			if s, err := spec.Parse(value); err == nil && s.Name != "" {
				ext = s
			}
			c.Externals = map[string][]External{name: {{Spec: ext, Prefix: prefix}, {Spec: ext}}, prefix: nil}
		}
		if shape&64 != 0 {
			c.Compilers = append(c.Compilers, CompilerDef{Name: name, Version: spec.NewVersion(value), Prefix: prefix})
		}
		if shape&128 != 0 {
			c.ReuseFromContext = true
			c.ReuseInstalled = []*spec.Spec{nil, spec.MustParse("cmake@3.23.1 ^zlib")}
		}
		want, err := json.Marshal(fingerprintOf(c))
		if err != nil {
			t.Fatal(err)
		}
		if got := c.appendFingerprint(nil); !bytes.Equal(got, want) {
			t.Fatalf("appendFingerprint wrote\n%s\njson.Marshal writes\n%s", got, want)
		}
	})
}
