package buildcache

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cachekey"
	"repro/internal/telemetry"
)

func openLayer(t *testing.T, dir string) *cachekey.Layer {
	t.Helper()
	st, err := cachekey.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st.Layer("buildcache")
}

func TestPersistWriteThroughAndRestore(t *testing.T) {
	dir := t.TempDir()
	c1 := New()
	if n := c1.Persist(openLayer(t, dir)); n != 0 {
		t.Fatalf("restored %d entries from an empty store", n)
	}
	e := Entry{Hash: "abcdef123456", SpecText: "zlib@1.2.12%gcc@12.1.1", Size: 1024,
		Package: "zlib", Version: "1.2.12", Target: "broadwell"}
	c1.Put(e)

	// A second instance over the same directory — a later CI job —
	// restores the entry without any Put traffic.
	c2 := New()
	if n := c2.Persist(openLayer(t, dir)); n != 1 {
		t.Fatalf("restored %d entries, want 1", n)
	}
	got, ok := c2.Get(e.Hash)
	if !ok || got != e {
		t.Fatalf("Get after restore = %+v, %v; want the original entry", got, ok)
	}
	hits, misses, puts := c2.Stats()
	if hits != 1 || misses != 0 || puts != 0 {
		t.Errorf("restored instance stats = %d/%d/%d; restore must not count as puts", hits, misses, puts)
	}
}

func TestPersistSkipsCorruptEntries(t *testing.T) {
	dir := t.TempDir()
	c1 := New()
	c1.Persist(openLayer(t, dir))
	c1.Put(Entry{Hash: "deadbeef", Package: "zlib", Version: "1.2.12", Target: "x86_64", Size: 7})

	// Corrupt every file under the layer.
	err := filepath.Walk(filepath.Join(dir, "buildcache"), func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		return os.WriteFile(path, []byte("not a cache entry"), 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}

	c2 := New()
	if n := c2.Persist(openLayer(t, dir)); n != 0 {
		t.Errorf("restored %d corrupt entries, want 0", n)
	}
	if c2.Len() != 0 {
		t.Errorf("corrupt store restored %d entries", c2.Len())
	}
	// The slot heals on the next write-through Put.
	c2.Put(Entry{Hash: "deadbeef", Package: "zlib", Version: "1.2.12", Target: "x86_64", Size: 7})
	c3 := New()
	if n := c3.Persist(openLayer(t, dir)); n != 1 {
		t.Errorf("restored %d entries after heal, want 1", n)
	}
}

func TestInstrumentBackfillsPriorTraffic(t *testing.T) {
	dir := t.TempDir()
	seed := New()
	seed.Persist(openLayer(t, dir))
	seed.Put(Entry{Hash: "h1", Package: "zlib", Version: "1.2.12", Size: 1})

	c := New()
	c.Persist(openLayer(t, dir))
	c.Get("h1")     // hit
	c.Get("absent") // miss
	c.Put(Entry{Hash: "h2", Package: "zlib", Version: "1.2.13", Size: 2})

	// Instrument attached late must report the same numbers as Stats.
	reg := telemetry.NewRegistry()
	c.Instrument(reg)
	c.Get("h2") // one more hit after instrumentation

	hits, misses, puts := c.Stats()
	snap := reg.Snapshot().Counters
	if int64(hits) != snap["buildcache_hits_total"] ||
		int64(misses) != snap["buildcache_misses_total"] ||
		int64(puts) != snap["buildcache_puts_total"] {
		t.Errorf("Stats (%d/%d/%d) and counters (%v/%v/%v) diverge",
			hits, misses, puts,
			snap["buildcache_hits_total"], snap["buildcache_misses_total"], snap["buildcache_puts_total"])
	}
	if hits != 2 || misses != 1 || puts != 1 {
		t.Errorf("stats = %d/%d/%d, want 2/1/1", hits, misses, puts)
	}
}
