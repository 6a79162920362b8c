package buildcache

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
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
	c1.Persist(openLayer(t, dir))
	if n := c1.Len(); n != 0 {
		t.Fatalf("%d entries over an empty store", n)
	}
	e := Entry{Hash: "abcdef123456", SpecText: "zlib@1.2.12%gcc@12.1.1", Size: 1024,
		Package: "zlib", Version: "1.2.12", Target: "broadwell"}
	c1.Put(e)

	// A second instance over the same directory — a later CI job —
	// reads the entry through without any Put traffic.
	c2 := New()
	c2.Persist(openLayer(t, dir))
	got, ok := c2.Get(e.Hash)
	if !ok || got != e {
		t.Fatalf("Get through the layer = %+v, %v; want the original entry", got, ok)
	}
	hits, misses, puts := c2.Stats()
	if hits != 1 || misses != 0 || puts != 0 {
		t.Errorf("reading instance stats = %d/%d/%d; a read-through must not count as a put", hits, misses, puts)
	}
	// A third asks a whole-set question first: that lists the layer.
	c3 := New()
	c3.Persist(openLayer(t, dir))
	if n, size := c3.Len(), c3.TotalSize(); n != 1 || size != e.Size {
		t.Errorf("listing instance holds %d entries, %d bytes; want 1, %d", n, size, e.Size)
	}
	if found := c3.FindCompatible("zlib", "1.2.12", nil); len(found) != 1 || found[0] != e {
		t.Errorf("FindCompatible over the layer = %+v", found)
	}
}

// TestSiblingPutIsVisible: B attaches, then A puts. B took no snapshot
// at Persist, so it fetches what a sibling CI job finished a second
// ago — before and after B has listed the layer — and a hash nobody
// has put stays a miss that a later Put turns into a hit.
func TestSiblingPutIsVisible(t *testing.T) {
	dir := t.TempDir()
	a, b := New(), New()
	a.Persist(openLayer(t, dir))
	b.Persist(openLayer(t, dir))
	e1 := Entry{Hash: "h-one", Package: "zlib", Version: "1.2.12", Target: "broadwell", Size: 1}
	if _, ok := b.Get(e1.Hash); ok || b.Has(e1.Hash) {
		t.Fatal("hit on a hash nobody has put")
	}
	a.Put(e1)
	if got, ok := b.Get(e1.Hash); !ok || got != e1 {
		t.Errorf("B.Get after A.Put = %+v, %v; want A's entry", got, ok)
	}
	if n := b.Len(); n != 1 {
		t.Errorf("B lists %d entries, want 1", n)
	}
	e2 := Entry{Hash: "h-two", Package: "zlib", Version: "1.2.13", Target: "broadwell", Size: 2}
	a.Put(e2)
	if !b.Has(e2.Hash) {
		t.Error("B.Has misses what A put after B listed the layer")
	}
	if hits, misses, puts := b.Stats(); hits != 1 || misses != 1 || puts != 0 {
		t.Errorf("B stats = %d/%d/%d, want 1/1/0 (Has counts nothing)", hits, misses, puts)
	}
}

func TestPersistSkipsCorruptEntries(t *testing.T) {
	dir := t.TempDir()
	c1 := New()
	c1.Persist(openLayer(t, dir))
	entries := map[string]Entry{}
	for _, h := range []string{"garbage", "truncated", "foreign", "undecodable", "intact"} {
		entries[h] = Entry{Hash: h, Package: "zlib", Version: "1.2.12", Target: "x86_64", Size: 7}
		c1.Put(entries[h])
	}
	file := func(hash string) string {
		k := string(entryKey(hash))
		return filepath.Join(dir, "buildcache", k[:2], k)
	}
	read := func(hash string) []byte {
		t.Helper()
		raw, err := os.ReadFile(file(hash))
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	write := func(hash string, raw []byte) {
		t.Helper()
		if err := os.WriteFile(file(hash), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("garbage", []byte("not a cache entry"))
	write("truncated", read("truncated")[:len(read("truncated"))-3])
	write("foreign", read("intact")) // a valid frame of another hash's entry
	layer := openLayer(t, dir)
	if err := layer.Put(entryKey("undecodable"), []byte(`{"Hash": 7}`)); err != nil {
		t.Fatal(err)
	}

	// A miss by exact hash, and absent from the listed set — in either
	// order of asking.
	for _, listFirst := range []bool{false, true} {
		c2 := New()
		c2.Persist(openLayer(t, dir))
		if listFirst {
			c2.Hashes()
		}
		for _, h := range []string{"garbage", "truncated", "foreign", "undecodable"} {
			if e, ok := c2.Get(h); ok || c2.Has(h) {
				t.Errorf("listFirst=%v: %s entry is a hit: %+v", listFirst, h, e)
			}
		}
		if e, ok := c2.Get("intact"); !ok || e != entries["intact"] {
			t.Errorf("listFirst=%v: intact entry = %+v, %v", listFirst, e, ok)
		}
		if got := c2.Hashes(); len(got) != 1 || got[0] != "intact" || c2.Len() != 1 {
			t.Errorf("listFirst=%v: Hashes() = %v, want only the intact entry", listFirst, got)
		}
	}

	// The slot heals on the next write-through Put.
	c3 := New()
	c3.Persist(openLayer(t, dir))
	c3.Put(entries["garbage"])
	c4 := New()
	c4.Persist(openLayer(t, dir))
	if e, ok := c4.Get("garbage"); !ok || e != entries["garbage"] {
		t.Errorf("after heal: %+v, %v", e, ok)
	}
	if n := c4.Len(); n != 2 {
		t.Errorf("after heal the layer lists %d entries, want 2", n)
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

// TestConcurrentReadThrough: goroutines put through one cache and read
// through a sibling over the same layer while others list it; under
// -race this is the check on Get/Has writing what they fetched and on
// the whole-set load merging beside them.
func TestConcurrentReadThrough(t *testing.T) {
	dir := t.TempDir()
	a, b := New(), New()
	a.Persist(openLayer(t, dir))
	b.Persist(openLayer(t, dir))
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e := Entry{Hash: fmt.Sprintf("hash-%d", i), Package: "zlib", Version: "1.2.12", Target: "x86_64", Size: int64(i)}
			a.Put(e)
			if got, ok := b.Get(e.Hash); !ok || got != e {
				t.Errorf("sibling Get(%s) = %+v, %v", e.Hash, got, ok)
			}
			b.Has("never")
			b.Len()
			b.FindCompatible("zlib", "1.2.12", nil)
			b.Hashes()
		}(i)
	}
	wg.Wait()
	if hits, misses, puts := b.Stats(); hits != 16 || misses != 0 || puts != 0 {
		t.Errorf("sibling stats = %d/%d/%d, want 16/0/0", hits, misses, puts)
	}
	if n := len(b.Hashes()); n == 0 || n > 16 {
		t.Errorf("sibling lists %d entries", n)
	}
}
