package buildcache

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/cachekey"
	"repro/internal/metricsdb"
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
	e := Entry{Hash: "abcdef123456", SpecText: "zlib@1.2.12%gcc@12.1.1"}
	c1.Put(e)

	// A second instance over the same directory — a later CI job —
	// reads the entry through without any Put traffic.
	c2 := New()
	c2.Persist(openLayer(t, dir))
	got, ok := c2.Get(e.Hash)
	if !ok || got != e {
		t.Fatalf("Get through the layer = %+v, %v; want the original entry", got, ok)
	}
	// The read-through is remembered: the entry outlives its file.
	k := string(entryKey(e.Hash))
	if err := os.Remove(filepath.Join(dir, "buildcache", k[:2], k)); err != nil {
		t.Fatal(err)
	}
	if got, ok := c2.Get(e.Hash); !ok || got != e {
		t.Errorf("Get after the entry file went = %+v, %v; want the remembered entry", got, ok)
	}
}

// TestOlderEntriesStillDecode: an entry written when Entry also
// carried size, package, version and target reads back as its hash and
// spec text; the extra members are ignored.
func TestOlderEntriesStillDecode(t *testing.T) {
	layer := openLayer(t, t.TempDir())
	old := `{"Hash":"h-old","SpecText":"zlib@1.2.12","Size":1024,"Package":"zlib","Version":"1.2.12","Target":"broadwell"}`
	if err := layer.Put(entryKey("h-old"), []byte(old)); err != nil {
		t.Fatal(err)
	}
	c := New()
	c.Persist(layer)
	if e, ok := c.Get("h-old"); !ok || e != (Entry{Hash: "h-old", SpecText: "zlib@1.2.12"}) {
		t.Errorf("older entry = %+v, %v", e, ok)
	}
}

// TestSiblingPutIsVisible: B attaches, then A puts. B took no snapshot
// at Persist, so it fetches what a sibling CI job finished a second
// ago, and a hash nobody has put stays a miss that a later Put turns
// into a hit.
func TestSiblingPutIsVisible(t *testing.T) {
	dir := t.TempDir()
	a, b := New(), New()
	a.Persist(openLayer(t, dir))
	b.Persist(openLayer(t, dir))
	e1 := Entry{Hash: "h-one", SpecText: "zlib@1.2.12"}
	if _, ok := b.Get(e1.Hash); ok {
		t.Fatal("hit on a hash nobody has put")
	}
	a.Put(e1)
	if got, ok := b.Get(e1.Hash); !ok || got != e1 {
		t.Errorf("B.Get after A.Put = %+v, %v; want A's entry", got, ok)
	}
	e2 := Entry{Hash: "h-two", SpecText: "zlib@1.2.13"}
	a.Put(e2)
	if got, ok := b.Get(e2.Hash); !ok || got != e2 {
		t.Errorf("B.Get misses what A put after B's first hit: %+v, %v", got, ok)
	}
}

func TestPersistSkipsCorruptEntries(t *testing.T) {
	dir := t.TempDir()
	c1 := New()
	c1.Persist(openLayer(t, dir))
	entries := map[string]Entry{}
	for _, h := range []string{"garbage", "truncated", "foreign", "undecodable", "intact"} {
		entries[h] = Entry{Hash: h, SpecText: "zlib@1.2.12"}
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

	// Each damaged entry is a miss by exact hash; the intact one hits.
	c2 := New()
	c2.Persist(openLayer(t, dir))
	for _, h := range []string{"garbage", "truncated", "foreign", "undecodable"} {
		if e, ok := c2.Get(h); ok {
			t.Errorf("%s entry is a hit: %+v", h, e)
		}
	}
	if e, ok := c2.Get("intact"); !ok || e != entries["intact"] {
		t.Errorf("intact entry = %+v, %v", e, ok)
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
}

// TestConcurrentReadThrough: goroutines put through one cache and read
// through a sibling over the same layer; under -race this is the check
// on Get writing what it fetched beside misses and sibling puts.
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
			e := Entry{Hash: fmt.Sprintf("hash-%d", i), SpecText: "zlib@1.2.12"}
			a.Put(e)
			if got, ok := b.Get(e.Hash); !ok || got != e {
				t.Errorf("sibling Get(%s) = %+v, %v", e.Hash, got, ok)
			}
			if _, ok := b.Get("never"); ok {
				t.Error("hit on a hash nobody has put")
			}
		}(i)
	}
	wg.Wait()
}

// FuzzEntry holds the layer's two hand codecs to encoding/json:
// whatever decodeEntry takes, json.Unmarshal takes too and decodes to
// the same Entry (refusing is always allowed: a refused entry is a
// miss and a rebuild), and entryKey is the key cachekey.Hash derives
// from json.Marshal of the hash.
func FuzzEntry(f *testing.F) {
	f.Add([]byte(`{"Hash":"6tklakm7shebgjv4ka6r3bjnnn5liosd","SpecText":"saxpy@1.0.0%gcc@12.1.1+openmp"}`), "6tklakm7shebgjv4ka6r3bjnnn5liosd")
	f.Add([]byte(`{"Hash":"h-old","SpecText":"zlib@1.2.12","Size":1024,"Package":"zlib","Version":"1.2.12","Target":"broadwell"}`), "h-old")
	f.Add([]byte(` {"SpecText":null,"Hash":"a\u0026b","Hash":"\ud800x","Size":[{"x":null}]} `), "<&>\u2028\xff")
	f.Add([]byte(`{"hash":"x"}`), "")
	f.Add([]byte(`{"Hash": 7}`), "\x00\"")
	var d metricsdb.Decoder
	f.Fuzz(func(t *testing.T, data []byte, hash string) {
		if got, want := entryKey(hash), cachekey.Hash(hash).Derive("buildcache"); got != want {
			t.Fatalf("entryKey(%q) = %s, want %s", hash, got, want)
		}
		var got Entry
		if decodeEntry(&d, data, &got) != nil {
			return
		}
		var want Entry
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("decodeEntry took %q, which encoding/json refuses: %v", data, err)
		}
		if got != want {
			t.Fatalf("decodeEntry(%q) = %+v, encoding/json gives %+v", data, got, want)
		}
	})
}
