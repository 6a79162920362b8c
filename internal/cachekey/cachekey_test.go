package cachekey

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fsys"
)

func TestHashStableAndInputSensitive(t *testing.T) {
	type in struct {
		Spec   string
		System string
		Vars   map[string]string
	}
	a := in{Spec: "saxpy@1.0.0", System: "cts1", Vars: map[string]string{"n": "512", "t": "4"}}
	b := in{Spec: "saxpy@1.0.0", System: "cts1", Vars: map[string]string{"t": "4", "n": "512"}}
	if Hash(a) != Hash(b) {
		t.Error("hash must not depend on map insertion order")
	}
	if !Hash(a).Valid() {
		t.Errorf("Hash produced invalid key %q", Hash(a))
	}
	c := a
	c.Vars = map[string]string{"n": "513", "t": "4"}
	if Hash(a) == Hash(c) {
		t.Error("different variables must produce different keys")
	}
	d := a
	d.System = "ats2"
	if Hash(a) == Hash(d) {
		t.Error("different systems must produce different keys")
	}
}

func TestHashUnmarshalableIsInvalid(t *testing.T) {
	k := Hash(func() {})
	if k != "" || k.Valid() {
		t.Errorf("unmarshalable value must hash to the invalid key, got %q", k)
	}
}

func TestDeriveComposes(t *testing.T) {
	base := Hash("spec")
	up := Hash("upstream")
	k1 := base.Derive("execute", up)
	k2 := base.Derive("execute", up)
	if k1 != k2 || !k1.Valid() {
		t.Fatalf("Derive must be deterministic and valid, got %q vs %q", k1, k2)
	}
	if base.Derive("execute") == base.Derive("install") {
		t.Error("stage name must change the derived key")
	}
	if base.Derive("execute", up) == base.Derive("execute") {
		t.Error("input keys must change the derived key")
	}
	if Key("").Derive("execute") != Key("") {
		t.Error("deriving from the invalid key must stay invalid")
	}
	if base.Derive("execute", Key("bogus")) != Key("") {
		t.Error("deriving through an invalid input must yield the invalid key")
	}
}

func TestShort(t *testing.T) {
	k := Hash(1)
	if got := k.Short(); got != string(k[:12]) {
		t.Errorf("Short() = %q", got)
	}
}

func TestStoreRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	l := st.Layer("run")
	key := Hash("experiment-1")
	payload := []byte(`{"text":"Kernel done","elapsed":1.5}`)

	if _, ok := get(l, key); ok {
		t.Fatal("empty store must miss")
	}
	if err := l.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := get(l, key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Read = %q, %v; want payload back", got, ok)
	}
}

func TestStoreLayersAreIsolatedButShared(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := Hash("x")
	if err := st.Layer("run").Put(key, []byte("run-data")); err != nil {
		t.Fatal(err)
	}
	if _, ok := get(st.Layer("buildcache"), key); ok {
		t.Error("layers must not share entries")
	}
	if got, ok := get(st.Layer("run"), key); !ok || string(got) != "run-data" {
		t.Errorf("run layer lost its entry: %q, %v", got, ok)
	}
}

func TestStoreSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	st1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := Hash("persisted")
	if err := st1.Layer("concretize").Put(key, []byte("dag")); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := get(st2.Layer("concretize"), key)
	if !ok || string(got) != "dag" {
		t.Fatalf("reopened store lost the entry: %q, %v", got, ok)
	}
	var files []string
	err = filepath.Walk(filepath.Join(dir, "concretize"), func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		files = append(files, info.Name())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || files[0] != string(key) {
		t.Errorf("entry files = %v, want [%s]", files, key)
	}
}

func TestInvalidKeyNeverStores(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	l := st.Layer("run")
	if err := l.Put(Key(""), []byte("x")); err == nil {
		t.Error("Put under the invalid key must fail")
	}
	if err := l.Put(Key("../../etc/passwd-0000000000000000000000000000000000000000000"), []byte("x")); err == nil {
		t.Error("Put under a malformed key must fail")
	}
	if _, ok := get(l, Key("")); ok {
		t.Error("invalid key must miss")
	}
}

// TestGetSkipsStrayFiles: a temp file a crashed writer left in a
// bucket does not disturb the entry beside it, and a stray file under
// a key's own name is a miss until the next Put heals the slot.
func TestGetSkipsStrayFiles(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	l := st.Layer("run")
	entry, stray := Hash("a"), Hash("b")
	if err := l.Put(entry, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	leftover := filepath.Join(filepath.Dir(l.path(entry)), fsys.TempPrefix+"stray")
	if _, err := fsys.Commit(fsys.OS, leftover, bytes.NewReader(frame([]byte("junk")))); err != nil {
		t.Fatal(err)
	}
	if got, ok := get(l, entry); !ok || string(got) != "payload" {
		t.Errorf("Read beside a leftover temp file = %q, %v", got, ok)
	}
	if err := os.MkdirAll(filepath.Dir(l.path(stray)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(l.path(stray), []byte("not a cache entry"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, ok := get(l, stray); ok {
		t.Errorf("stray file served as a hit: %q", got)
	}
	if err := l.Put(stray, []byte("healed")); err != nil {
		t.Fatal(err)
	}
	if got, ok := get(l, stray); !ok || string(got) != "healed" {
		t.Errorf("Read after the healing Put = %q, %v", got, ok)
	}
}

// get reads the entry under key as the pipeline's layers do and keeps
// a copy of the borrowed payload.
func get(l *Layer, key Key) ([]byte, bool) {
	var out []byte
	ok := l.Read(key, func(payload []byte) bool {
		out = bytes.Clone(payload)
		return true
	})
	return out, ok
}

// TestReadLendsEachPayloadWhole: a read into room a longer entry grew
// hands over exactly the shorter payload, and a payload the callback
// refuses is a miss.
func TestReadLendsEachPayloadWhole(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	l := st.Layer("run")
	long, short := Hash("long"), Hash("short")
	if err := l.Put(long, bytes.Repeat([]byte("x"), 64<<10)); err != nil {
		t.Fatal(err)
	}
	if err := l.Put(short, []byte("short")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if got, ok := get(l, long); !ok || len(got) != 64<<10 {
			t.Fatalf("long entry: %d bytes, %v", len(got), ok)
		}
		if got, ok := get(l, short); !ok || string(got) != "short" {
			t.Fatalf("short entry after the long one = %q, %v", got, ok)
		}
	}
	if l.Read(short, func([]byte) bool { return false }) {
		t.Error("a refused payload must read as a miss")
	}
}
