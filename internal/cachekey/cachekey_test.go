package cachekey

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"
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

	if _, ok := l.Get(key); ok {
		t.Fatal("empty store must miss")
	}
	if err := l.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := l.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v; want payload back", got, ok)
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
	if _, ok := st.Layer("buildcache").Get(key); ok {
		t.Error("layers must not share entries")
	}
	if got, ok := st.Layer("run").Get(key); !ok || string(got) != "run-data" {
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
	got, ok := st2.Layer("concretize").Get(key)
	if !ok || string(got) != "dag" {
		t.Fatalf("reopened store lost the entry: %q, %v", got, ok)
	}
	keys := st2.Layer("concretize").Keys()
	if len(keys) != 1 || keys[0] != key {
		t.Errorf("Keys() = %v, want [%s]", keys, key)
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
	if _, ok := l.Get(Key("")); ok {
		t.Error("invalid key must miss")
	}
}

func TestKeysSkipsStrays(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	l := st.Layer("run")
	keys := []Key{Hash("a"), Hash("b"), Hash("c")}
	for i, k := range keys {
		if err := l.Put(k, []byte(fmt.Sprintf("payload-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// A stray temp file in a bucket directory must not be listed.
	stray := filepath.Join(st.Dir(), "run", string(keys[0][:2]), ".tmp-entry-stray")
	if err := st.Commit(stray, frame([]byte("junk"))); err != nil {
		t.Fatal(err)
	}
	got := l.Keys()
	if len(got) != 3 {
		t.Fatalf("Keys() = %v, want the 3 real keys", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Errorf("Keys() not sorted: %v", got)
		}
	}
}
