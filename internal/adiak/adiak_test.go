package adiak

import (
	"strings"
	"testing"
)

func TestSetGet(t *testing.T) {
	m := New()
	m.Set("cluster", "cts1")
	m.Setf("n_ranks", "%d", 8)
	if v, ok := m.Get("cluster"); !ok || v != "cts1" {
		t.Errorf("cluster = %q %v", v, ok)
	}
	if v, _ := m.Get("n_ranks"); v != "8" {
		t.Errorf("n_ranks = %q", v)
	}
	if _, ok := m.Get("absent"); ok {
		t.Error("absent key should not exist")
	}
	if names := m.Names(); len(names) != 2 || names[0] != "cluster" || names[1] != "n_ranks" {
		t.Errorf("names = %v", names)
	}
}

func TestStringSorted(t *testing.T) {
	m := New()
	m.Set("z", "1")
	m.Set("a", "2")
	s := m.String()
	if !strings.HasPrefix(s, "a=2") || !strings.Contains(s, "z=1") {
		t.Errorf("string = %q", s)
	}
}

func TestCollectDefaults(t *testing.T) {
	m := New()
	CollectDefaults(m, "saxpy", "cts1", "benchpark")
	for _, k := range []string{"executable", "cluster", "user", "adiak_version"} {
		if _, ok := m.Get(k); !ok {
			t.Errorf("default %q missing", k)
		}
	}
}

func TestNilSafety(t *testing.T) {
	var m *Metadata
	if m.Names() != nil || m.String() != "" {
		t.Error("nil metadata should behave as empty")
	}
	if _, ok := m.Get("x"); ok {
		t.Error("nil Get")
	}
	var zero Metadata
	zero.Set("x", "1")
	if v, ok := zero.Get("x"); !ok || v != "1" {
		t.Error("the zero Metadata should be usable")
	}
}
