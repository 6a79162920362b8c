// Package adiak collects run metadata — the Go analogue of LLNL's
// Adiak library the paper plans to use for "metadata related to the
// build settings and execution contexts, enabling filtering and
// sorting of collected profiles" (Section 5).
package adiak

import (
	"fmt"
	"sort"
	"strings"
)

// Metadata is an ordered set of name/value descriptors for one run.
type Metadata struct {
	values map[string]string
}

// New returns an empty metadata set.
func New() *Metadata {
	return &Metadata{values: map[string]string{}}
}

// FromMap returns a metadata set holding values. It keeps the map
// (nil is an empty set); later writes to it go through Set.
func FromMap(values map[string]string) *Metadata {
	return &Metadata{values: values}
}

// Set records one descriptor, overwriting any previous value.
func (m *Metadata) Set(name, value string) {
	if m.values == nil {
		m.values = map[string]string{}
	}
	m.values[name] = value
}

// Setf records a formatted descriptor.
func (m *Metadata) Setf(name, format string, args ...any) {
	m.Set(name, fmt.Sprintf(format, args...))
}

// Get returns the descriptor value and whether it exists.
func (m *Metadata) Get(name string) (string, bool) {
	if m == nil || m.values == nil {
		return "", false
	}
	v, ok := m.values[name]
	return v, ok
}

// Names returns all descriptor names, sorted.
func (m *Metadata) Names() []string {
	if m == nil {
		return nil
	}
	out := make([]string, 0, len(m.values))
	for k := range m.values {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// String renders "k=v" pairs sorted by key.
func (m *Metadata) String() string {
	var parts []string
	for _, k := range m.Names() {
		v, _ := m.Get(k)
		parts = append(parts, k+"="+v)
	}
	return strings.Join(parts, " ")
}

// CollectDefaults fills the descriptors Adiak gathers implicitly for
// every run: executable, cluster, launch context.
func CollectDefaults(m *Metadata, executable, cluster, user string) {
	m.Set("executable", executable)
	m.Set("cluster", cluster)
	m.Set("user", user)
	m.Set("adiak_version", "0.4.0-sim")
}
