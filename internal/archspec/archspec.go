// Package archspec is a library for detecting, labeling, and
// reasoning about microarchitectures, mirroring the Archspec library
// Spack uses (Section 3.1.3 of the Benchpark paper). It provides:
//
//  1. a DAG of known microarchitectures with feature sets and
//     vendor/generation metadata,
//  2. compatibility reasoning (can a binary built for target A run on
//     target B?), and
//  3. per-compiler optimization-flag selection used to tailor build
//     recipes to the target architecture.
package archspec

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/spec"
)

// Microarchitecture describes one CPU target.
type Microarchitecture struct {
	Name       string
	Vendor     string
	Family     string   // ISA family: x86_64, ppc64le, aarch64
	Parents    []string // immediately less capable targets this one extends
	Features   []string // ISA feature flags (sorted)
	Generation int      // vendor generation, for POWER etc.

	// closure is Features plus every ancestor's, sorted: fixed once
	// the table is registered, so register computes it once.
	closure []string

	// compilerFlags maps compiler name to entries of (version range,
	// flags). The best entry whose range admits the compiler version
	// is chosen.
	compilerFlags map[string][]flagEntry
}

type flagEntry struct {
	versions string // a spec version list such as "lo:hi"; "" = any
	flags    string
}

// universe is the registry of known microarchitectures.
var universe = map[string]*Microarchitecture{}

func register(m *Microarchitecture) *Microarchitecture {
	sort.Strings(m.Features)
	if m.compilerFlags == nil {
		m.compilerFlags = map[string][]flagEntry{}
	}
	if _, dup := universe[m.Name]; dup {
		panic("archspec: duplicate microarchitecture " + m.Name)
	}
	m.closure = append([]string(nil), m.Features...)
	for _, p := range m.Parents {
		pm, ok := universe[p]
		if !ok {
			panic("archspec: " + m.Name + " registered before its parent " + p)
		}
		m.closure = append(m.closure, pm.closure...)
	}
	sort.Strings(m.closure)
	m.closure = slices.Compact(m.closure)
	universe[m.Name] = m
	return m
}

func (m *Microarchitecture) flag(compiler string, entries ...flagEntry) *Microarchitecture {
	m.compilerFlags[compiler] = append(m.compilerFlags[compiler], entries...)
	return m
}

// Lookup returns the named microarchitecture.
func Lookup(name string) (*Microarchitecture, error) {
	m, ok := universe[name]
	if !ok {
		return nil, fmt.Errorf("archspec: unknown microarchitecture %q", name)
	}
	return m, nil
}

// Names returns all registered microarchitecture names, sorted.
func Names() []string {
	out := make([]string, 0, len(universe))
	for n := range universe {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Ancestors returns every microarchitecture m transitively extends,
// not including m itself.
func (m *Microarchitecture) Ancestors() []*Microarchitecture {
	seen := map[string]bool{}
	var out []*Microarchitecture
	var walk func(mm *Microarchitecture)
	walk = func(mm *Microarchitecture) {
		for _, p := range mm.Parents {
			if seen[p] {
				continue
			}
			seen[p] = true
			pm := universe[p]
			out = append(out, pm)
			walk(pm)
		}
	}
	walk(m)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// CompatibleWith reports whether code compiled for target can run on
// m: target must be m itself or one of m's ancestors, and m must
// support every feature of target.
func (m *Microarchitecture) CompatibleWith(target *Microarchitecture) bool {
	if m == target {
		return true
	}
	isAncestor := false
	for _, a := range m.Ancestors() {
		if a == target {
			isAncestor = true
			break
		}
	}
	if !isAncestor {
		return false
	}
	return m.HasFeatures(target.Features...)
}

// HasFeatures reports whether m supports all the given ISA features,
// either directly or via an ancestor.
func (m *Microarchitecture) HasFeatures(features ...string) bool {
	for _, f := range features {
		if i := sort.SearchStrings(m.closure, f); i == len(m.closure) || m.closure[i] != f {
			return false
		}
	}
	return true
}

// AllFeatures returns the union of m's features and those of all its
// ancestors, sorted.
func (m *Microarchitecture) AllFeatures() []string {
	return append([]string(nil), m.closure...)
}

// OptimizationFlags returns the compiler flags that tune for m with
// the given compiler and version, e.g. ("gcc", "12.1.1") on zen3 →
// "-march=znver3 -mtune=znver3". If the exact target has no entry for
// the compiler, ancestors are consulted from most to least specific.
func (m *Microarchitecture) OptimizationFlags(compiler, version string) (string, error) {
	chain := append([]*Microarchitecture{m}, m.ancestorsByDepth()...)
	v := spec.NewVersion(version)
	for _, cand := range chain {
		entries, ok := cand.compilerFlags[compiler]
		if !ok {
			continue
		}
		for _, e := range entries {
			vl, err := spec.ParseVersionList(e.versions)
			if e.versions == "" || err == nil && vl.Contains(v) {
				return e.flags, nil
			}
		}
	}
	return "", fmt.Errorf("archspec: no %s flags known for target %s with %s@%s",
		compiler, m.Name, compiler, version)
}

// ancestorsByDepth returns ancestors ordered nearest-first (BFS).
func (m *Microarchitecture) ancestorsByDepth() []*Microarchitecture {
	var out []*Microarchitecture
	seen := map[string]bool{}
	queue := append([]string(nil), m.Parents...)
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		if seen[name] {
			continue
		}
		seen[name] = true
		a := universe[name]
		out = append(out, a)
		queue = append(queue, a.Parents...)
	}
	return out
}

// ---------------------------------------------------------------------------
// Detection
// ---------------------------------------------------------------------------

// CPUInfo is what a system reports about its processor — the
// simulated analogue of /proc/cpuinfo. HPC system models in
// internal/hpcsim provide one of these.
type CPUInfo struct {
	VendorID string   // "GenuineIntel", "AuthenticAMD", "IBM", "Fujitsu"
	Family   string   // "x86_64", "ppc64le", "aarch64"
	Features []string // ISA feature flags as the OS reports them
}

// Detect finds the most specific registered microarchitecture whose
// family matches and whose full feature set is covered by the CPU's
// reported features. Ties break toward the target with more features
// (then lexicographically for determinism).
func Detect(info CPUInfo) (*Microarchitecture, error) {
	have := map[string]bool{}
	for _, f := range info.Features {
		have[f] = true
	}
	var best *Microarchitecture
	bestCount := -1
	for _, name := range Names() {
		m := universe[name]
		if m.Family != info.Family {
			continue
		}
		if m.Vendor != "" && info.VendorID != "" && m.Vendor != info.VendorID {
			continue
		}
		feats := m.closure
		ok := true
		for _, f := range feats {
			if !have[f] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		if len(feats) > bestCount || (len(feats) == bestCount && best != nil && name < best.Name) {
			best, bestCount = m, len(feats)
		}
	}
	if best == nil {
		return nil, fmt.Errorf("archspec: no microarchitecture matches family %q features %v",
			info.Family, info.Features)
	}
	return best, nil
}

// ---------------------------------------------------------------------------
// The microarchitecture database
// ---------------------------------------------------------------------------

func init() {
	// --- x86_64 lineage -------------------------------------------------
	register(&Microarchitecture{
		Name: "x86_64", Family: "x86_64",
		Features: []string{"mmx", "sse", "sse2"},
	}).flag("gcc", flagEntry{"", "-march=x86-64 -mtune=generic"}).
		flag("clang", flagEntry{"", "-march=x86-64"}).
		flag("intel", flagEntry{"", "-msse2"})

	register(&Microarchitecture{
		Name: "x86_64_v2", Family: "x86_64", Parents: []string{"x86_64"},
		Features: []string{"cx16", "popcnt", "sse3", "sse4_1", "sse4_2", "ssse3"},
	}).flag("gcc", flagEntry{"11:", "-march=x86-64-v2 -mtune=generic"})

	register(&Microarchitecture{
		Name: "x86_64_v3", Family: "x86_64", Parents: []string{"x86_64_v2"},
		Features: []string{"avx", "avx2", "bmi1", "bmi2", "f16c", "fma", "movbe"},
	}).flag("gcc", flagEntry{"11:", "-march=x86-64-v3 -mtune=generic"})

	register(&Microarchitecture{
		Name: "x86_64_v4", Family: "x86_64", Parents: []string{"x86_64_v3"},
		Features: []string{"avx512bw", "avx512cd", "avx512dq", "avx512f", "avx512vl"},
	}).flag("gcc", flagEntry{"11:", "-march=x86-64-v4 -mtune=generic"})

	register(&Microarchitecture{
		Name: "haswell", Vendor: "GenuineIntel", Family: "x86_64", Parents: []string{"x86_64_v3"},
		Features: []string{"aes", "pclmulqdq", "rdrand"},
	}).flag("gcc", flagEntry{"4.9:", "-march=haswell -mtune=haswell"}).
		flag("clang", flagEntry{"", "-march=haswell"}).
		flag("intel", flagEntry{"", "-xCORE-AVX2"})

	register(&Microarchitecture{
		Name: "broadwell", Vendor: "GenuineIntel", Family: "x86_64", Parents: []string{"haswell"},
		Features: []string{"adx", "rdseed"},
	}).flag("gcc", flagEntry{"4.9:", "-march=broadwell -mtune=broadwell"}).
		flag("clang", flagEntry{"", "-march=broadwell"}).
		flag("intel", flagEntry{"", "-xCORE-AVX2"})

	register(&Microarchitecture{
		Name: "skylake_avx512", Vendor: "GenuineIntel", Family: "x86_64",
		Parents:  []string{"broadwell", "x86_64_v4"},
		Features: []string{"clwb", "pku"},
	}).flag("gcc", flagEntry{"6:", "-march=skylake-avx512 -mtune=skylake-avx512"}).
		flag("clang", flagEntry{"", "-march=skylake-avx512"}).
		flag("intel", flagEntry{"", "-xCORE-AVX512"})

	register(&Microarchitecture{
		Name: "icelake", Vendor: "GenuineIntel", Family: "x86_64",
		Parents:  []string{"skylake_avx512"},
		Features: []string{"avx512_vnni", "gfni", "vaes"},
	}).flag("gcc", flagEntry{"8:", "-march=icelake-server -mtune=icelake-server"}).
		flag("intel", flagEntry{"", "-xICELAKE-SERVER"})

	register(&Microarchitecture{
		Name: "zen2", Vendor: "AuthenticAMD", Family: "x86_64", Parents: []string{"x86_64_v3"},
		Features: []string{"aes", "clwb", "clzero", "rdseed", "sha_ni"},
	}).flag("gcc", flagEntry{"9:", "-march=znver2 -mtune=znver2"}).
		flag("clang", flagEntry{"9:", "-march=znver2"})

	register(&Microarchitecture{
		Name: "zen3", Vendor: "AuthenticAMD", Family: "x86_64", Parents: []string{"zen2"},
		Features: []string{"invpcid", "pku", "vaes", "vpclmulqdq"},
	}).flag("gcc", flagEntry{"10.3:", "-march=znver3 -mtune=znver3"},
		flagEntry{"9:10.2", "-march=znver2 -mtune=znver2"}).
		flag("clang", flagEntry{"12:", "-march=znver3"})

	register(&Microarchitecture{
		Name: "sapphirerapids", Vendor: "GenuineIntel", Family: "x86_64",
		Parents:  []string{"icelake"},
		Features: []string{"amx_bf16", "amx_int8", "amx_tile", "avx512_bf16", "avx512_fp16"},
	}).flag("gcc", flagEntry{"11:", "-march=sapphirerapids -mtune=sapphirerapids"}).
		flag("intel", flagEntry{"", "-xSAPPHIRERAPIDS"})

	register(&Microarchitecture{
		Name: "zen4", Vendor: "AuthenticAMD", Family: "x86_64", Parents: []string{"zen3"},
		Features: []string{"avx512bw", "avx512cd", "avx512dq", "avx512f", "avx512vl", "avx512_bf16", "gfni"},
	}).flag("gcc", flagEntry{"12.3:", "-march=znver4 -mtune=znver4"},
		flagEntry{"10.3:12.2", "-march=znver3 -mtune=znver3"}).
		flag("clang", flagEntry{"16:", "-march=znver4"})

	// --- ppc64le lineage ------------------------------------------------
	register(&Microarchitecture{
		Name: "ppc64le", Family: "ppc64le",
		Features: []string{"altivec"},
	}).flag("gcc", flagEntry{"", "-mcpu=powerpc64le -mtune=powerpc64le"})

	register(&Microarchitecture{
		Name: "power8le", Vendor: "IBM", Family: "ppc64le", Parents: []string{"ppc64le"},
		Features: []string{"vsx"}, Generation: 8,
	}).flag("gcc", flagEntry{"4.9:", "-mcpu=power8 -mtune=power8"})

	register(&Microarchitecture{
		Name: "power9le", Vendor: "IBM", Family: "ppc64le", Parents: []string{"power8le"},
		Features: []string{"darn", "ieee128"}, Generation: 9,
	}).flag("gcc", flagEntry{"6:", "-mcpu=power9 -mtune=power9"}).
		flag("clang", flagEntry{"", "-mcpu=power9"}).
		flag("xl", flagEntry{"", "-qarch=pwr9 -qtune=pwr9"})

	// --- aarch64 lineage ------------------------------------------------
	register(&Microarchitecture{
		Name: "aarch64", Family: "aarch64",
		Features: []string{"asimd", "fp"},
	}).flag("gcc", flagEntry{"", "-march=armv8-a -mtune=generic"})

	register(&Microarchitecture{
		Name: "a64fx", Vendor: "Fujitsu", Family: "aarch64", Parents: []string{"aarch64"},
		Features: []string{"fcma", "sha2", "sve"},
	}).flag("gcc", flagEntry{"11:", "-march=armv8.2-a+sve -mtune=a64fx"},
		flagEntry{"8:10", "-march=armv8.2-a+sve"}).
		flag("fj", flagEntry{"", "-KA64FX -KSVE"})

	register(&Microarchitecture{
		Name: "neoverse_v1", Vendor: "ARM", Family: "aarch64", Parents: []string{"aarch64"},
		Features: []string{"bf16", "i8mm", "rng", "sve"},
	}).flag("gcc", flagEntry{"10.3:", "-mcpu=neoverse-v1"})

	register(&Microarchitecture{
		Name: "neoverse_v2", Vendor: "ARM", Family: "aarch64", Parents: []string{"neoverse_v1"},
		Features: []string{"sve2", "sve2_bitperm"},
	}).flag("gcc", flagEntry{"12.3:", "-mcpu=neoverse-v2"},
		flagEntry{"10.3:12.2", "-mcpu=neoverse-v1"})
}
