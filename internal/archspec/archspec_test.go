package archspec

import (
	"strings"
	"testing"
)

func mustLookup(t *testing.T, name string) *Microarchitecture {
	t.Helper()
	m, err := Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestLookupKnownTargets(t *testing.T) {
	// The three systems of Section 4 plus cloud/Fugaku analogues.
	for _, name := range []string{"broadwell", "power9le", "zen3", "skylake_avx512", "a64fx"} {
		if _, err := Lookup(name); err != nil {
			t.Errorf("Lookup(%q): %v", name, err)
		}
	}
	if _, err := Lookup("pentium-pro"); err == nil {
		t.Error("unknown target should error")
	}
}

func TestAncestorChain(t *testing.T) {
	zen3 := mustLookup(t, "zen3")
	names := map[string]bool{}
	for _, a := range zen3.Ancestors() {
		names[a.Name] = true
	}
	for _, want := range []string{"zen2", "x86_64_v3", "x86_64_v2", "x86_64"} {
		if !names[want] {
			t.Errorf("zen3 ancestors missing %s (got %v)", want, names)
		}
	}
	if names["broadwell"] {
		t.Error("zen3 must not descend from broadwell")
	}
}

func TestCompatibility(t *testing.T) {
	bdw := mustLookup(t, "broadwell")
	hsw := mustLookup(t, "haswell")
	x64 := mustLookup(t, "x86_64")
	zen3 := mustLookup(t, "zen3")
	p9 := mustLookup(t, "power9le")

	if !bdw.CompatibleWith(hsw) {
		t.Error("broadwell must run haswell binaries")
	}
	if !bdw.CompatibleWith(x64) {
		t.Error("broadwell must run generic x86_64 binaries")
	}
	if hsw.CompatibleWith(bdw) {
		t.Error("haswell must NOT run broadwell binaries")
	}
	if zen3.CompatibleWith(bdw) {
		t.Error("zen3 must NOT run broadwell binaries (different lineage)")
	}
	if p9.CompatibleWith(x64) {
		t.Error("power9 must NOT run x86_64 binaries")
	}
	if !zen3.CompatibleWith(zen3) {
		t.Error("self compatibility")
	}
}

func TestFeatureUnion(t *testing.T) {
	skl := mustLookup(t, "skylake_avx512")
	if !skl.HasFeatures("avx2", "avx512f", "sse4_2", "clwb") {
		t.Errorf("skylake features = %v", skl.AllFeatures())
	}
	if skl.HasFeatures("sve") {
		t.Error("skylake must not report SVE")
	}
}

func TestOptimizationFlags(t *testing.T) {
	cases := []struct {
		target, compiler, version, want string
	}{
		{"broadwell", "gcc", "12.1.1", "-march=broadwell"},
		{"broadwell", "intel", "2021.6.0", "-xCORE-AVX2"},
		{"power9le", "gcc", "12.1.1", "-mcpu=power9"},
		{"power9le", "xl", "16.1", "-qarch=pwr9"},
		{"zen3", "gcc", "12.1.1", "-march=znver3"},
		{"zen3", "gcc", "9.4.0", "-march=znver2"}, // older gcc falls back
		{"a64fx", "gcc", "12.1", "-mtune=a64fx"},
		{"a64fx", "gcc", "9.3", "-march=armv8.2-a+sve"},
	}
	for _, c := range cases {
		m := mustLookup(t, c.target)
		flags, err := m.OptimizationFlags(c.compiler, c.version)
		if err != nil {
			t.Errorf("%s/%s@%s: %v", c.target, c.compiler, c.version, err)
			continue
		}
		if !strings.Contains(flags, c.want) {
			t.Errorf("%s/%s@%s = %q, want contains %q", c.target, c.compiler, c.version, flags, c.want)
		}
	}
}

func TestOptimizationFlagsFallbackToAncestor(t *testing.T) {
	// icelake has no clang entry; its ancestor skylake_avx512 does.
	icl := mustLookup(t, "icelake")
	flags, err := icl.OptimizationFlags("clang", "15.0")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(flags, "skylake-avx512") {
		t.Errorf("fallback flags = %q", flags)
	}
}

func TestOptimizationFlagsUnknownCompiler(t *testing.T) {
	m := mustLookup(t, "power9le")
	if _, err := m.OptimizationFlags("craycc", "1.0"); err == nil {
		t.Error("unknown compiler should error")
	}
}

func TestDetect(t *testing.T) {
	cases := []struct {
		info CPUInfo
		want string
	}{
		{CPUInfo{VendorID: "GenuineIntel", Family: "x86_64",
			Features: feats("broadwell")}, "broadwell"},
		{CPUInfo{VendorID: "IBM", Family: "ppc64le",
			Features: feats("power9le")}, "power9le"},
		{CPUInfo{VendorID: "AuthenticAMD", Family: "x86_64",
			Features: feats("zen3")}, "zen3"},
		{CPUInfo{VendorID: "Fujitsu", Family: "aarch64",
			Features: feats("a64fx")}, "a64fx"},
		// Missing features demote to a less capable target.
		{CPUInfo{VendorID: "GenuineIntel", Family: "x86_64",
			Features: remove(feats("broadwell"), "adx", "rdseed")}, "haswell"},
	}
	for _, c := range cases {
		got, err := Detect(c.info)
		if err != nil {
			t.Errorf("Detect(%v): %v", c.info.VendorID, err)
			continue
		}
		if got.Name != c.want {
			t.Errorf("Detect(%s %s) = %s, want %s", c.info.VendorID, c.info.Family, got.Name, c.want)
		}
	}
}

func TestDetectNoMatch(t *testing.T) {
	if _, err := Detect(CPUInfo{Family: "riscv64", Features: []string{"rv64gc"}}); err == nil {
		t.Error("unknown family should error")
	}
}

func TestDetectGenericWithoutVendor(t *testing.T) {
	// A cloud instance that hides its vendor still detects via features.
	got, err := Detect(CPUInfo{Family: "x86_64", Features: feats("x86_64_v3")})
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "x86_64_v3" {
		t.Errorf("got %s", got.Name)
	}
}

func feats(name string) []string {
	m, err := Lookup(name)
	if err != nil {
		panic(err)
	}
	return m.AllFeatures()
}

func remove(list []string, drop ...string) []string {
	out := make([]string, 0, len(list))
	for _, f := range list {
		skip := false
		for _, d := range drop {
			if f == d {
				skip = true
			}
		}
		if !skip {
			out = append(out, f)
		}
	}
	return out
}

// TestVersionInRange: a flag entry's range is a spec version list —
// inclusive, its upper bound a prefix ("11" admits "11.2") — and ""
// admits any version.
func TestVersionInRange(t *testing.T) {
	cases := []struct {
		v, rng string
		want   bool
	}{
		{"12.1.1", "", true},
		{"12.1.1", "10.3:", true},
		{"9.4.0", "10.3:", false},
		{"9.4.0", "9:10.2", true},
		{"10.2.1", "9:10.2", true}, // prefix on upper bound
		{"10.3", "9:10.2", false},
		{"11", "11", true},
		{"11.2", "11", true},
	}
	for _, c := range cases {
		m := &Microarchitecture{Name: "t", compilerFlags: map[string][]flagEntry{"gcc": {{c.rng, "-O2"}}}}
		if _, err := m.OptimizationFlags("gcc", c.v); (err == nil) != c.want {
			t.Errorf("gcc@%s with flags for %q: err = %v, want a match %v", c.v, c.rng, err, c.want)
		}
	}
}

func TestNewerGenerations(t *testing.T) {
	spr := mustLookup(t, "sapphirerapids")
	icl := mustLookup(t, "icelake")
	if !spr.CompatibleWith(icl) {
		t.Error("sapphirerapids must run icelake binaries")
	}
	if icl.CompatibleWith(spr) {
		t.Error("icelake must not run sapphirerapids binaries")
	}
	flags, err := spr.OptimizationFlags("gcc", "12.1.1")
	if err != nil || !strings.Contains(flags, "sapphirerapids") {
		t.Errorf("spr flags = %q, %v", flags, err)
	}

	z4 := mustLookup(t, "zen4")
	if !z4.HasFeatures("avx512f", "vaes", "clzero") {
		t.Errorf("zen4 features = %v", z4.AllFeatures())
	}
	// Older gcc falls back to znver3 flags.
	flags, err = z4.OptimizationFlags("gcc", "11.2.0")
	if err != nil || !strings.Contains(flags, "znver3") {
		t.Errorf("zen4 old-gcc flags = %q, %v", flags, err)
	}

	v2 := mustLookup(t, "neoverse_v2")
	if !v2.HasFeatures("sve", "sve2") {
		t.Errorf("neoverse_v2 features = %v", v2.AllFeatures())
	}
	flags, err = v2.OptimizationFlags("gcc", "11.2.0")
	if err != nil || !strings.Contains(flags, "neoverse-v1") {
		t.Errorf("v2 fallback flags = %q, %v", flags, err)
	}
}
