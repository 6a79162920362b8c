package spec

import (
	"strings"
	"testing"
)

func TestParseSimple(t *testing.T) {
	s, err := Parse("amg2023+caliper")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "amg2023" {
		t.Errorf("name = %q", s.Name)
	}
	v, ok := s.Variants["caliper"]
	if !ok || !v.IsBool || !v.Bool {
		t.Errorf("caliper variant = %#v", v)
	}
}

func TestParsePaperSpecs(t *testing.T) {
	// Every spec string that appears in the paper must parse.
	for _, src := range []string{
		"amg2023+caliper",
		"intel-oneapi-mkl@2022.1.0",
		"mvapich2@2.3.7-gcc12.1.1-magic",
		"gcc@12.1.1",
		"mvapich2@2.3.7-gcc12.1.1",
		"saxpy@1.0.0 +openmp ^cmake@3.23.1",
		"mvapich2@2.3.7-compilers",
	} {
		if _, err := Parse(src); err != nil {
			t.Errorf("Parse(%q): %v", src, err)
		}
	}
}

func TestParseFull(t *testing.T) {
	s, err := Parse("amg2023@1.0+caliper~debug build_type=Release %gcc@12.1.1 ^cmake@3.23.1 ^mpi")
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Versions.Concrete(); got.String() != "1.0" {
		t.Errorf("version = %q", s.Versions)
	}
	if v := s.Variants["debug"]; !v.IsBool || v.Bool {
		t.Errorf("debug = %#v", v)
	}
	if v := s.Variants["build_type"]; v.IsBool || len(v.Values) != 1 || v.Values[0] != "Release" {
		t.Errorf("build_type = %#v", v)
	}
	if s.Compiler == nil || s.Compiler.Name != "gcc" || !s.Compiler.Versions.Contains(NewVersion("12.1.1")) {
		t.Errorf("compiler = %v", s.Compiler)
	}
	if len(s.Deps) != 2 {
		t.Errorf("deps = %v", s.Deps)
	}
	cmake := s.Deps["cmake"]
	if cmake == nil || !cmake.Versions.Contains(NewVersion("3.23.1")) {
		t.Errorf("cmake dep = %v", cmake)
	}
	if s.Deps["mpi"] == nil {
		t.Error("mpi dep missing")
	}
}

func TestParseAttachedSigils(t *testing.T) {
	a := MustParse("saxpy@1.0.0+openmp%gcc@12.1.1^cmake@3.23.1")
	b := MustParse("saxpy @1.0.0 +openmp %gcc@12.1.1 ^cmake@3.23.1")
	if a.String() != b.String() {
		t.Errorf("attached %q != spaced %q", a.String(), b.String())
	}
}

func TestParseNegation(t *testing.T) {
	s := MustParse("saxpy -openmp")
	if v := s.Variants["openmp"]; !v.IsBool || v.Bool {
		t.Errorf("openmp = %#v", v)
	}
	// '-' inside a version must not be treated as negation.
	s2 := MustParse("mvapich2@2.3.7-gcc12.1.1-magic")
	if len(s2.Variants) != 0 {
		t.Errorf("variants = %#v", s2.Variants)
	}
}

func TestParseMultiValueVariant(t *testing.T) {
	s := MustParse("hypre cuda_arch=70,80")
	v := s.Variants["cuda_arch"]
	if v.IsBool || len(v.Values) != 2 || v.Values[0] != "70" || v.Values[1] != "80" {
		t.Errorf("cuda_arch = %#v", v)
	}
}

func TestParseArch(t *testing.T) {
	s := MustParse("saxpy target=zen3")
	if s.Target != "zen3" {
		t.Errorf("target = %q", s.Target)
	}
	s2 := MustParse("saxpy arch=linux-rhel8-power9le")
	if s2.Platform != "linux" || s2.Target != "power9le" {
		t.Errorf("arch = %q/%q", s2.Platform, s2.Target)
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"",
		"   ",
		"pkg@",
		"pkg+",
		"pkg%",
		"pkg ^",
		"pkg@2.0:1.0",
		"pkg+x~x",
		"pkg name2",
		"pkg %gcc %clang",
		"pkg build_type=",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

func TestSatisfiesBasics(t *testing.T) {
	concrete := MustParse("amg2023@1.0+caliper+openmp build_type=Release %gcc@12.1.1 target=broadwell")
	cases := []struct {
		constraint string
		want       bool
	}{
		{"amg2023", true},
		{"amg2023@1.0", true},
		{"amg2023@0.5:1.5", true},
		{"amg2023@2.0", false},
		{"amg2023+caliper", true},
		{"amg2023~caliper", false},
		{"amg2023+mpi", false}, // variant not present
		{"amg2023 build_type=Release", true},
		{"amg2023 build_type=Debug", false},
		{"amg2023%gcc", true},
		{"amg2023%gcc@12.1.1", true},
		{"amg2023%gcc@11", false},
		{"amg2023%clang", false},
		{"amg2023 target=broadwell", true},
		{"amg2023 target=zen3", false},
		{"saxpy", false},
	}
	for _, c := range cases {
		if got := concrete.Satisfies(MustParse(c.constraint)); got != c.want {
			t.Errorf("Satisfies(%q) = %v, want %v", c.constraint, got, c.want)
		}
	}
}

func TestSatisfiesDeps(t *testing.T) {
	root := MustParse("amg2023@1.0+caliper")
	hypre := MustParse("hypre@2.28.0+mpi")
	mpi := MustParse("mvapich2@2.3.7")
	if err := hypre.AddDep(mpi); err != nil {
		t.Fatal(err)
	}
	if err := root.AddDep(hypre); err != nil {
		t.Fatal(err)
	}
	// Transitive dependency search: mvapich2 is two levels down.
	if !root.Satisfies(MustParse("amg2023 ^mvapich2@2.3")) {
		t.Error("transitive dep should satisfy")
	}
	if root.Satisfies(MustParse("amg2023 ^mvapich2@3.0")) {
		t.Error("wrong dep version should not satisfy")
	}
	if root.Satisfies(MustParse("amg2023 ^openmpi")) {
		t.Error("absent dep should not satisfy")
	}
}

func TestIntersects(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"pkg@1.0:2.0", "pkg@1.5:3.0", true},
		{"pkg@1.0:2.0", "pkg@3.0:", false},
		{"pkg+x", "pkg+x", true},
		{"pkg+x", "pkg~x", false},
		{"pkg+x", "pkg+y", true}, // different variants can coexist
		{"pkg%gcc", "pkg%clang", false},
		{"pkg%gcc@12", "pkg%gcc@12.1.1", true},
		{"pkg", "other", false},
		{"pkg target=zen3", "pkg target=broadwell", false},
	}
	for _, c := range cases {
		a, b := MustParse(c.a), MustParse(c.b)
		if got := a.Intersects(b); got != c.want {
			t.Errorf("Intersects(%q, %q) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := b.Intersects(a); got != c.want {
			t.Errorf("Intersects(%q, %q) = %v, want %v (symmetry)", c.b, c.a, got, c.want)
		}
	}
}

func TestConstrain(t *testing.T) {
	s := MustParse("amg2023@1.0:")
	if err := s.Constrain(MustParse("amg2023+caliper%gcc@12.1.1")); err != nil {
		t.Fatal(err)
	}
	if v := s.Variants["caliper"]; !v.IsBool || !v.Bool {
		t.Errorf("caliper = %#v", v)
	}
	if s.Compiler == nil || s.Compiler.Name != "gcc" {
		t.Errorf("compiler = %v", s.Compiler)
	}
	if err := s.Constrain(MustParse("amg2023~caliper")); err == nil {
		t.Error("contradictory variant constrain should fail")
	}
	if err := s.Constrain(MustParse("amg2023@0.5")); err == nil {
		t.Error("out-of-range version constrain should fail")
	}
	if err := s.Constrain(MustParse("amg2023%clang")); err == nil {
		t.Error("conflicting compiler constrain should fail")
	}
}

func TestConstrainMergesDeps(t *testing.T) {
	s := MustParse("app ^mpi@3:")
	if err := s.Constrain(MustParse("app ^mpi@:4 ^cmake")); err != nil {
		t.Fatal(err)
	}
	mpi := s.Deps["mpi"]
	if mpi == nil || !mpi.Versions.Contains(NewVersion("3.1")) || mpi.Versions.Contains(NewVersion("5.0")) {
		t.Errorf("mpi constraint = %v", mpi)
	}
	if s.Deps["cmake"] == nil {
		t.Error("cmake dep not merged")
	}
}

func TestCloneIndependence(t *testing.T) {
	s := MustParse("app@1.0+x ^dep@2.0")
	c := s.Clone()
	c.SetVariant("x", BoolVariant(false))
	c.Deps["dep"].Versions, _ = ParseVersionList("3.0")
	if v := s.Variants["x"]; !v.Bool {
		t.Error("clone mutated original variant")
	}
	if !s.Deps["dep"].Versions.Contains(NewVersion("2.0")) {
		t.Error("clone mutated original dep")
	}
}

func TestCloneSharing(t *testing.T) {
	// A diamond DAG must stay a diamond after cloning.
	root := New("root")
	a, b, shared := New("a"), New("b"), New("shared")
	a.Deps["shared"] = shared
	b.Deps["shared"] = shared
	root.Deps["a"] = a
	root.Deps["b"] = b
	c := root.Clone()
	if c.Deps["a"].Deps["shared"] != c.Deps["b"].Deps["shared"] {
		t.Error("shared node duplicated by Clone")
	}
}

func TestStringCanonical(t *testing.T) {
	s := MustParse("saxpy@1.0.0+openmp %gcc@12.1.1 ^cmake@3.23.1")
	str := s.String()
	for _, want := range []string{"saxpy@1.0.0", "+openmp", "%gcc@12.1.1", "^cmake@3.23.1"} {
		if !strings.Contains(str, want) {
			t.Errorf("String() = %q missing %q", str, want)
		}
	}
	// Round trip: parse of String() must be equivalent.
	s2, err := Parse(str)
	if err != nil {
		t.Fatalf("reparse %q: %v", str, err)
	}
	if !s2.Satisfies(s) || !s.Satisfies(s2) {
		t.Errorf("round trip inequivalent: %q vs %q", str, s2.String())
	}
}

func TestMarkConcrete(t *testing.T) {
	s := MustParse("pkg@1.0:2.0")
	if err := s.MarkConcrete(); err == nil {
		t.Error("range version cannot be concrete")
	}
	s2 := MustParse("pkg@1.0")
	if err := s2.MarkConcrete(); err != nil {
		t.Fatal(err)
	}
	if !s2.IsConcrete() {
		t.Error("not concrete after mark")
	}
	// Constraining a concrete spec only verifies.
	if err := s2.Constrain(MustParse("pkg@1.0")); err != nil {
		t.Errorf("compatible constrain on concrete: %v", err)
	}
	if err := s2.Constrain(MustParse("pkg@2.0")); err == nil {
		t.Error("incompatible constrain on concrete should fail")
	}
}

func TestDAGHashStability(t *testing.T) {
	a := MustParse("saxpy@1.0.0+openmp %gcc@12.1.1 ^cmake@3.23.1")
	b := MustParse("saxpy+openmp@1.0.0 %gcc@12.1.1 ^cmake@3.23.1") // different sigil order
	if a.DAGHash() != b.DAGHash() {
		t.Error("hash should be order-independent")
	}
	c := MustParse("saxpy@1.0.0~openmp %gcc@12.1.1 ^cmake@3.23.1")
	if a.DAGHash() == c.DAGHash() {
		t.Error("variant flip must change hash")
	}
	d := MustParse("saxpy@1.0.0+openmp %gcc@12.1.1 ^cmake@3.23.2")
	if a.DAGHash() == d.DAGHash() {
		t.Error("dependency version change must change hash")
	}
	if len(a.ShortHash()) != 7 {
		t.Errorf("short hash = %q", a.ShortHash())
	}
}

func TestTraverseVisitsOnce(t *testing.T) {
	root := New("root")
	shared := New("shared")
	a, b := New("a"), New("b")
	a.Deps["shared"] = shared
	b.Deps["shared"] = shared
	root.Deps["a"] = a
	root.Deps["b"] = b
	count := map[string]int{}
	root.Traverse(func(n *Spec) { count[n.Name]++ })
	if count["shared"] != 1 {
		t.Errorf("shared visited %d times", count["shared"])
	}
	if len(count) != 4 {
		t.Errorf("visited %v", count)
	}
}

func TestFindDep(t *testing.T) {
	root := MustParse("app ^level1")
	deep := MustParse("level2@9")
	if err := root.Deps["level1"].AddDep(deep); err != nil {
		t.Fatal(err)
	}
	if d := root.FindDep("level2"); d == nil || !d.Versions.Contains(NewVersion("9")) {
		t.Errorf("FindDep(level2) = %v", d)
	}
	if d := root.FindDep("nope"); d != nil {
		t.Errorf("FindDep(nope) = %v", d)
	}
}

// FuzzParse pins the byte boundary spec strings cross: one that Parse
// accepts renders to a string Parse accepts again, and that rendering
// is a fixed point — what a lockfile or a stored manifest holds
// re-reads as itself.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		// README, examples and the paper's figures.
		"amg2023+caliper",
		"saxpy@1.0.0 +openmp ^cmake@3.23.1",
		"mvapich2@2.3.7-gcc12.1.1-magic",
		"intel-oneapi-mkl@2022.1.0",
		"amg2023@1.0+caliper~debug build_type=Release %gcc@12.1.1 ^cmake@3.23.1 ^mpi",
		"hypre@2.24:2.26,3: +mpi amdgpu_target=gfx90a,gfx908 arch=linux-rhel8-zen3 ^blas",
		"-shared foo platform=linux target=x86_64",
		// Versions constrained twice, the way depends_on meets a user's pin.
		"hypre@2@2.24",
		"hypre@2.24@2",
		"x@1:2@2.4:3",
		"@A@.",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		s, err := Parse(input)
		if err != nil {
			return
		}
		first := s.String()
		again, err := Parse(first)
		if err != nil {
			t.Fatalf("Parse(%q) renders %q, which does not re-parse: %v", input, first, err)
		}
		if second := again.String(); second != first {
			t.Fatalf("Parse(%q) renders %q, which re-renders as %q", input, first, second)
		}
	})
}
