package concretizer

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/pkgrepo"
	"repro/internal/spec"
)

// testConfig builds a CTS-like configuration: gcc and intel compilers,
// external MVAPICH2 and MKL, broadwell target (Figures 4, 9, 12).
func testConfig(t testing.TB) *Config {
	t.Helper()
	cfg := NewConfig()
	cfg.Platform = "linux"
	cfg.Target = "broadwell"
	cfg.DefaultCompiler = "gcc@12.1.1"
	for _, c := range []string{"gcc@12.1.1", "gcc@10.3.1", "intel-oneapi-compilers@2021.6.0"} {
		if err := cfg.AddCompiler(c, "/usr/tce/"+c); err != nil {
			t.Fatal(err)
		}
	}
	if err := cfg.AddExternal("mvapich2@2.3.7", "/usr/tce/mvapich2"); err != nil {
		t.Fatal(err)
	}
	if err := cfg.AddExternal("intel-oneapi-mkl@2022.1.0", "/opt/intel/mkl"); err != nil {
		t.Fatal(err)
	}
	cfg.ProviderPrefs["mpi"] = []string{"mvapich2"}
	cfg.ProviderPrefs["lapack"] = []string{"intel-oneapi-mkl"}
	cfg.ProviderPrefs["blas"] = []string{"intel-oneapi-mkl"}
	return cfg
}

func newC(t testing.TB) *Concretizer {
	return New(pkgrepo.Builtin(), testConfig(t))
}

// TestConcurrentSolvesOverSharedBuiltinScope: pkgrepo.Builtin() repos
// share one set of recipes, so solving from several goroutines must
// only ever read them (run under -race) and give every goroutine the
// answer a lone solve gives.
func TestConcurrentSolvesOverSharedBuiltinScope(t *testing.T) {
	specs := []string{"saxpy@1.0.0 +openmp ^cmake@3.23.1", "amg2023+caliper", "hypre", "caliper"}
	want := make([]string, len(specs))
	for i, s := range specs {
		got, err := newC(t).Concretize(spec.MustParse(s))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = got.DAGHash()
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := newC(t) // its own Repo over the shared scope
			for n := 0; n < 4; n++ {
				i := (g + n) % len(specs)
				got, err := c.Concretize(spec.MustParse(specs[i]))
				if err != nil {
					t.Error(err)
					return
				}
				if h := got.DAGHash(); h != want[i] {
					t.Errorf("%s: concurrent solve %s, lone solve %s", specs[i], h, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestConcretizeSaxpy(t *testing.T) {
	c := newC(t)
	// The paper's Figure 10 spec.
	got, err := c.Concretize(spec.MustParse("saxpy@1.0.0 +openmp ^cmake@3.23.1"))
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsConcrete() {
		t.Fatal("result not concrete")
	}
	if got.ConcreteVersion().String() != "1.0.0" {
		t.Errorf("version = %s", got.ConcreteVersion())
	}
	if v := got.Variants["openmp"]; !v.IsBool || !v.Bool {
		t.Errorf("openmp = %#v", v)
	}
	if got.Compiler == nil || got.Compiler.Name != "gcc" {
		t.Errorf("compiler = %v", got.Compiler)
	}
	if got.Target != "broadwell" {
		t.Errorf("target = %q", got.Target)
	}
	cmake := got.FindDep("cmake")
	if cmake == nil || cmake.ConcreteVersion().String() != "3.23.1" {
		t.Errorf("cmake = %v", cmake)
	}
	// mpi resolved to the preferred external mvapich2
	mv := got.FindDep("mvapich2")
	if mv == nil {
		t.Fatalf("mpi not resolved to mvapich2; spec = %s", got.String())
	}
	if mv.External == "" {
		t.Error("mvapich2 should come from the external")
	}
	// GPU deps must NOT appear.
	if got.FindDep("cuda") != nil || got.FindDep("rocm") != nil {
		t.Error("GPU dependencies must not activate for ~cuda~rocm")
	}
}

func TestConcretizeDefaultsApplied(t *testing.T) {
	c := newC(t)
	got, err := c.Concretize(spec.MustParse("saxpy"))
	if err != nil {
		t.Fatal(err)
	}
	// openmp defaults true, cuda/rocm default false.
	if v := got.Variants["openmp"]; !v.Bool {
		t.Error("openmp default should be true")
	}
	if v := got.Variants["cuda"]; v.Bool {
		t.Error("cuda default should be false")
	}
	// All nodes concrete.
	got.Traverse(func(n *spec.Spec) {
		if !n.IsConcrete() {
			t.Errorf("node %s not concrete", n.Name)
		}
	})
}

func TestConcretizeAMGWithCaliper(t *testing.T) {
	c := newC(t)
	// Figure 2/3's spec: amg2023+caliper.
	got, err := c.Concretize(spec.MustParse("amg2023+caliper"))
	if err != nil {
		t.Fatal(err)
	}
	if got.FindDep("caliper") == nil {
		t.Error("+caliper must pull in caliper")
	}
	if got.FindDep("adiak") == nil {
		t.Error("caliper+adiak must pull in adiak")
	}
	hypre := got.FindDep("hypre")
	if hypre == nil {
		t.Fatal("amg2023 must depend on hypre")
	}
	// blas/lapack resolved to preferred MKL external.
	mkl := got.FindDep("intel-oneapi-mkl")
	if mkl == nil || mkl.External == "" {
		t.Errorf("mkl = %v", mkl)
	}

	// Without +caliper, no caliper in the DAG.
	got2, err := c.Concretize(spec.MustParse("amg2023~caliper"))
	if err != nil {
		t.Fatal(err)
	}
	if got2.FindDep("caliper") != nil {
		t.Error("~caliper must not pull in caliper")
	}
}

func TestConcretizeCudaChain(t *testing.T) {
	cfg := testConfig(t)
	cfg.Target = "power9le" // ats2-like
	c := New(pkgrepo.Builtin(), cfg)
	got, err := c.Concretize(spec.MustParse("amg2023+cuda"))
	if err != nil {
		t.Fatal(err)
	}
	if got.FindDep("cuda") == nil {
		t.Error("+cuda must pull in cuda")
	}
	hypre := got.FindDep("hypre")
	if hypre == nil || !hypre.Variants["cuda"].Bool {
		t.Errorf("hypre must be +cuda, got %v", hypre)
	}
}

func TestConflictDetected(t *testing.T) {
	c := newC(t)
	_, err := c.Concretize(spec.MustParse("amg2023+cuda+rocm"))
	if err == nil || !strings.Contains(err.Error(), "conflict") {
		t.Errorf("want conflict error, got %v", err)
	}
}

func TestUnknownVariantRejected(t *testing.T) {
	c := newC(t)
	if _, err := c.Concretize(spec.MustParse("saxpy+nonexistent")); err == nil {
		t.Error("unknown variant should fail")
	}
}

func TestUnknownPackageRejected(t *testing.T) {
	c := newC(t)
	if _, err := c.Concretize(spec.MustParse("no-such-pkg")); err == nil {
		t.Error("unknown package should fail")
	}
}

func TestCompilerSelection(t *testing.T) {
	c := newC(t)
	got, err := c.Concretize(spec.MustParse("saxpy%gcc@10.3.1"))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Compiler.Versions.Contains(spec.NewVersion("10.3.1")) {
		t.Errorf("compiler = %v", got.Compiler)
	}
	// Unavailable compiler version fails with a helpful message.
	_, err = c.Concretize(spec.MustParse("saxpy%gcc@13"))
	if err == nil || !strings.Contains(err.Error(), "no configured compiler") {
		t.Errorf("err = %v", err)
	}
	// Compiler propagates to built dependencies.
	cmake := got.FindDep("cmake")
	if cmake.Compiler == nil || cmake.Compiler.Name != "gcc" ||
		!cmake.Compiler.Versions.Contains(spec.NewVersion("10.3.1")) {
		t.Errorf("cmake compiler = %v", cmake.Compiler)
	}
}

func TestVersionPreference(t *testing.T) {
	cfg := testConfig(t)
	cfg.VersionPrefs["cmake"] = "3.20.6"
	c := New(pkgrepo.Builtin(), cfg)
	got, err := c.Concretize(spec.MustParse("adiak"))
	if err != nil {
		t.Fatal(err)
	}
	cmake := got.FindDep("cmake")
	if cmake.ConcreteVersion().String() != "3.20.6" {
		t.Errorf("cmake = %s, want preferred 3.20.6", cmake.ConcreteVersion())
	}
	// An explicit user constraint overrides the preference.
	got2, err := c.Concretize(spec.MustParse("adiak ^cmake@3.23.1"))
	if err != nil {
		t.Fatal(err)
	}
	if got2.FindDep("cmake").ConcreteVersion().String() != "3.23.1" {
		t.Error("user constraint should beat preference")
	}
}

func TestVariantPreference(t *testing.T) {
	cfg := testConfig(t)
	cfg.VariantPrefs["hypre"] = "+openmp"
	c := New(pkgrepo.Builtin(), cfg)
	got, err := c.Concretize(spec.MustParse("amg2023"))
	if err != nil {
		t.Fatal(err)
	}
	hypre := got.FindDep("hypre")
	if !hypre.Variants["openmp"].Bool {
		t.Error("variant preference not applied")
	}
}

func TestNotBuildableRequiresExternal(t *testing.T) {
	cfg := testConfig(t)
	cfg.NotBuildable["cmake"] = true // no cmake external configured
	c := New(pkgrepo.Builtin(), cfg)
	_, err := c.Concretize(spec.MustParse("saxpy"))
	if err == nil || !strings.Contains(err.Error(), "not buildable") {
		t.Errorf("err = %v", err)
	}
}

func TestVirtualNotBuildable(t *testing.T) {
	cfg := testConfig(t)
	cfg.NotBuildable["mpi"] = true
	c := New(pkgrepo.Builtin(), cfg)
	got, err := c.Concretize(spec.MustParse("saxpy"))
	if err != nil {
		t.Fatal(err)
	}
	mv := got.FindDep("mvapich2")
	if mv == nil || mv.External == "" {
		t.Error("mpi must resolve to the external provider")
	}

	// Remove the external: now it must fail.
	cfg2 := testConfig(t)
	cfg2.NotBuildable["mpi"] = true
	cfg2.Externals = map[string][]External{}
	c2 := New(pkgrepo.Builtin(), cfg2)
	if _, err := c2.Concretize(spec.MustParse("saxpy")); err == nil {
		t.Error("unbuildable virtual without external should fail")
	}
}

func TestDAGWideUserConstraint(t *testing.T) {
	c := newC(t)
	// ^cmake@3.20.6 must constrain cmake even though it is a transitive
	// dependency (via adiak via caliper).
	got, err := c.Concretize(spec.MustParse("amg2023+caliper ^cmake@3.20.6"))
	if err != nil {
		t.Fatal(err)
	}
	cmake := got.FindDep("cmake")
	if cmake.ConcreteVersion().String() != "3.20.6" {
		t.Errorf("cmake = %s, want 3.20.6", cmake.ConcreteVersion())
	}
}

func TestUnifiedConcretization(t *testing.T) {
	cfg := testConfig(t)
	cfg.ReuseFromContext = true
	c := New(pkgrepo.Builtin(), cfg)
	roots, err := c.ConcretizeTogether([]*spec.Spec{
		spec.MustParse("saxpy"),
		spec.MustParse("amg2023+caliper"),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Shared packages must be the SAME node (one install).
	saxpyMPI := roots[0].FindDep("mvapich2")
	amgMPI := roots[1].FindDep("mvapich2")
	if saxpyMPI != amgMPI {
		t.Error("unify: true must share the mpi node")
	}
	saxpyCmake := roots[0].FindDep("cmake")
	amgCmake := roots[1].FindDep("cmake")
	if saxpyCmake != amgCmake {
		t.Error("unify: true must share the cmake node")
	}
}

func TestUnifiedConflictAcrossRoots(t *testing.T) {
	cfg := testConfig(t)
	cfg.ReuseFromContext = true
	c := New(pkgrepo.Builtin(), cfg)
	_, err := c.ConcretizeTogether([]*spec.Spec{
		spec.MustParse("adiak ^cmake@3.23.1"),
		spec.MustParse("caliper ^cmake@3.20.6"),
	})
	if err == nil {
		t.Error("conflicting cmake pins across unified roots should fail")
	}
}

func TestIndependentConcretization(t *testing.T) {
	cfg := testConfig(t)
	cfg.ReuseFromContext = false
	c := New(pkgrepo.Builtin(), cfg)
	roots, err := c.ConcretizeTogether([]*spec.Spec{
		spec.MustParse("adiak ^cmake@3.23.1"),
		spec.MustParse("caliper ^cmake@3.20.6"),
	})
	if err != nil {
		t.Fatal(err)
	}
	v1 := roots[0].FindDep("cmake").ConcreteVersion().String()
	v2 := roots[1].FindDep("cmake").ConcreteVersion().String()
	if v1 != "3.23.1" || v2 != "3.20.6" {
		t.Errorf("independent solves: cmake = %s, %s", v1, v2)
	}
}

func TestDeterminism(t *testing.T) {
	c := newC(t)
	a, err := c.Concretize(spec.MustParse("amg2023+caliper"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		b, err := c.Concretize(spec.MustParse("amg2023+caliper"))
		if err != nil {
			t.Fatal(err)
		}
		if a.DAGHash() != b.DAGHash() {
			t.Fatalf("non-deterministic concretization:\n%s\nvs\n%s", a, b)
		}
	}
}

func TestLoadPackagesYAMLFigure4(t *testing.T) {
	cfg := NewConfig()
	err := cfg.LoadPackagesYAML(`
packages:
  blas:
    externals:
    - spec: intel-oneapi-mkl@2022.1.0
      prefix: /path/to/intel-oneapi-mkl
    buildable: false
  mpi:
    externals:
    - spec: mvapich2@2.3.7
      prefix: /path/to/mvapich2
    buildable: false
  all:
    compiler: [gcc@12.1.1]
    target: [broadwell]
`)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.DefaultCompiler != "gcc@12.1.1" || cfg.Target != "broadwell" {
		t.Errorf("all: section not applied: %q %q", cfg.DefaultCompiler, cfg.Target)
	}
	if !cfg.NotBuildable["blas"] || !cfg.NotBuildable["mpi"] {
		t.Error("buildable: false not recorded")
	}
	if len(cfg.Externals["intel-oneapi-mkl"]) != 1 || len(cfg.Externals["mvapich2"]) != 1 {
		t.Errorf("externals = %v", cfg.Externals)
	}
	if cfg.Externals["mvapich2"][0].Prefix != "/path/to/mvapich2" {
		t.Error("prefix lost")
	}
}

func TestLoadCompilersYAML(t *testing.T) {
	cfg := NewConfig()
	err := cfg.LoadCompilersYAML(`
compilers:
- compiler:
    spec: gcc@12.1.1
    prefix: /usr/tce/gcc-12.1.1
- compiler:
    spec: intel-oneapi-compilers@2021.6.0
    prefix: /usr/tce/intel
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Compilers) != 2 {
		t.Fatalf("compilers = %v", cfg.Compilers)
	}
	def, err := cfg.FindCompiler(&spec.Compiler{Name: "gcc"})
	if err != nil || def.Version.String() != "12.1.1" {
		t.Errorf("FindCompiler = %v, %v", def, err)
	}
}

func TestExternalNotUsedWhenIncompatible(t *testing.T) {
	cfg := testConfig(t)
	c := New(pkgrepo.Builtin(), cfg)
	// Request a different mvapich2 version than the external provides:
	// the concretizer must build from source instead.
	got, err := c.Concretize(spec.MustParse("mvapich2@2.3.6"))
	if err != nil {
		t.Fatal(err)
	}
	if got.External != "" {
		t.Error("incompatible external must not be used")
	}
	if got.ConcreteVersion().String() != "2.3.6" {
		t.Errorf("version = %s", got.ConcreteVersion())
	}
}

func TestCircularDependencyDetected(t *testing.T) {
	repo := pkgrepo.NewRepo()
	a := pkgrepo.NewPackage("aaa").AddVersion("1").DependsOn("bbb", pkgrepo.LinkDep)
	b := pkgrepo.NewPackage("bbb").AddVersion("1").DependsOn("aaa", pkgrepo.LinkDep)
	if err := repo.AddScope("t", a, b); err != nil {
		t.Fatal(err)
	}
	cfg := NewConfig()
	if err := cfg.AddCompiler("gcc@12.1.1", "/usr"); err != nil {
		t.Fatal(err)
	}
	c := New(repo, cfg)
	_, err := c.Concretize(spec.MustParse("aaa"))
	if err == nil || !strings.Contains(err.Error(), "circular") {
		t.Errorf("err = %v", err)
	}
}

func TestTargetValidation(t *testing.T) {
	cfg := testConfig(t)
	cfg.Target = "not-a-real-target"
	c := New(pkgrepo.Builtin(), cfg)
	if _, err := c.Concretize(spec.MustParse("zlib")); err == nil {
		t.Error("invalid target should fail")
	}
}

// TestConcretizePetscDeepDAG exercises a deep diamond-heavy DAG:
// petsc -> hypre/parmetis -> metis/blas/mpi with unification.
func TestConcretizePetscDeepDAG(t *testing.T) {
	c := newC(t)
	got, err := c.Concretize(spec.MustParse("petsc+hypre+metis"))
	if err != nil {
		t.Fatal(err)
	}
	for _, dep := range []string{"hypre", "parmetis", "metis", "python", "cmake", "mvapich2", "intel-oneapi-mkl"} {
		if got.FindDep(dep) == nil {
			t.Errorf("petsc DAG missing %s:\n%s", dep, spec.FormatTree(got))
		}
	}
	// Unification: exactly one cmake node in the whole DAG.
	count := 0
	got.Traverse(func(n *spec.Spec) {
		if n.Name == "cmake" {
			count++
		}
	})
	if count != 1 {
		t.Errorf("cmake nodes = %d, want 1 (unified)", count)
	}
	// ~metis drops the partitioning chain.
	got2, err := c.Concretize(spec.MustParse("petsc~metis"))
	if err != nil {
		t.Fatal(err)
	}
	if got2.FindDep("parmetis") != nil || got2.FindDep("metis") != nil {
		t.Error("~metis must not pull partitioners")
	}
}

func TestConcretizeKokkosBackendConflict(t *testing.T) {
	c := newC(t)
	if _, err := c.Concretize(spec.MustParse("kokkos+cuda+rocm")); err == nil {
		t.Error("kokkos with two device backends must conflict")
	}
}

// TestReuseInstalled: `--reuse` prefers an already-installed older
// configuration over re-deriving the newest one.
func TestReuseInstalled(t *testing.T) {
	c := newC(t)
	// A site previously installed cmake 3.22.2.
	old, err := c.Concretize(spec.MustParse("cmake@3.22.2"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t)
	cfg.ReuseInstalled = []*spec.Spec{old}
	reuser := New(pkgrepo.Builtin(), cfg)

	// adiak needs cmake@3.20: — the installed 3.22.2 satisfies it, so
	// reuse wins over the newest 3.23.1.
	got, err := reuser.Concretize(spec.MustParse("adiak"))
	if err != nil {
		t.Fatal(err)
	}
	cmake := got.FindDep("cmake")
	if cmake.ConcreteVersion().String() != "3.22.2" {
		t.Errorf("cmake = %s, want reused 3.22.2", cmake.ConcreteVersion())
	}
	if cmake.DAGHash() != old.DAGHash() {
		t.Error("reused node should be hash-identical to the installed one")
	}

	// An explicit user pin past the installed version still rebuilds.
	got2, err := reuser.Concretize(spec.MustParse("adiak ^cmake@3.23.1"))
	if err != nil {
		t.Fatal(err)
	}
	if got2.FindDep("cmake").ConcreteVersion().String() != "3.23.1" {
		t.Error("explicit constraint must override reuse")
	}

	// Without reuse, the newest version is chosen.
	plain, err := newC(t).Concretize(spec.MustParse("adiak"))
	if err != nil {
		t.Fatal(err)
	}
	if plain.FindDep("cmake").ConcreteVersion().String() != "3.23.1" {
		t.Errorf("fresh concretization = %s", plain.FindDep("cmake").ConcreteVersion())
	}
}

// TestReuseInstalledSubtree: reusing a spec registers its whole
// dependency subtree for unification.
func TestReuseInstalledSubtree(t *testing.T) {
	c := newC(t)
	oldCaliper, err := c.Concretize(spec.MustParse("caliper ^cmake@3.22.2"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t)
	cfg.ReuseInstalled = []*spec.Spec{oldCaliper}
	cfg.ReuseFromContext = true
	reuser := New(pkgrepo.Builtin(), cfg)
	got, err := reuser.Concretize(spec.MustParse("amg2023+caliper"))
	if err != nil {
		t.Fatal(err)
	}
	// The reused caliper subtree's cmake must be shared with the rest
	// of the DAG.
	if got.FindDep("caliper").DAGHash() != oldCaliper.DAGHash() {
		t.Error("caliper not reused")
	}
	count := 0
	got.Traverse(func(n *spec.Spec) {
		if n.Name == "cmake" {
			count++
			if n.ConcreteVersion().String() != "3.22.2" {
				t.Errorf("cmake = %s", n.ConcreteVersion())
			}
		}
	})
	if count != 1 {
		t.Errorf("cmake nodes = %d", count)
	}
}
