package pkgrepo

import (
	"strings"
	"testing"

	"repro/internal/spec"
)

func TestBuiltinLoads(t *testing.T) {
	r := Builtin()
	names := r.Names()
	if len(names) < 25 {
		t.Errorf("builtin repo has only %d packages: %v", len(names), names)
	}
	// Every paper-relevant package must be present.
	for _, want := range []string{"saxpy", "amg2023", "hypre", "caliper", "adiak",
		"mvapich2", "intel-oneapi-mkl", "cmake", "gcc", "cuda", "rocm",
		"osu-micro-benchmarks", "stream"} {
		if _, err := r.Get(want); err != nil {
			t.Errorf("builtin missing %s", want)
		}
	}
}

func TestVersionsSortedNewestFirst(t *testing.T) {
	r := Builtin()
	gcc, err := r.Get("gcc")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(gcc.Versions); i++ {
		if gcc.Versions[i-1].Version.Compare(gcc.Versions[i].Version) <= 0 {
			t.Errorf("versions not sorted: %v before %v",
				gcc.Versions[i-1].Version, gcc.Versions[i].Version)
		}
	}
}

func TestBestVersion(t *testing.T) {
	r := Builtin()
	cmake, _ := r.Get("cmake")

	v, err := cmake.BestVersion(spec.VersionList{})
	if err != nil || v.String() != "3.23.1" {
		t.Errorf("unconstrained best = %v, %v", v, err)
	}

	vl, _ := spec.ParseVersionList("3.20:3.22")
	v, err = cmake.BestVersion(vl)
	if err != nil || v.String() != "3.22.2" {
		t.Errorf("constrained best = %v, %v", v, err)
	}

	vl, _ = spec.ParseVersionList("4.0:")
	if _, err := cmake.BestVersion(vl); err == nil {
		t.Error("impossible constraint should error")
	}
}

func TestBestVersionSkipsDeprecated(t *testing.T) {
	r := Builtin()
	ompi, _ := r.Get("openmpi")
	v, err := ompi.BestVersion(spec.VersionList{})
	if err != nil || v.String() == "3.1.6" {
		t.Errorf("deprecated version chosen: %v %v", v, err)
	}
	// Explicit request still allows it.
	vl, _ := spec.ParseVersionList("3.1.6")
	v, err = ompi.BestVersion(vl)
	if err != nil || v.String() != "3.1.6" {
		t.Errorf("explicit deprecated = %v, %v", v, err)
	}
}

func TestVirtualProviders(t *testing.T) {
	r := Builtin()
	if !r.IsVirtual("mpi") || !r.IsVirtual("blas") {
		t.Error("mpi/blas should be virtual")
	}
	if r.IsVirtual("mvapich2") {
		t.Error("mvapich2 is not virtual")
	}
	mpis := r.Providers("mpi")
	want := map[string]bool{"mvapich2": true, "openmpi": true, "spectrum-mpi": true, "cray-mpich": true}
	for _, m := range mpis {
		if !want[m] {
			t.Errorf("unexpected mpi provider %s", m)
		}
		delete(want, m)
	}
	if len(want) > 0 {
		t.Errorf("missing mpi providers: %v", want)
	}
	blasProviders := r.Providers("blas")
	if len(blasProviders) < 3 {
		t.Errorf("blas providers = %v", blasProviders)
	}
}

func TestConditionalDependencies(t *testing.T) {
	r := Builtin()
	saxpy, _ := r.Get("saxpy")
	var condCuda *Dependency
	for i := range saxpy.Dependencies {
		d := &saxpy.Dependencies[i]
		if d.Spec.Name == "cuda" {
			condCuda = d
		}
	}
	if condCuda == nil || condCuda.When == nil {
		t.Fatal("saxpy's cuda dependency should be conditional")
	}
	withCuda := spec.MustParse("saxpy@1.0.0+cuda")
	without := spec.MustParse("saxpy@1.0.0~cuda")
	if !withCuda.Satisfies(condCuda.When) {
		t.Error("+cuda should activate the cuda dependency")
	}
	if without.Satisfies(condCuda.When) {
		t.Error("~cuda should not activate the cuda dependency")
	}
}

func TestConflictDeclaration(t *testing.T) {
	r := Builtin()
	amg, _ := r.Get("amg2023")
	if len(amg.Conflicts) == 0 {
		t.Fatal("amg2023 should declare a cuda/rocm conflict")
	}
	c := amg.Conflicts[0]
	both := spec.MustParse("amg2023+cuda+rocm")
	if !both.Satisfies(c.Spec) || !both.Satisfies(c.When) {
		t.Error("+cuda+rocm should trigger the conflict")
	}
	one := spec.MustParse("amg2023+cuda~rocm")
	if one.Satisfies(c.Spec) && one.Satisfies(c.When) {
		t.Error("+cuda alone must not trigger the conflict")
	}
}

func TestConfigArgsFigure11(t *testing.T) {
	r := Builtin()
	saxpy, _ := r.Get("saxpy")
	if saxpy.ConfigArgs == nil {
		t.Fatal("saxpy must have cmake args")
	}
	s := spec.MustParse("saxpy@1.0.0+openmp~cuda~rocm target=broadwell")
	args := strings.Join(saxpy.ConfigArgs(s), " ")
	if !strings.Contains(args, "-DUSE_OPENMP=ON") {
		t.Errorf("args = %q, want USE_OPENMP", args)
	}
	if strings.Contains(args, "USE_CUDA") || strings.Contains(args, "USE_HIP") {
		t.Errorf("args = %q: GPU flags must be off", args)
	}
	s2 := spec.MustParse("saxpy@1.0.0+cuda~openmp~rocm")
	args2 := strings.Join(saxpy.ConfigArgs(s2), " ")
	if !strings.Contains(args2, "-DUSE_CUDA=ON") {
		t.Errorf("args2 = %q", args2)
	}
}

// TestBuiltinReposIsolated: Builtin() repos may share one finalized
// set of recipes, but each has its own scope list, so one repo's
// extra scope never shows in a sibling or a later repo.
func TestBuiltinReposIsolated(t *testing.T) {
	a, b := Builtin(), Builtin()
	if err := a.AddScope("site", NewPackage("site-only").AddVersion("1")); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Get("site-only"); err != nil {
		t.Error("scope not visible on the repo it was added to")
	}
	for name, r := range map[string]*Repo{"sibling": b, "later": Builtin()} {
		if _, err := r.Get("site-only"); err == nil {
			t.Errorf("%s repo sees another repo's scope", name)
		}
		if len(r.Names()) != len(b.Names()) {
			t.Errorf("%s repo lists %d packages, want %d", name, len(r.Names()), len(b.Names()))
		}
	}
}

func TestScopeValidation(t *testing.T) {
	r := NewRepo()
	bad := NewPackage("") // no name
	if err := r.AddScope("s", bad); err == nil {
		t.Error("empty name should fail finalize")
	}
	noVersions := NewPackage("thing")
	if err := r.AddScope("s", noVersions); err == nil {
		t.Error("no versions should fail finalize")
	}
	if err := r.AddScope("s", NewPackage("a").AddVersion("1"), NewPackage("a").AddVersion("2")); err == nil {
		t.Error("duplicate in one scope should fail")
	}
}

func TestGetUnknown(t *testing.T) {
	r := Builtin()
	if _, err := r.Get("not-a-package"); err == nil {
		t.Error("unknown package should error")
	}
}

func TestCompilersMarked(t *testing.T) {
	r := Builtin()
	for _, name := range []string{"gcc", "clang", "intel-oneapi-compilers", "xl"} {
		p, err := r.Get(name)
		if err != nil || !p.IsCompiler {
			t.Errorf("%s should be a compiler (err=%v)", name, err)
		}
	}
	p, _ := r.Get("cmake")
	if p.IsCompiler {
		t.Error("cmake is not a compiler")
	}
}

func TestDepTypeString(t *testing.T) {
	if BuildDep.String() != "build" || LinkDep.String() != "link" || RunDep.String() != "run" {
		t.Error("DepType strings wrong")
	}
}
