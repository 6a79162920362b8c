package pkgrepo

import (
	"fmt"
	"sync"

	"repro/internal/spec"
)

// Builtin returns the upstream package repository: compilers, MPI and
// math libraries, build tools, GPU runtimes, performance tools, and
// the Benchpark benchmarks of Section 4 (saxpy, AMG2023) plus the
// additional proxy benchmarks the suite runs continuously.
//
// Every call returns its own Repo, so a scope added to one
// is invisible to the next. The builtin recipes themselves are
// finalized once and shared read-only between repos for as long as
// callers keep coming: builtinScopes is a pool rather than a
// sync.OnceValue so that an idle process does not hold the ~80 kB scope
// forever — the GC empties the pool and the next call rebuilds it.
func Builtin() *Repo {
	scope, ok := builtinScopes.Get().(map[string]*Package)
	if !ok {
		r := NewRepo()
		if err := r.AddScope("builtin", builtinPackages()...); err != nil {
			// The builtin repo is static; a failure here is a programming error.
			panic(err)
		}
		scope = r.scopes[0]
	}
	// Nothing writes a finalized scope, so it goes straight back for the
	// next caller while this one reads it.
	builtinScopes.Put(scope)
	return &Repo{scopes: []map[string]*Package{scope}}
}

var builtinScopes sync.Pool

func builtinPackages() []*Package {
	var pkgs []*Package
	add := func(p *Package) *Package {
		pkgs = append(pkgs, p)
		return p
	}

	// ---- compilers -----------------------------------------------------
	add(NewPackage("gcc").
		AddVersion("12.1.1").AddVersion("11.2.0").AddVersion("10.3.1").AddVersion("9.4.0").
		Compiler().WithBuild("autotools", 900)).
		Description = "The GNU Compiler Collection"
	add(NewPackage("clang").
		AddVersion("15.0.0").AddVersion("14.0.6").
		Compiler().WithBuild("cmake", 1200)).
		Description = "The LLVM C/C++ compiler"
	add(NewPackage("intel-oneapi-compilers").
		AddVersion("2022.1.0").AddVersion("2021.6.0").
		Compiler().WithBuild("bundle", 60)).
		Description = "Intel oneAPI compilers (icx/ifx and classic)"
	add(NewPackage("xl").
		AddVersion("16.1.1").
		Compiler().WithBuild("bundle", 60)).
		Description = "IBM XL compilers for POWER"
	add(NewPackage("rocmcc").
		AddVersion("5.2.0").AddVersion("5.1.0").
		Compiler().WithBuild("bundle", 120)).
		Description = "AMD ROCm compiler (amdclang)"

	// ---- virtual interfaces ---------------------------------------------
	mpi := add(NewPackage("mpi"))
	mpi.Virtual = true
	mpi.Description = "The Message Passing Interface (virtual)"
	blas := add(NewPackage("blas"))
	blas.Virtual = true
	blas.Description = "Basic Linear Algebra Subprograms (virtual)"
	lapack := add(NewPackage("lapack"))
	lapack.Virtual = true
	lapack.Description = "Linear Algebra PACKage (virtual)"

	// ---- MPI implementations ---------------------------------------------
	add(NewPackage("mvapich2").
		AddVersion("2.3.7").AddVersion("2.3.6").
		ProvidesVirtual("mpi").
		BoolVariant("cuda", false, "CUDA-aware transport").
		DependsOn("hwloc", LinkDep).
		DependsOnWhen("cuda", "+cuda", LinkDep).
		WithBuild("autotools", 600)).
		Description = "MVAPICH2 MPI over InfiniBand"
	add(NewPackage("openmpi").
		AddVersion("4.1.4").AddVersion("4.1.2").AddDeprecatedVersion("3.1.6").
		ProvidesVirtual("mpi").
		BoolVariant("cuda", false, "CUDA-aware transport").
		DependsOn("hwloc", LinkDep).
		DependsOn("libfabric", LinkDep).
		DependsOnWhen("cuda", "+cuda", LinkDep).
		WithBuild("autotools", 700)).
		Description = "Open MPI"
	add(NewPackage("spectrum-mpi").
		AddVersion("10.4.0").
		ProvidesVirtual("mpi").
		BoolVariant("cuda", true, "CUDA-aware transport").
		DependsOnWhen("cuda", "+cuda", LinkDep).
		WithBuild("bundle", 60)).
		Description = "IBM Spectrum MPI for CORAL systems"
	add(NewPackage("cray-mpich").
		AddVersion("8.1.16").
		ProvidesVirtual("mpi").
		BoolVariant("rocm", false, "GPU-aware transport").
		WithBuild("bundle", 60)).
		Description = "HPE Cray MPICH"

	// ---- math libraries ---------------------------------------------------
	add(NewPackage("openblas").
		AddVersion("0.3.20").AddVersion("0.3.18").
		ProvidesVirtual("blas").ProvidesVirtual("lapack").
		BoolVariant("threads", true, "build threaded kernels").
		WithBuild("makefile", 300)).
		Description = "OpenBLAS: optimized BLAS/LAPACK"
	add(NewPackage("intel-oneapi-mkl").
		AddVersion("2022.1.0").AddVersion("2021.4.0").
		ProvidesVirtual("blas").ProvidesVirtual("lapack").
		WithBuild("bundle", 120)).
		Description = "Intel oneAPI Math Kernel Library"
	add(NewPackage("essl").
		AddVersion("6.3.0").
		ProvidesVirtual("blas").
		ProvidesVirtual("lapack"). // ESSL ships the LAPACK subset CORAL systems rely on
		WithBuild("bundle", 60)).
		Description = "IBM Engineering and Scientific Subroutine Library"

	// ---- build tools & utility libs ---------------------------------------
	add(NewPackage("cmake").
		AddVersion("3.23.1").AddVersion("3.22.2").AddVersion("3.20.6").
		DependsOn("zlib", LinkDep).
		WithBuild("autotools", 400)).
		Description = "Cross-platform build-system generator"
	add(NewPackage("python").
		AddVersion("3.10.4").AddVersion("3.9.12").
		DependsOn("zlib", LinkDep).
		WithBuild("autotools", 500)).
		Description = "The Python interpreter"
	add(NewPackage("ninja").
		AddVersion("1.11.0").
		WithBuild("cmake", 60)).
		Description = "Small fast build system"
	add(NewPackage("zlib").
		AddVersion("1.2.12").AddVersion("1.2.11").
		WithBuild("autotools", 30)).
		Description = "Lossless data-compression library"
	add(NewPackage("hwloc").
		AddVersion("2.7.1").AddVersion("2.6.0").
		WithBuild("autotools", 120)).
		Description = "Hardware locality detection"
	add(NewPackage("libfabric").
		AddVersion("1.15.1").
		WithBuild("autotools", 180)).
		Description = "Open Fabrics Interfaces user-space library"
	add(NewPackage("numactl").
		AddVersion("2.0.14").
		WithBuild("autotools", 40)).
		Description = "NUMA policy control"
	add(NewPackage("papi").
		AddVersion("6.0.0.1").
		WithBuild("autotools", 200)).
		Description = "Performance Application Programming Interface"

	// ---- GPU runtimes ------------------------------------------------------
	add(NewPackage("cuda").
		AddVersion("11.7.0").AddVersion("11.4.2").AddVersion("10.2.89").
		WithBuild("bundle", 300)).
		Description = "NVIDIA CUDA toolkit"
	add(NewPackage("rocm").
		AddVersion("5.2.0").AddVersion("5.1.0").
		WithBuild("bundle", 300)).
		Description = "AMD ROCm GPU computing platform (HIP)"

	// ---- performance tools --------------------------------------------------
	add(NewPackage("adiak").
		AddVersion("0.4.0").AddVersion("0.2.2").
		DependsOn("cmake@3.20:", BuildDep).
		WithBuild("cmake", 90)).
		Description = "Run-metadata collection library"
	caliper := add(NewPackage("caliper").
		AddVersion("2.9.0").AddVersion("2.8.0").
		BoolVariant("adiak", true, "metadata via Adiak").
		BoolVariant("papi", false, "hardware counters via PAPI").
		DependsOn("cmake@3.20:", BuildDep).
		DependsOnWhen("adiak@0.4:", "+adiak", LinkDep).
		DependsOnWhen("papi", "+papi", LinkDep).
		WithBuild("cmake", 240))
	caliper.Description = "Caliper: performance introspection for HPC stacks"

	// ---- solvers --------------------------------------------------------------
	hypre := add(NewPackage("hypre").
		AddVersion("2.28.0").AddVersion("2.25.0").
		BoolVariant("mpi", true, "parallel solvers").
		BoolVariant("openmp", false, "OpenMP threading").
		BoolVariant("cuda", false, "NVIDIA GPU solve").
		BoolVariant("rocm", false, "AMD GPU solve").
		DependsOn("blas", LinkDep).
		DependsOn("lapack", LinkDep).
		DependsOnWhen("mpi", "+mpi", LinkDep).
		DependsOnWhen("cuda@11:", "+cuda", LinkDep).
		DependsOnWhen("rocm", "+rocm", LinkDep).
		ConflictsWith("+cuda", "+rocm", "hypre cannot target two GPU runtimes").
		WithBuild("autotools", 420))
	hypre.Description = "HYPRE: scalable linear solvers and multigrid"

	// ---- solver / portability ecosystem ------------------------------------------
	add(NewPackage("metis").
		AddVersion("5.1.0").
		DependsOn("cmake@3.20:", BuildDep).
		WithBuild("cmake", 90)).
		Description = "Serial graph partitioning"
	add(NewPackage("parmetis").
		AddVersion("4.0.3").
		DependsOn("metis@5:", LinkDep).
		DependsOn("mpi", LinkDep).
		DependsOn("cmake@3.20:", BuildDep).
		WithBuild("cmake", 150)).
		Description = "Parallel graph partitioning"
	petsc := add(NewPackage("petsc").
		AddVersion("3.17.2").AddVersion("3.16.6").
		BoolVariant("hypre", true, "enable hypre preconditioners").
		BoolVariant("metis", true, "enable (par)metis ordering").
		BoolVariant("cuda", false, "NVIDIA GPU backends").
		DependsOn("mpi", LinkDep).
		DependsOn("blas", LinkDep).
		DependsOn("lapack", LinkDep).
		DependsOn("python", BuildDep).
		DependsOnWhen("hypre@2.25:", "+hypre", LinkDep).
		DependsOnWhen("parmetis", "+metis", LinkDep).
		DependsOnWhen("cuda@11:", "+cuda", LinkDep).
		WithBuild("autotools", 900))
	petsc.Description = "Portable Extensible Toolkit for Scientific Computation"

	add(NewPackage("kokkos").
		AddVersion("3.6.01").AddVersion("3.5.00").
		BoolVariant("openmp", true, "host OpenMP backend").
		BoolVariant("cuda", false, "CUDA backend").
		BoolVariant("rocm", false, "HIP backend").
		DependsOn("cmake@3.20:", BuildDep).
		DependsOnWhen("cuda@11:", "+cuda", LinkDep).
		DependsOnWhen("rocm", "+rocm", LinkDep).
		ConflictsWith("+cuda", "+rocm", "pick one device backend").
		WithBuild("cmake", 300)).
		Description = "Kokkos performance-portability programming model"
	add(NewPackage("raja").
		AddVersion("2022.03.0").
		BoolVariant("openmp", true, "OpenMP backend").
		DependsOn("cmake@3.20:", BuildDep).
		WithBuild("cmake", 240)).
		Description = "RAJA loop-abstraction library"
	add(NewPackage("umpire").
		AddVersion("2022.03.1").
		DependsOn("cmake@3.20:", BuildDep).
		WithBuild("cmake", 180)).
		Description = "Umpire memory-resource manager"

	// ---- Benchpark benchmarks ---------------------------------------------------
	saxpy := add(NewPackage("saxpy").
		AddVersion("1.0.0").
		BoolVariant("openmp", true, "OpenMP kernel").
		BoolVariant("cuda", false, "CUDA kernel").
		BoolVariant("rocm", false, "HIP kernel").
		DependsOn("cmake@3.23.1:", BuildDep).
		DependsOn("mpi", LinkDep).
		DependsOnWhen("cuda", "+cuda", LinkDep).
		DependsOnWhen("rocm", "+rocm", LinkDep).
		ConflictsWith("+cuda", "+rocm", "pick one GPU runtime").
		WithBuild("cmake", 45))
	saxpy.Description = "Test saxpy problem (Figure 7 of the paper)"
	saxpy.ConfigArgs = cmakeGPUArgs

	amg := add(NewPackage("amg2023").
		AddVersion("1.0").
		BoolVariant("caliper", false, "annotate with Caliper").
		BoolVariant("openmp", false, "OpenMP within ranks").
		BoolVariant("cuda", false, "CUDA solve").
		BoolVariant("rocm", false, "HIP solve").
		DependsOn("cmake@3.20:", BuildDep).
		DependsOn("mpi", LinkDep).
		DependsOn("hypre@2.25:", LinkDep).
		DependsOnWhen("caliper+adiak", "+caliper", LinkDep).
		DependsOnWhen("hypre+cuda", "+cuda", LinkDep).
		DependsOnWhen("hypre+rocm", "+rocm", LinkDep).
		DependsOnWhen("cuda@11:", "+cuda", LinkDep).
		DependsOnWhen("rocm", "+rocm", LinkDep).
		ConflictsWith("+cuda", "+rocm", "pick one GPU runtime").
		WithBuild("cmake", 180))
	amg.Description = "AMG2023: parallel algebraic multigrid benchmark on hypre"
	amg.ConfigArgs = cmakeGPUArgs

	add(NewPackage("stream").
		AddVersion("5.10").
		BoolVariant("openmp", true, "OpenMP threading").
		WithBuild("makefile", 15)).
		Description = "STREAM: sustained memory-bandwidth benchmark"

	add(NewPackage("osu-micro-benchmarks").
		AddVersion("6.1").AddVersion("5.9").
		BoolVariant("cuda", false, "device buffers").
		DependsOn("mpi", LinkDep).
		DependsOnWhen("cuda", "+cuda", LinkDep).
		WithBuild("autotools", 120)).
		Description = "OSU micro-benchmarks: MPI latency/bandwidth/collectives"

	add(NewPackage("hpcg").
		AddVersion("3.1").
		BoolVariant("openmp", true, "OpenMP threading").
		DependsOn("mpi", LinkDep).
		WithBuild("makefile", 60)).
		Description = "High Performance Conjugate Gradients benchmark"

	add(NewPackage("lulesh").
		AddVersion("2.0.3").
		BoolVariant("openmp", true, "OpenMP threading").
		DependsOn("mpi", LinkDep).
		DependsOn("cmake@3.20:", BuildDep).
		WithBuild("cmake", 75)).
		Description = "LULESH shock-hydro proxy application"

	return pkgs
}

// cmakeGPUArgs mirrors Figure 11's cmake_args: map variants to
// -DUSE_* definitions.
func cmakeGPUArgs(s *spec.Spec) []string {
	var args []string
	for _, v := range []struct{ variant, def string }{
		{"openmp", "-DUSE_OPENMP=ON"},
		{"cuda", "-DUSE_CUDA=ON"},
		{"rocm", "-DUSE_HIP=ON"},
		{"caliper", "-DUSE_CALIPER=ON"},
	} {
		if val, ok := s.Variants[v.variant]; ok && val.IsBool && val.Bool {
			args = append(args, v.def)
		}
	}
	if s.Target != "" {
		args = append(args, fmt.Sprintf("-DCMAKE_SYSTEM_PROCESSOR=%s", s.Target))
	}
	return args
}
