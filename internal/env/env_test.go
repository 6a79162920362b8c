package env

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cachekey"
	"repro/internal/concretizer"
	"repro/internal/install"
	"repro/internal/pkgrepo"
	"repro/internal/spec"
)

func ctsConcretizer(t *testing.T) *concretizer.Concretizer {
	t.Helper()
	cfg := concretizer.NewConfig()
	cfg.Platform = "linux"
	cfg.Target = "broadwell"
	cfg.DefaultCompiler = "gcc@12.1.1"
	if err := cfg.AddCompiler("gcc@12.1.1", "/usr/tce/gcc"); err != nil {
		t.Fatal(err)
	}
	if err := cfg.AddExternal("mvapich2@2.3.7", "/usr/tce/mvapich2"); err != nil {
		t.Fatal(err)
	}
	if err := cfg.AddExternal("intel-oneapi-mkl@2022.1.0", "/opt/intel/mkl"); err != nil {
		t.Fatal(err)
	}
	cfg.ProviderPrefs["mpi"] = []string{"mvapich2"}
	cfg.ProviderPrefs["blas"] = []string{"intel-oneapi-mkl"}
	cfg.ProviderPrefs["lapack"] = []string{"intel-oneapi-mkl"}
	return concretizer.New(pkgrepo.Builtin(), cfg)
}

// TestFigure2Workflow runs the exact Spack environment workflow of
// the paper's Figure 2.
func TestFigure2Workflow(t *testing.T) {
	e := New("figure2") // spack env create / activate
	if err := e.Add("amg2023+caliper"); err != nil {
		t.Fatal(err) // spack add amg2023+caliper
	}
	c := ctsConcretizer(t)
	if err := e.Concretize(c); err != nil {
		t.Fatal(err) // spack concretize
	}
	if !e.IsConcretized() {
		t.Fatal("not concretized")
	}
	inst := install.New(pkgrepo.Builtin())
	rep, err := e.Install(context.Background(), inst) // spack install
	if err != nil {
		t.Fatal(err)
	}
	if rep.Count(install.Built) == 0 {
		t.Error("nothing was built")
	}
	if inst.DB.Len() == 0 {
		t.Error("database empty after install")
	}
}

func TestFromManifestYAMLFigure3(t *testing.T) {
	e, err := FromManifestYAML("fig3", `
spack:
  specs: [amg2023+caliper]
  concretizer:
    unify: true
  view: true
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Specs) != 1 || e.Specs[0].Name != "amg2023" {
		t.Errorf("specs = %v", e.Specs)
	}
	if !e.Unify || !e.View {
		t.Error("unify/view flags wrong")
	}
	if v := e.Specs[0].Variants["caliper"]; !v.Bool {
		t.Error("caliper variant lost")
	}
}

func TestManifestRoundTrip(t *testing.T) {
	e := New("rt")
	if err := e.Add("saxpy@1.0.0+openmp"); err != nil {
		t.Fatal(err)
	}
	e.Unify = false
	out := e.ManifestYAML()
	e2, err := FromManifestYAML("rt2", out)
	if err != nil {
		t.Fatalf("%v in %q", err, out)
	}
	if len(e2.Specs) != 1 || e2.Specs[0].Name != "saxpy" || e2.Unify {
		t.Errorf("round trip: %+v", e2)
	}
}

func TestAddDuplicateRejected(t *testing.T) {
	e := New("dup")
	if err := e.Add("zlib"); err != nil {
		t.Fatal(err)
	}
	if err := e.Add("zlib@1.2.11"); err == nil {
		t.Error("duplicate root should be rejected")
	}
}

func TestUnifySharesNodes(t *testing.T) {
	c := ctsConcretizer(t)

	unified := New("u")
	_ = unified.Add("saxpy")
	_ = unified.Add("amg2023+caliper")
	unified.Unify = true
	if err := unified.Concretize(c); err != nil {
		t.Fatal(err)
	}

	independent := New("i")
	_ = independent.Add("saxpy")
	_ = independent.Add("amg2023+caliper")
	independent.Unify = false
	if err := independent.Concretize(c); err != nil {
		t.Fatal(err)
	}

	// Unified must never need more installs than independent.
	if unified.DistinctInstalls() > independent.DistinctInstalls() {
		t.Errorf("unify=%d > independent=%d", unified.DistinctInstalls(), independent.DistinctInstalls())
	}
	// And the shared node objects must be identical.
	u0 := unified.Roots[0].FindDep("mvapich2")
	u1 := unified.Roots[1].FindDep("mvapich2")
	if u0 == nil || u0 != u1 {
		t.Error("unified roots should share the mvapich2 node")
	}
}

// lockDAG is e's spack.lock, parsed back into its spec.DAG.
func lockDAG(t *testing.T, e *Environment) spec.DAG {
	t.Helper()
	lock, err := e.Lock()
	if err != nil {
		t.Fatal(err)
	}
	var dag spec.DAG
	if err := json.Unmarshal(lock, &dag); err != nil {
		t.Fatal(err)
	}
	return dag
}

func TestLockfile(t *testing.T) {
	c := ctsConcretizer(t)
	e := New("lock")
	_ = e.Add("saxpy@1.0.0+openmp ^cmake@3.23.1")
	if err := e.Concretize(c); err != nil {
		t.Fatal(err)
	}
	lf := lockDAG(t, e)
	if len(lf.Roots) != 1 {
		t.Fatalf("roots = %v", lf.Roots)
	}
	rootNode, ok := lf.Nodes[lf.Roots[0]]
	if !ok || !strings.HasPrefix(rootNode.Node, "saxpy@1.0.0%") {
		t.Errorf("root node = %+v", rootNode)
	}
	names := e.PackageNames()
	joined := strings.Join(names, ",")
	for _, want := range []string{"saxpy", "cmake", "mvapich2", "zlib"} {
		if !strings.Contains(joined, want) {
			t.Errorf("lockfile packages %v missing %s", names, want)
		}
	}
	if len(lf.Nodes) != e.DistinctInstalls() {
		t.Errorf("lockfile holds %d nodes, the DAG %d", len(lf.Nodes), e.DistinctInstalls())
	}
	// Dependencies recorded by hash and resolvable.
	for dn, dh := range rootNode.Deps {
		if _, ok := lf.Nodes[dh]; !ok {
			t.Errorf("dep %s hash %s not in lockfile", dn, dh)
		}
	}
}

func TestLockfileStableAcrossRuns(t *testing.T) {
	c := ctsConcretizer(t)
	render := func() string {
		e := New("stable")
		_ = e.Add("amg2023+caliper")
		if err := e.Concretize(c); err != nil {
			t.Fatal(err)
		}
		lock, err := e.Lock()
		if err != nil {
			t.Fatal(err)
		}
		return string(lock)
	}
	a, b := render(), render()
	if a != b {
		t.Error("lockfile not reproducible across identical runs")
	}
}

func TestConcretizeEmptyEnv(t *testing.T) {
	e := New("empty")
	if err := e.Concretize(ctsConcretizer(t)); err == nil {
		t.Error("empty env should fail to concretize")
	}
}

func TestInstallBeforeConcretize(t *testing.T) {
	e := New("early")
	_ = e.Add("zlib")
	if _, err := e.Install(context.Background(), install.New(pkgrepo.Builtin())); err == nil {
		t.Error("install before concretize should fail")
	}
}

func TestAddInvalidatesConcretization(t *testing.T) {
	c := ctsConcretizer(t)
	e := New("inv")
	_ = e.Add("zlib")
	if err := e.Concretize(c); err != nil {
		t.Fatal(err)
	}
	if err := e.Add("cmake"); err != nil {
		t.Fatal(err)
	}
	if e.IsConcretized() {
		t.Error("adding a spec must invalidate the lock")
	}
}

// TestLockfileReconstructRoundTrip: concretize → lock → JSON →
// decode → identical DAG hashes (functional reproducibility).
func TestLockfileReconstructRoundTrip(t *testing.T) {
	c := ctsConcretizer(t)
	e := New("repro")
	_ = e.Add("amg2023+caliper")
	if err := e.Concretize(c); err != nil {
		t.Fatal(err)
	}
	// The collaborator receives only the JSON.
	roots, err := lockDAG(t, e).Decode(spec.Hasher{})
	if err != nil {
		t.Fatal(err)
	}
	if len(roots) != 1 {
		t.Fatalf("roots = %d", len(roots))
	}
	if roots[0].DAGHash() != e.Roots[0].DAGHash() {
		t.Fatalf("reconstruction hash mismatch:\n orig: %s\n got:  %s",
			e.Roots[0], roots[0])
	}
	// External prefixes survive.
	mkl := roots[0].FindDep("intel-oneapi-mkl")
	if mkl == nil || mkl.External == "" {
		t.Errorf("external lost: %v", mkl)
	}
	// Shared nodes stay shared (one cmake object).
	seen := map[string]int{}
	roots[0].Traverse(func(n *spec.Spec) { seen[n.Name]++ })
	if seen["cmake"] != 1 {
		t.Errorf("cmake visited %d times", seen["cmake"])
	}
}

// TestInstallFromLock reproduces an installation on a second site
// from the lockfile alone, with identical hashes.
func TestInstallFromLock(t *testing.T) {
	c := ctsConcretizer(t)
	e := New("siteA")
	_ = e.Add("saxpy@1.0.0+openmp ^cmake@3.23.1")
	if err := e.Concretize(c); err != nil {
		t.Fatal(err)
	}
	instA := install.New(pkgrepo.Builtin())
	if _, err := e.Install(context.Background(), instA); err != nil {
		t.Fatal(err)
	}
	lock, err := e.Lock()
	if err != nil {
		t.Fatal(err)
	}

	instB := install.New(pkgrepo.Builtin())
	rep, err := InstallFromLock(context.Background(), lock, instB)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Count(install.Built) == 0 {
		t.Error("site B should build the same packages")
	}
	// Both databases hold identical hashes.
	for _, r := range e.Roots {
		if h := r.DAGHash(); !instB.DB.Has(h) {
			t.Errorf("site B missing root %s", h)
		}
	}
}

// TestReconstructRejectsTampering: editing a locked version must fail
// hash verification.
func TestReconstructRejectsTampering(t *testing.T) {
	c := ctsConcretizer(t)
	e := New("tamper")
	_ = e.Add("zlib")
	if err := e.Concretize(c); err != nil {
		t.Fatal(err)
	}
	lock, err := e.Lock()
	if err != nil {
		t.Fatal(err)
	}
	evil := strings.Replace(string(lock), "1.2.12", "1.2.11", -1)
	if evil == string(lock) {
		t.Skip("version string not present to tamper")
	}
	if _, err := InstallFromLock(context.Background(), []byte(evil), install.New(pkgrepo.Builtin())); err == nil {
		t.Error("tampered lockfile must fail integrity verification")
	}
}

// TestReconstructDanglingHash rejects lockfiles with missing nodes.
func TestReconstructDanglingHash(t *testing.T) {
	lock := []byte(`{"nodes": {}, "roots": ["deadbeef"]}`)
	if _, err := InstallFromLock(context.Background(), lock, install.New(pkgrepo.Builtin())); err == nil {
		t.Error("dangling root hash should fail")
	}
}

// TestOldLockfileFailsToDecode: a spack.lock in the schema before the
// stored DAG form (its table under "concrete_specs") installs nothing
// and fails; `spack concretize` writes it anew.
func TestOldLockfileFailsToDecode(t *testing.T) {
	const old = `{
  "roots": [
    "6mmi7rebhxqu7xkvarluifp7ueykuex3"
  ],
  "concrete_specs": {
    "6mmi7rebhxqu7xkvarluifp7ueykuex3": {
      "name": "zlib",
      "version": "1.2.12",
      "spec": "zlib@1.2.12%gcc@12.1.1 target=broadwell platform=linux",
      "hash": "6mmi7rebhxqu7xkvarluifp7ueykuex3"
    }
  }
}`
	inst := install.New(pkgrepo.Builtin())
	_, err := InstallFromLock(context.Background(), []byte(old), inst)
	if err == nil || !strings.Contains(err.Error(), "unknown hash 6mmi7rebhxqu7xkvarluifp7ueykuex3") {
		t.Errorf("old lockfile: err = %v, want its root reported unknown", err)
	}
	if inst.DB.Len() != 0 {
		t.Errorf("old lockfile installed %d records", inst.DB.Len())
	}
}

// TestHasherAgreesWithDAGHashOnSolvedDAGs: on every node of the
// concretised amg2023 and lulesh DAGs, one shared Hasher — asked roots
// first, then leaves first — gives the hash DAGHash computes alone,
// and the lockfile built with it is keyed by those hashes.
func TestHasherAgreesWithDAGHashOnSolvedDAGs(t *testing.T) {
	e := New("hashes")
	for _, s := range []string{"amg2023+caliper", "lulesh"} {
		if err := e.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Concretize(ctsConcretizer(t)); err != nil {
		t.Fatal(err)
	}
	var nodes []*spec.Spec
	for _, r := range e.Roots {
		r.Traverse(func(n *spec.Spec) { nodes = append(nodes, n) })
	}
	if len(nodes) < 10 {
		t.Fatalf("only %d nodes under amg2023 and lulesh", len(nodes))
	}
	rootsFirst, leavesFirst := spec.Hasher{}, spec.Hasher{}
	for i, n := range nodes {
		if got, want := rootsFirst.Hash(n), n.DAGHash(); got != want {
			t.Errorf("%s: Hasher %s, DAGHash %s", n.Name, got, want)
		}
		n = nodes[len(nodes)-1-i]
		if got, want := leavesFirst.Hash(n), n.DAGHash(); got != want {
			t.Errorf("%s, leaves first: Hasher %s, DAGHash %s", n.Name, got, want)
		}
	}
	lf := lockDAG(t, e)
	for i, r := range e.Roots {
		if lf.Roots[i] != r.DAGHash() {
			t.Errorf("lockfile root %d = %s, want %s", i, lf.Roots[i], r.DAGHash())
		}
	}
	for _, n := range nodes {
		ln, ok := lf.Nodes[n.DAGHash()]
		if !ok {
			t.Errorf("%s: no lockfile node under %s", n.Name, n.DAGHash())
			continue
		}
		for dn, d := range n.Deps {
			if ln.Deps[dn] != d.DAGHash() {
				t.Errorf("%s -> %s: lockfile edge %s, want %s", n.Name, dn, ln.Deps[dn], d.DAGHash())
			}
		}
	}
}

// TestKeptHashTableIsTheDAGHash is the oracle for the table an
// environment keeps: on a concretize-layer miss (EncodeDAG fills it)
// and on a hit (DAG.Decode fills it), it already holds every node of
// the roots, each with the hash DAGHash computes afresh; and an
// install that reads it hashes nothing and reports exactly what an
// install with a fresh spec.Hasher reports.
func TestKeptHashTableIsTheDAGHash(t *testing.T) {
	st, err := cachekey.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct {
		name         string
		hits, misses int
	}{{"miss", 0, 1}, {"hit", 1, 0}} {
		c := ctsConcretizer(t)
		c.Cache = st.Layer("concretize")
		e := New("kept")
		for _, s := range []string{"amg2023+caliper", "saxpy@1.0.0+openmp"} {
			if err := e.Add(s); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Concretize(c); err != nil {
			t.Fatal(err)
		}
		if c.Hits != want.hits || c.Misses != want.misses {
			t.Fatalf("%s: hits/misses = %d/%d", want.name, c.Hits, c.Misses)
		}
		hs := e.Hashes()
		nodes := map[*spec.Spec]bool{}
		for _, r := range e.Roots {
			r.Traverse(func(n *spec.Spec) {
				nodes[n] = true
				if h, ok := hs[n]; !ok || h != n.DAGHash() {
					t.Errorf("%s: the kept table holds %q, %v for %s; DAGHash is %s", want.name, h, ok, n.Name, n.DAGHash())
				}
			})
		}
		held := len(hs)
		kept, err := e.Install(context.Background(), install.New(pkgrepo.Builtin()))
		if err != nil {
			t.Fatal(err)
		}
		if len(hs) != held || held != len(nodes) {
			t.Errorf("%s: the table held %d hashes for %d nodes, %d after Install", want.name, held, len(nodes), len(hs))
		}
		fresh, err := installRoots(context.Background(), e.Roots, spec.Hasher{}, install.New(pkgrepo.Builtin()))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(kept, fresh) {
			t.Errorf("%s: an install with the kept table reports\n%+v\nwith a fresh one\n%+v", want.name, kept, fresh)
		}
	}
}
