package hpcsim

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

func TestPaperSystemsRegistered(t *testing.T) {
	// The three systems of Section 4.
	for _, name := range []string{"cts1", "ats2", "ats4"} {
		s, err := Get(name)
		if err != nil {
			t.Errorf("Get(%s): %v", name, err)
			continue
		}
		if s.Nodes <= 0 || s.Node.Cores() <= 0 {
			t.Errorf("%s has empty node model", name)
		}
		if s.Scheduler == "" || s.Launcher == "" {
			t.Errorf("%s missing scheduler/launcher", name)
		}
	}
	if _, err := Get("summit"); err == nil {
		t.Error("unknown system should error")
	}
}

func TestSystemCharacter(t *testing.T) {
	cts, _ := Get("cts1")
	if cts.Node.GPU != nil {
		t.Error("cts1 is CPU-only")
	}
	if cts.Node.Cores() != 36 {
		t.Errorf("cts1 cores = %d", cts.Node.Cores())
	}
	if cts.Network.BcastAlgo != "scatter-allgather" {
		t.Errorf("cts1 bcast algo = %s (Figure 14 needs the linear-in-p model)", cts.Network.BcastAlgo)
	}

	ats2, _ := Get("ats2")
	if ats2.Node.GPU == nil || ats2.Node.GPU.Runtime != "cuda" || ats2.Node.GPU.PerNode != 4 {
		t.Errorf("ats2 GPU = %+v", ats2.Node.GPU)
	}
	if ats2.Scheduler != "lsf" || ats2.Launcher != "jsrun" {
		t.Errorf("ats2 scheduler/launcher = %s/%s", ats2.Scheduler, ats2.Launcher)
	}

	ats4, _ := Get("ats4")
	if ats4.Node.GPU == nil || ats4.Node.GPU.Runtime != "rocm" {
		t.Errorf("ats4 GPU = %+v", ats4.Node.GPU)
	}
}

func TestMicroarchDetection(t *testing.T) {
	want := map[string]string{
		"cts1":         "broadwell",
		"ats2":         "power9le",
		"ats4":         "zen3",
		"cloud-c5n":    "skylake_avx512",
		"fugaku-a64fx": "a64fx",
		// The cloud twin hides avx512_vnni, so it detects as skylake.
		"cloud-m6i":      "skylake_avx512",
		"onprem-icelake": "icelake",
	}
	for sys, target := range want {
		s, err := Get(sys)
		if err != nil {
			t.Fatal(err)
		}
		m, err := s.Microarch()
		if err != nil {
			t.Errorf("%s: %v", sys, err)
			continue
		}
		if m.Name != target {
			t.Errorf("%s detects %s, want %s", sys, m.Name, target)
		}
	}
}

// TestSection71Portability models the paper's Section 7.1 incident:
// the same binary runs on premise but crashes in the cloud because
// one hardware feature is missing.
func TestSection71Portability(t *testing.T) {
	onprem, _ := Get("onprem-icelake")
	cloud, _ := Get("cloud-m6i")

	// Binary built on premise targets icelake.
	m, err := onprem.Microarch()
	if err != nil {
		t.Fatal(err)
	}
	target := m.Name

	ok, _ := onprem.CanRunBinary(target)
	if !ok {
		t.Fatal("binary must run where it was built")
	}
	ok, reason := cloud.CanRunBinary(target)
	if ok {
		t.Fatal("binary must crash on the cloud twin")
	}
	if !strings.Contains(reason, "avx512_vnni") && !strings.Contains(reason, "icelake") {
		t.Errorf("diagnosis should implicate the missing feature: %q", reason)
	}

	// The reverse direction works: a binary built on the cloud's
	// detected target runs on premise.
	cm, _ := cloud.Microarch()
	if ok, reason := onprem.CanRunBinary(cm.Name); !ok {
		t.Errorf("onprem should run cloud-built binary: %s", reason)
	}
}

func TestCanRunBinaryUnknownTarget(t *testing.T) {
	s, _ := Get("cts1")
	if ok, _ := s.CanRunBinary("pdp11"); ok {
		t.Error("unknown target should not run")
	}
}

func TestCrossArchRejected(t *testing.T) {
	cts, _ := Get("cts1")
	if ok, _ := cts.CanRunBinary("power9le"); ok {
		t.Error("x86 system cannot run POWER binaries")
	}
}

func TestTotalCores(t *testing.T) {
	cts, _ := Get("cts1")
	if cts.TotalCores() != 1200*36 {
		t.Errorf("cts1 total cores = %d", cts.TotalCores())
	}
	// Figure 14 measures up to 3456 processes; cts1 must be big enough.
	if cts.TotalCores() < 3456 {
		t.Error("cts1 too small for the Figure 14 sweep")
	}
}

func TestNames(t *testing.T) {
	names := Names()
	if len(names) < 7 {
		t.Errorf("systems = %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Error("names not sorted")
		}
	}
}

func TestMathLibBugFlag(t *testing.T) {
	cloud, _ := Get("cloud-m6i")
	if !cloud.MathLibBug {
		t.Error("cloud-m6i should carry the Section 7.1 math-library bug")
	}
	onprem, _ := Get("onprem-icelake")
	if onprem.MathLibBug {
		t.Error("onprem twin should not")
	}
}

// provisions numbers this test binary's cluster registrations, so every
// run of a test under -count=N provisions a cluster of its own name in
// the process-wide system registry.
var provisions atomic.Int64

// perRun returns base suffixed with a name no earlier run has taken.
func perRun(base string) string {
	return fmt.Sprintf("%s-%d", base, provisions.Add(1))
}

func TestProvisionCloudCluster(t *testing.T) {
	name := perRun("burst-c5n")
	sys, err := ProvisionCloudCluster(name, "c5n.18xlarge", 128)
	if err != nil {
		t.Fatal(err)
	}
	// Registered: suites can target it by name.
	got, err := Get(name)
	if err != nil || got != sys {
		t.Fatalf("registry lookup: %v", err)
	}
	if sys.Nodes != 128 || sys.Node.Cores() != 36 {
		t.Errorf("cluster shape: %d nodes × %d cores", sys.Nodes, sys.Node.Cores())
	}
	m, err := sys.Microarch()
	if err != nil || m.Name != "skylake_avx512" {
		t.Errorf("arch = %v, %v", m, err)
	}
	if !strings.Contains(sys.Description, "$") {
		t.Errorf("description should carry cost: %q", sys.Description)
	}
	// Duplicate name rejected.
	if _, err := ProvisionCloudCluster(name, "c5n.18xlarge", 4); err == nil {
		t.Error("duplicate registration should fail")
	}
	// Unknown instance type rejected.
	if _, err := ProvisionCloudCluster("x", "t2.micro", 4); err == nil {
		t.Error("unknown instance type should fail")
	}
	if _, err := ProvisionCloudCluster("y", "c5n.18xlarge", 0); err == nil {
		t.Error("zero nodes should fail")
	}
	// The Graviton type detects as neoverse_v1.
	g, err := ProvisionCloudCluster(perRun("burst-arm"), "hpc7g.16xlarge", 16)
	if err != nil {
		t.Fatal(err)
	}
	gm, _ := g.Microarch()
	if gm.Name != "neoverse_v1" {
		t.Errorf("graviton arch = %s", gm.Name)
	}
}
