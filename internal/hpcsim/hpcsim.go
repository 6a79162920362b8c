// Package hpcsim models the HPC systems Benchpark runs on. The paper
// demonstrates on three LLNL systems (Section 4): cts1 (Intel Xeon),
// ats2 (Power9 + V100), and ats4 EAS (AMD Trento + MI-250X); Section
// 7 adds cloud instances as "just another platform".
//
// Since the real machines are not available to a reproduction, each
// system is a parameterized performance model: node counts, core
// counts, memory and network characteristics, GPU inventory, and the
// CPU feature set that archspec detection sees. The MPI simulator,
// the batch-scheduler simulator, and the benchmark kernels all derive
// their simulated timings from these parameters, so relative
// performance across systems behaves the way the paper's ecosystem
// assumes (DESIGN.md documents this substitution).
package hpcsim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/archspec"
)

// GPU describes one accelerator model.
type GPU struct {
	Model     string
	Arch      string  // "sm_70", "gfx90a"
	MemGB     float64 //
	PeakTF    float64 // peak FP64 TFLOP/s
	MemBWGBs  float64 // HBM bandwidth
	Runtime   string  // "cuda" or "rocm"
	PerNode   int
	LinkGBs   float64 // host link bandwidth (NVLink/xGMI/PCIe)
	LinkLatUS float64
}

// NodeModel describes one compute node.
type NodeModel struct {
	Sockets        int
	CoresPerSocket int
	MemGB          float64
	// GFlopsPerCore is sustained FP64 GFLOP/s per core for
	// compute-bound kernels.
	GFlopsPerCore float64
	// MemBWGBs is sustained node memory bandwidth (STREAM triad).
	MemBWGBs float64
	GPU      *GPU
}

// Cores returns cores per node.
func (n NodeModel) Cores() int { return n.Sockets * n.CoresPerSocket }

// Network describes the interconnect performance model.
type Network struct {
	Name string
	// LatencyUS is the small-message latency α in microseconds.
	LatencyUS float64
	// BandwidthGBs is per-link bandwidth (the reciprocal of β).
	BandwidthGBs float64
	// BcastAlgo selects the collective algorithm model for MPI_Bcast:
	// "binomial" (log p) or "scatter-allgather" (van de Geijn; linear
	// in p for the latency term — the shape Figure 14 measures on CTS).
	BcastAlgo string
}

// System is one HPC system profile — everything the Benchpark
// system-specific configs (Figure 1a configs/) describe, plus the
// performance model.
type System struct {
	Name        string
	Site        string
	Description string

	Nodes   int
	Node    NodeModel
	Network Network

	// Scheduler and Launcher mirror variables.yaml (Figure 12).
	Scheduler string // "slurm", "lsf", "flux"
	Launcher  string // "srun", "jsrun", "flux run"

	// CPU is what /proc/cpuinfo reports; archspec detection runs on it.
	CPU archspec.CPUInfo

	// SystemNoisePct is the deterministic pseudo-noise amplitude for
	// simulated timings (fraction, e.g. 0.02 = ±2%).
	SystemNoisePct float64

	// MathLibBug, when true, models the Section 7.1 incident: the
	// vendor math library crashes on this system because a hardware
	// feature it requires is missing.
	MathLibBug bool
}

// TotalCores returns the system's core count.
func (s *System) TotalCores() int { return s.Nodes * s.Node.Cores() }

// Microarch runs archspec detection on the system's CPU.
func (s *System) Microarch() (*archspec.Microarchitecture, error) {
	return archspec.Detect(s.CPU)
}

// CanRunBinary reports whether a binary built for the given target
// runs on this system, and if not, why — the Section 7.1 portability
// check ("Illegal instruction" when the feature is missing).
func (s *System) CanRunBinary(target string) (bool, string) {
	tm, err := archspec.Lookup(target)
	if err != nil {
		return false, fmt.Sprintf("unknown target %q", target)
	}
	mine, err := s.Microarch()
	if err != nil {
		return false, "cannot detect local microarchitecture: " + err.Error()
	}
	if mine.CompatibleWith(tm) {
		return true, ""
	}
	// Report the first missing feature for the diagnosis workflow.
	for _, f := range tm.AllFeatures() {
		if !mine.HasFeatures(f) {
			return false, fmt.Sprintf("SIGILL: binary targets %s, %s lacks feature %q", target, mine.Name, f)
		}
	}
	return false, fmt.Sprintf("binary targets %s which is not an ancestor of %s", target, mine.Name)
}

// Fingerprint is the SHA-256, in hex, of the system's canonical JSON:
// every parameter of the model, so an edit to any of them — a
// network's bandwidth, the noise amplitude, a CPU feature — changes it.
// It is "" only for a model JSON cannot encode (a NaN parameter).
func (s *System) Fingerprint() string {
	data, err := json.Marshal(s)
	if err != nil {
		return ""
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Clone returns an independent copy of the system profile, for
// what-if modeling (degraded hardware, firmware changes) without
// touching the registry.
func (s *System) Clone() *System {
	c := *s
	if s.Node.GPU != nil {
		g := *s.Node.GPU
		c.Node.GPU = &g
	}
	c.CPU.Features = append([]string(nil), s.CPU.Features...)
	return &c
}

// registry of known systems.
var registry = map[string]*System{}

func register(s *System) {
	if _, dup := registry[s.Name]; dup {
		panic("hpcsim: duplicate system " + s.Name)
	}
	registry[s.Name] = s
}

// Get returns the named system profile.
func Get(name string) (*System, error) {
	s, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("hpcsim: unknown system %q (have %v)", name, Names())
	}
	return s, nil
}

// Register adds a dynamically built system (e.g. a provisioned cloud
// cluster) to the registry so suites can target it by name.
func Register(s *System) error {
	if s.Name == "" {
		return fmt.Errorf("hpcsim: system with empty name")
	}
	if _, dup := registry[s.Name]; dup {
		return fmt.Errorf("hpcsim: system %q already registered", s.Name)
	}
	registry[s.Name] = s
	return nil
}

// CloudInstanceType describes one rentable instance family for
// Section 7.2's "configuring a cluster of desired or locally
// unavailable processors without the need to wait in queues".
type CloudInstanceType struct {
	Name       string
	Node       NodeModel
	CPU        archspec.CPUInfo
	NetLatUS   float64
	NetBWGBs   float64
	HourlyCost float64 // $ per node hour, for the provisioning report
}

// CloudCatalog lists the instance types the simulated provider rents.
var CloudCatalog = map[string]CloudInstanceType{
	"c5n.18xlarge": {
		Name: "c5n.18xlarge",
		Node: NodeModel{Sockets: 2, CoresPerSocket: 18, MemGB: 192, GFlopsPerCore: 25.6, MemBWGBs: 140},
		CPU: archspec.CPUInfo{VendorID: "GenuineIntel", Family: "x86_64",
			Features: featuresOf("skylake_avx512")},
		NetLatUS: 15.0, NetBWGBs: 12.0, HourlyCost: 3.888,
	},
	"m6i.32xlarge": {
		Name: "m6i.32xlarge",
		Node: NodeModel{Sockets: 2, CoresPerSocket: 32, MemGB: 512, GFlopsPerCore: 27.0, MemBWGBs: 170},
		CPU: archspec.CPUInfo{VendorID: "GenuineIntel", Family: "x86_64",
			Features: without(featuresOf("icelake"), "avx512_vnni")},
		NetLatUS: 14.0, NetBWGBs: 6.25, HourlyCost: 6.144,
	},
	"hpc7g.16xlarge": {
		Name: "hpc7g.16xlarge",
		Node: NodeModel{Sockets: 1, CoresPerSocket: 64, MemGB: 128, GFlopsPerCore: 31.0, MemBWGBs: 300},
		CPU: archspec.CPUInfo{VendorID: "ARM", Family: "aarch64",
			Features: featuresOf("neoverse_v1")},
		NetLatUS: 12.0, NetBWGBs: 25.0, HourlyCost: 1.68,
	},
}

// ProvisionCloudCluster builds and registers an on-demand cluster of
// the given instance type — cloud as "another platform" (Section 7.2).
func ProvisionCloudCluster(name, instanceType string, nodes int) (*System, error) {
	it, ok := CloudCatalog[instanceType]
	if !ok {
		var have []string
		for k := range CloudCatalog {
			have = append(have, k)
		}
		sort.Strings(have)
		return nil, fmt.Errorf("hpcsim: unknown instance type %q (have %v)", instanceType, have)
	}
	if nodes <= 0 || nodes > 10000 {
		return nil, fmt.Errorf("hpcsim: cannot provision %d nodes", nodes)
	}
	sys := &System{
		Name: name,
		Site: "AWS",
		Description: fmt.Sprintf("on-demand cluster: %d × %s ($%.2f/h)",
			nodes, instanceType, float64(nodes)*it.HourlyCost),
		Nodes: nodes,
		Node:  it.Node,
		Network: Network{
			Name: "efa", LatencyUS: it.NetLatUS, BandwidthGBs: it.NetBWGBs,
			BcastAlgo: "binomial",
		},
		Scheduler: "slurm", Launcher: "srun",
		CPU:            it.CPU,
		SystemNoisePct: 0.08, // multi-tenant jitter
	}
	if err := Register(sys); err != nil {
		return nil, err
	}
	return sys, nil
}

// Names lists registered systems, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func featuresOf(name string) []string {
	m, err := archspec.Lookup(name)
	if err != nil {
		panic(err)
	}
	return m.AllFeatures()
}

func without(feats []string, drop ...string) []string {
	out := make([]string, 0, len(feats))
	for _, f := range feats {
		skip := false
		for _, d := range drop {
			if f == d {
				skip = true
				break
			}
		}
		if !skip {
			out = append(out, f)
		}
	}
	return out
}

func init() {
	// cts1 — the CTS-1 commodity Intel Xeon cluster of Section 4 and
	// the system Figure 14 models MPI_Bcast on.
	register(&System{
		Name:        "cts1",
		Site:        "LLNL",
		Description: "CPU-only commodity cluster (Intel Xeon E5-2695 v4, Omni-Path)",
		Nodes:       1200,
		Node: NodeModel{
			Sockets: 2, CoresPerSocket: 18, MemGB: 128,
			GFlopsPerCore: 18.4, MemBWGBs: 120,
		},
		Network: Network{
			Name: "omni-path", LatencyUS: 1.45, BandwidthGBs: 12.5,
			BcastAlgo: "scatter-allgather",
		},
		Scheduler: "slurm", Launcher: "srun",
		CPU: archspec.CPUInfo{
			VendorID: "GenuineIntel", Family: "x86_64",
			Features: featuresOf("broadwell"),
		},
		SystemNoisePct: 0.02,
	})

	// ats2 — Power9 + V100, Sierra-class early access (lassen-like).
	register(&System{
		Name:        "ats2",
		Site:        "LLNL",
		Description: "IBM Power9 + NVIDIA V100 CPU/GPU hybrid (Sierra class)",
		Nodes:       756,
		Node: NodeModel{
			Sockets: 2, CoresPerSocket: 22, MemGB: 256,
			GFlopsPerCore: 24.0, MemBWGBs: 170,
			GPU: &GPU{
				Model: "V100", Arch: "sm_70", MemGB: 16, PeakTF: 7.8,
				MemBWGBs: 900, Runtime: "cuda", PerNode: 4,
				LinkGBs: 75, LinkLatUS: 8,
			},
		},
		Network: Network{
			Name: "infiniband-edr", LatencyUS: 1.2, BandwidthGBs: 23,
			BcastAlgo: "binomial",
		},
		Scheduler: "lsf", Launcher: "jsrun",
		CPU: archspec.CPUInfo{
			VendorID: "IBM", Family: "ppc64le",
			Features: featuresOf("power9le"),
		},
		SystemNoisePct: 0.025,
	})

	// ats4 EAS — AMD Trento + MI-250X early access (tioga-like).
	register(&System{
		Name:        "ats4",
		Site:        "LLNL",
		Description: "AMD Trento + MI-250X CPU/GPU hybrid early access system",
		Nodes:       128,
		Node: NodeModel{
			Sockets: 1, CoresPerSocket: 64, MemGB: 512,
			GFlopsPerCore: 32.0, MemBWGBs: 205,
			GPU: &GPU{
				Model: "MI250X", Arch: "gfx90a", MemGB: 128, PeakTF: 47.9,
				MemBWGBs: 3277, Runtime: "rocm", PerNode: 4,
				LinkGBs: 144, LinkLatUS: 6,
			},
		},
		Network: Network{
			Name: "slingshot-11", LatencyUS: 1.8, BandwidthGBs: 25,
			BcastAlgo: "binomial",
		},
		Scheduler: "flux", Launcher: "flux run",
		CPU: archspec.CPUInfo{
			VendorID: "AuthenticAMD", Family: "x86_64",
			Features: featuresOf("zen3"),
		},
		SystemNoisePct: 0.03,
	})

	// cloud-c5n — an AWS-like Skylake HPC instance cluster (Section 7.2:
	// cloud as "another platform").
	register(&System{
		Name:        "cloud-c5n",
		Site:        "AWS",
		Description: "Cloud cluster of Skylake-AVX512 instances with 100 Gb networking",
		Nodes:       256,
		Node: NodeModel{
			Sockets: 2, CoresPerSocket: 18, MemGB: 192,
			GFlopsPerCore: 25.6, MemBWGBs: 140,
		},
		Network: Network{
			Name: "ena-efa", LatencyUS: 15.0, BandwidthGBs: 12.0,
			BcastAlgo: "binomial",
		},
		Scheduler: "slurm", Launcher: "srun",
		CPU: archspec.CPUInfo{
			VendorID: "GenuineIntel", Family: "x86_64",
			Features: featuresOf("skylake_avx512"),
		},
		SystemNoisePct: 0.08,
	})

	// onprem-icelake / cloud-m6i — the Section 7.1 pair: near identical
	// systems, but the cloud instance lacks one hardware feature
	// (avx512_vnni) that the vendor math library uses, so the exact
	// same binary crashes there.
	register(&System{
		Name:        "onprem-icelake",
		Site:        "RIKEN",
		Description: "On-premise Icelake supercomputer partition",
		Nodes:       384,
		Node: NodeModel{
			Sockets: 2, CoresPerSocket: 32, MemGB: 256,
			GFlopsPerCore: 28.0, MemBWGBs: 180,
		},
		Network: Network{
			Name: "infiniband-hdr", LatencyUS: 1.1, BandwidthGBs: 25,
			BcastAlgo: "binomial",
		},
		Scheduler: "slurm", Launcher: "srun",
		CPU: archspec.CPUInfo{
			VendorID: "GenuineIntel", Family: "x86_64",
			Features: featuresOf("icelake"),
		},
		SystemNoisePct: 0.02,
	})
	register(&System{
		Name:        "cloud-m6i",
		Site:        "AWS",
		Description: "Cloud Icelake instances; hides avx512_vnni from guests",
		Nodes:       64,
		Node: NodeModel{
			Sockets: 2, CoresPerSocket: 32, MemGB: 256,
			GFlopsPerCore: 27.0, MemBWGBs: 170,
		},
		Network: Network{
			Name: "ena-efa", LatencyUS: 14.0, BandwidthGBs: 12.0,
			BcastAlgo: "binomial",
		},
		Scheduler: "slurm", Launcher: "srun",
		CPU: archspec.CPUInfo{
			VendorID: "GenuineIntel", Family: "x86_64",
			Features: without(featuresOf("icelake"), "avx512_vnni"),
		},
		SystemNoisePct: 0.06,
		MathLibBug:     true,
	})

	// fugaku-a64fx — a RIKEN-like Arm system for breadth.
	register(&System{
		Name:        "fugaku-a64fx",
		Site:        "RIKEN",
		Description: "Fujitsu A64FX Arm system with Tofu-D interconnect",
		Nodes:       512, // a partition
		Node: NodeModel{
			Sockets: 1, CoresPerSocket: 48, MemGB: 32,
			GFlopsPerCore: 56.0, MemBWGBs: 1024,
		},
		Network: Network{
			Name: "tofu-d", LatencyUS: 0.9, BandwidthGBs: 6.8,
			BcastAlgo: "binomial",
		},
		Scheduler: "slurm", Launcher: "srun",
		CPU: archspec.CPUInfo{
			VendorID: "Fujitsu", Family: "aarch64",
			Features: featuresOf("a64fx"),
		},
		SystemNoisePct: 0.015,
	})
}
