// Package bench implements the benchmarks Benchpark runs: the saxpy
// micro-benchmark of Section 4, the AMG2023 proxy (distributed
// Poisson solver with a multigrid-preconditioned CG), a STREAM triad
// bandwidth benchmark, and OSU-style MPI micro-benchmarks (the
// MPI_Bcast benchmark behind Figure 14).
//
// Each benchmark executes real Go computation on simulated MPI ranks
// (internal/mpisim): numerics, reductions and halo exchanges are
// real; elapsed time is the simulated logical clock. A streaming
// kernel (saxpy, STREAM) computes every element of its touched region
// through one reused cache-sized tile, and the clock is charged for
// the full problem through the system's performance model. Kernels
// are annotated with Caliper regions and emit the textual output that
// Ramble's figure-of-merit regexes parse (Figure 8: "Kernel done").
package bench

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/adiak"
	"repro/internal/caliper"
	"repro/internal/hpcsim"
	"repro/internal/mpisim"
)

// Params configures one benchmark execution.
type Params struct {
	System       *hpcsim.System
	Ranks        int
	RanksPerNode int
	Threads      int               // OpenMP threads per rank
	Variant      string            // "", "openmp", "cuda", "rocm"
	Vars         map[string]string // workload variables (n, px, iterations, ...)
}

// Var returns a workload variable with a default.
func (p Params) Var(name, def string) string {
	if v, ok := p.Vars[name]; ok && v != "" {
		return v
	}
	return def
}

// varReader reads integer and float workload variables with defaults.
// It keeps the first malformed value's error, so a kernel reads all its
// variables and checks err once.
type varReader struct {
	vars map[string]string
	err  error
}

func (r *varReader) int(name string, def int) int {
	v, ok := r.vars[name]
	if !ok || v == "" {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil && r.err == nil {
		r.err = fmt.Errorf("bench: variable %s=%q is not an integer", name, v)
	}
	return n
}

func (r *varReader) float(name string, def float64) float64 {
	v, ok := r.vars[name]
	if !ok || v == "" {
		return def
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil && r.err == nil {
		r.err = fmt.Errorf("bench: variable %s=%q is not a number", name, v)
	}
	return f
}

// Output is what one benchmark run produces: the text Ramble's FOM
// regexes scan, the simulated elapsed time, a merged Caliper profile,
// and Adiak metadata.
type Output struct {
	Text     string
	Elapsed  float64 // simulated seconds, slowest rank
	Profile  *caliper.Profile
	Metadata *adiak.Metadata
}

// Benchmark is one registered benchmark program.
type Benchmark struct {
	Name   string
	kernel func(Params) (*Output, error)
}

// Run validates p, filling its defaults, and runs the benchmark.
func (b Benchmark) Run(p Params) (*Output, error) {
	if err := validate(&p); err != nil {
		return nil, err
	}
	return b.kernel(p)
}

var registry = map[string]Benchmark{}

func register(name string, kernel func(Params) (*Output, error)) {
	if _, dup := registry[name]; dup {
		panic("bench: duplicate benchmark " + name)
	}
	registry[name] = Benchmark{Name: name, kernel: kernel}
}

// Get returns a registered benchmark.
func Get(name string) (Benchmark, error) {
	b, ok := registry[name]
	if !ok {
		return Benchmark{}, fmt.Errorf("bench: unknown benchmark %q (have %v)", name, Names())
	}
	return b, nil
}

// Names lists registered benchmarks, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// effectiveMemBW returns the per-rank sustainable memory bandwidth in
// bytes/s: node bandwidth scales with active threads until saturation
// (at half the cores, STREAM-like), then is shared by the node's ranks.
func effectiveMemBW(sys *hpcsim.System, ranksPerNode, threads int) float64 {
	if threads < 1 {
		threads = 1
	}
	cores := sys.Node.Cores()
	active := ranksPerNode * threads
	if active > cores {
		active = cores
	}
	saturation := cores / 2
	if saturation < 1 {
		saturation = 1
	}
	frac := float64(active) / float64(saturation)
	if frac > 1 {
		frac = 1
	}
	nodeBW := sys.Node.MemBWGBs * 1e9 * frac
	return nodeBW / float64(ranksPerNode)
}

// chargeMemory advances the rank clock for a memory-bound sweep of
// the given bytes under the thread model above.
func chargeMemory(c *mpisim.Comm, p Params, bytes float64) {
	bw := effectiveMemBW(p.System, c.RanksPerNode(), p.Threads)
	c.Compute(bytes / bw)
}

// chargeFlops advances the rank clock for a compute-bound kernel:
// threads multiply the per-core rate up to the per-rank core share.
func chargeFlops(c *mpisim.Comm, p Params, flops float64) {
	threads := p.Threads
	if threads < 1 {
		threads = 1
	}
	share := p.System.Node.Cores() / c.RanksPerNode()
	if threads > share && share > 0 {
		threads = share
	}
	rate := p.System.Node.GFlopsPerCore * 1e9 * float64(threads)
	c.Compute(flops / rate)
}

// rankFunc is a kernel: one rank's numerics, annotated with Caliper
// regions on rec, which the rank may read back with rec.Region. Rank
// 0's text is the run's; what other ranks return is ignored.
type rankFunc func(c *mpisim.Comm, rec *caliper.Recorder) (text string, err error)

// runRanks is how a kernel's ranks become an Output: it runs fn on p's
// ranks, each with a Recorder on its own clock, and returns rank 0's
// text, the slowest rank's elapsed time, the ranks' merged profiles and
// the Adiak metadata of benchmark name. A rank's error, panic or
// unbalanced regions fail the run.
func runRanks(name string, p Params, fn rankFunc) (*Output, error) {
	profiles := make([]*caliper.Profile, p.Ranks)
	var text string
	elapsed, err := mpisim.Run(p.System, p.Ranks, p.RanksPerNode, func(c *mpisim.Comm) error {
		rec := caliper.NewRecorder(c.Now)
		t, err := fn(c, rec)
		if err != nil {
			return err
		}
		if profiles[c.Rank()], err = rec.Snapshot(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			text = t
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Output{Text: text, Elapsed: elapsed, Profile: caliper.MergeRanks(profiles), Metadata: baseMetadata(name, p)}, nil
}

// allreduce1 combines one value across the ranks and hands the result
// buffer back to the transport.
func allreduce1(c *mpisim.Comm, v float64, op mpisim.Op) float64 {
	out := c.Allreduce([]float64{v}, op)
	v = out[0]
	c.Release(out)
	return v
}

// validate fills Params defaults and sanity checks; Benchmark.Run
// calls it before any kernel runs.
func validate(p *Params) error {
	if p.System == nil {
		return fmt.Errorf("bench: no system")
	}
	if p.Ranks <= 0 {
		return fmt.Errorf("bench: ranks = %d", p.Ranks)
	}
	if p.RanksPerNode <= 0 {
		p.RanksPerNode = p.System.Node.Cores()
	}
	if p.Threads <= 0 {
		p.Threads = 1
	}
	return nil
}

// writePAPI emits simulated hardware-counter lines when the "papi"
// modifier variable is set — the architecture-specific FOMs that
// Section 4.5's modifier construct captures. Counts derive
// deterministically from the kernel's operation model.
func writePAPI(b *strings.Builder, p Params, flops, bytes float64) {
	if p.Var("papi", "") != "1" {
		return
	}
	l3Misses := bytes / 64 // one miss per streamed cache line
	fmt.Fprintf(b, "papi.PAPI_FP_OPS: %.6e\npapi.PAPI_L3_TCM: %.6e\n", flops, l3Misses)
}

// baseMetadata assembles the Adiak descriptors every benchmark emits.
func baseMetadata(name string, p Params) *adiak.Metadata {
	md := adiak.New()
	adiak.CollectDefaults(md, name, p.System.Name, "benchpark")
	md.Setf("n_ranks", "%d", p.Ranks)
	md.Setf("ranks_per_node", "%d", p.RanksPerNode)
	md.Setf("n_threads", "%d", p.Threads)
	if p.Variant != "" {
		md.Set("variant", p.Variant)
	}
	return md
}
