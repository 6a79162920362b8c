package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"

	"repro/internal/loadgen"
	"repro/internal/metricsdb"
)

// gen derives every generated input from --seed. Each consumer takes
// its own named stream, so adding draws to one never shifts another.
type gen struct{ seed int64 }

// stream returns a private generator for one named input stream.
func (g gen) stream(name string) *rand.Rand {
	sum := sha256.Sum256([]byte(fmt.Sprintf("sysbench\x00%d\x00%s", g.seed, name)))
	return rand.New(rand.NewSource(int64(binary.BigEndian.Uint64(sum[:8]))))
}

// sessionSpec is one `benchpark <suite> <system>` invocation.
type sessionSpec struct{ Suite, System string }

// nightlyMatrix is the 11 sessions one nightly runs. amg2023/openmp
// (4 s of pure kernel per run) is deliberately absent: it would turn
// the loop metrics into a kernel timer.
var nightlyMatrix = []sessionSpec{
	{"saxpy/openmp", "cts1"},
	{"stream/triad", "cts1"},
	{"hpcg/hpcg", "cts1"},
	{"lulesh/hydro", "cts1"},
	{"osu/bcast", "cts1"},
	{"osu/allreduce", "cts1"},
	{"amg2023/cube", "cts1"},
	{"saxpy/openmp", "cloud-c5n"},
	{"saxpy/openmp", "fugaku-a64fx"},
	{"saxpy/cuda", "ats2"},
	{"saxpy/rocm", "ats4"},
}

// nightlies yields the session order of successive nightlies: a fresh
// seeded shuffle of the matrix each time.
type nightlies struct{ rng *rand.Rand }

func (g gen) nightlies() *nightlies { return &nightlies{rng: g.stream("matrix")} }

func (n *nightlies) next() []sessionSpec {
	order := append([]sessionSpec(nil), nightlyMatrix...)
	n.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

// The generated fleet: loadgen's payload shape (16 systems × 8
// benchmarks = 128 (system, benchmark) series) reported by 64 runners.
const (
	fleetSystems    = 16
	fleetBenchmarks = 8
	fleetRunners    = 64
	fleetFOM        = "figure_of_merit"

	smallBatch     = 5   // a CI job's results
	bulkBatch      = 100 // every 10th ingest push
	dashboardBatch = 8   // the dashboard writer's pushes
	preloadBatch   = 100
)

// pushOp is one generated push.
type pushOp struct {
	Key     string
	Results []metricsdb.Result
}

// pushStream is a deterministic, endless sequence of pushes for one
// client. The payload shape is loadgen.Config.Batch; the seed drives
// which runner reports (and through the fleet assignment, from which
// system) and every FOM value.
type pushStream struct {
	rng     *rand.Rand
	prefix  string
	assign  []int       // runner → loadgen runner index (system = index % fleetSystems)
	runners []int       // runners this stream may draw
	batches map[int]int // per-runner batch counter
	size    func(i int) int
	n       int
}

// fleetAssignment is the seeded runner → system assignment shared by
// every stream of one run.
func (g gen) fleetAssignment() []int {
	return g.stream("fleet").Perm(fleetRunners)
}

func (g gen) pushStream(name string, size func(i int) int, allow func(system string) bool) *pushStream {
	s := &pushStream{
		rng:     g.stream("push/" + name),
		prefix:  fmt.Sprintf("sb%d-%s", g.seed, name),
		assign:  g.fleetAssignment(),
		batches: map[int]int{},
		size:    size,
	}
	for r := 0; r < fleetRunners; r++ {
		if allow == nil || allow(systemOf(s.assign[r])) {
			s.runners = append(s.runners, r)
		}
	}
	return s
}

func systemOf(loadgenRunner int) string {
	return fmt.Sprintf("fedsys-%03d", loadgenRunner%fleetSystems)
}

func (s *pushStream) next() pushOp {
	i := s.n
	s.n++
	r := s.runners[s.rng.Intn(len(s.runners))]
	b := s.batches[r]
	s.batches[r] = b + 1
	cfg := loadgen.Config{
		ResultsPerBatch: s.size(i),
		Systems:         fleetSystems,
		Benchmarks:      fleetBenchmarks,
	}
	results := cfg.Batch(s.assign[r], b)
	for j := range results {
		results[j].FOMs = map[string]float64{fleetFOM: 100 + 50*s.rng.Float64()}
	}
	return pushOp{Key: fmt.Sprintf("%s-%07d", s.prefix, i), Results: results}
}

// ingestSize is the ingest workloads' batch mix: 9 of 10 pushes are
// CI-job sized, every 10th is a bulk upload.
func ingestSize(i int) int {
	if i%10 == 9 {
		return bulkBatch
	}
	return smallBatch
}

func fixedSize(n int) func(int) int { return func(int) int { return n } }

// seriesFilter names one (system, benchmark) series.
func seriesFilter(system, benchmark int) metricsdb.Filter {
	return metricsdb.Filter{
		System:    fmt.Sprintf("fedsys-%03d", system),
		Benchmark: fmt.Sprintf("fedbench-%02d", benchmark),
	}
}

// filterRotation is the seeded order in which the dashboard reader
// walks the 128 series.
func (g gen) filterRotation() []metricsdb.Filter {
	rng := g.stream("filters")
	out := make([]metricsdb.Filter, 0, fleetSystems*fleetBenchmarks)
	for _, i := range rng.Perm(fleetSystems * fleetBenchmarks) {
		out = append(out, seriesFilter(i/fleetBenchmarks, i%fleetBenchmarks))
	}
	return out
}
