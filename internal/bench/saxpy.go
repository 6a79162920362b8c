package bench

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/caliper"
	"repro/internal/mpisim"
)

func init() { register("saxpy", runSaxpy) }

// saxpyKernel is the paper's Figure 7 kernel, verbatim in Go.
func saxpyKernel(r, x, y []float32, a float32) {
	for i := range r {
		r[i] = a*x[i] + y[i]
	}
}

// maxRealElems bounds the work a rank really does: it computes every
// element of its touched region, the first min(n, maxRealElems), and
// the time for the full problem size is charged to the simulated
// clock. The work is bounded here; tileElems bounds the memory.
const maxRealElems = 1 << 22

// tileElems is the length of the one buffer per array a kernel sweeps
// its touched region through, tile by tile: small enough to stay in
// cache, so a rank's arrays take at most 3 × 32 KiB whatever its n.
const tileElems = 1 << 12

// saxpyTiles holds idle x, y, r tile sets, one per rank: like mpisim's
// arrays, a rank's tiles outlive its job, recycled rather than
// collected.
var saxpyTiles = sync.Pool{New: func() any { return new([3][tileElems]float32) }}

func runSaxpy(p Params) (*Output, error) {
	vars := varReader{vars: p.Vars}
	n := vars.int("n", 1)
	// Fault injection for failure-path testing: inject_failure=<rank>
	// makes that rank abort mid-kernel (a simulated node fault).
	failRank := vars.int("inject_failure", -1)
	if vars.err != nil {
		return nil, vars.err
	}
	if n <= 0 {
		return nil, fmt.Errorf("saxpy: problem size n = %d", n)
	}
	const a = float32(2.0)

	useGPU := p.Variant == "cuda" || p.Variant == "rocm"
	if useGPU {
		gpu := p.System.Node.GPU
		if gpu == nil {
			return nil, fmt.Errorf("saxpy: variant %q but system %s has no GPUs", p.Variant, p.System.Name)
		}
		if gpu.Runtime != p.Variant {
			return nil, fmt.Errorf("saxpy: variant %q but %s GPUs use %s", p.Variant, p.System.Name, gpu.Runtime)
		}
	}

	out, err := runRanks("saxpy", p, func(c *mpisim.Comm, rec *caliper.Recorder) (string, error) {
		if c.Rank() == failRank {
			return "", fmt.Errorf("saxpy: rank %d received SIGBUS (injected node fault)", c.Rank())
		}
		rec.Begin("main")

		real := min(n, maxRealElems)
		tiles := saxpyTiles.Get().(*[3][tileElems]float32)
		defer saxpyTiles.Put(tiles)
		width := min(real, tileElems)
		x, y, r := tiles[0][:width], tiles[1][:width], tiles[2][:width]

		rec.Begin("saxpy_kernel")
		// The checksum of the touched region, summed in index order.
		var local float64
		for off := 0; off < real; off += len(x) {
			m := min(len(x), real-off)
			for i := range m {
				x[i] = float32((off+i)%97) * 0.5
				y[i] = float32((off+i)%31) * 0.25
			}
			saxpyKernel(r[:m], x[:m], y[:m], a)
			for _, v := range r[:m] {
				local += float64(v)
			}
		}
		// Charge the full problem: 3 arrays streamed, 4 bytes each.
		if useGPU {
			if err := c.ComputeOnGPU(2*float64(n), 12*float64(n)); err != nil {
				return "", err
			}
		} else {
			chargeMemory(c, p, 12*float64(n))
		}
		rec.End("saxpy_kernel")
		rec.AddMetric("elements", float64(n))

		// Verify: the checksum agrees across ranks.
		rec.Begin("checksum")
		global := c.Allreduce([]float64{local}, mpisim.OpSum)
		rec.End("checksum")
		rec.End("main")
		if c.Rank() != 0 {
			return "", nil
		}
		want := float64(p.Ranks) * local
		status := "ok"
		if diff := global[0] - want; diff > 1e-6 || diff < -1e-6 {
			status = "MISMATCH"
		}
		var b strings.Builder
		fmt.Fprintf(&b, "saxpy: n=%d ranks=%d threads=%d variant=%s\n", n, p.Ranks, p.Threads, variantLabel(p))
		fmt.Fprintf(&b, "checksum: %.6e (%s)\n", global[0], status)
		fmt.Fprintf(&b, "saxpy_time: %.9f s\n", c.Now())
		writePAPI(&b, p, 2*float64(n)*float64(p.Ranks), 12*float64(n)*float64(p.Ranks))
		fmt.Fprintf(&b, "Kernel done\n")
		return b.String(), nil
	})
	if err != nil {
		return nil, err
	}
	out.Metadata.Setf("n", "%d", n)
	return out, nil
}

func variantLabel(p Params) string {
	if p.Variant == "" {
		return "openmp"
	}
	return p.Variant
}
