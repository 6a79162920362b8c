package bench

import (
	"fmt"

	"repro/internal/caliper"
	"repro/internal/mpisim"
)

func init() { register("stream", runStream) }

// runStream is the STREAM triad: sustained memory bandwidth
// (a[i] = b[i] + s*c[i]).
func runStream(p Params) (*Output, error) {
	vars := varReader{vars: p.Vars}
	n, iters := vars.int("n", 10_000_000), vars.int("iterations", 10)
	if vars.err != nil {
		return nil, vars.err
	}
	if n <= 0 || iters <= 0 {
		return nil, fmt.Errorf("stream: n=%d iterations=%d", n, iters)
	}
	const s = 3.0

	out, err := runRanks("stream", p, func(c *mpisim.Comm, rec *caliper.Recorder) (string, error) {
		realN := n
		if realN > maxRealElems {
			realN = maxRealElems
		}
		a := make([]float64, realN)
		b := make([]float64, realN)
		cc := make([]float64, realN)
		for i := range b {
			b[i] = 1.0
			cc[i] = 2.0
		}
		rec.Begin("triad")
		start := c.Now()
		for it := 0; it < iters; it++ {
			for i := range a {
				a[i] = b[i] + s*cc[i]
			}
			chargeMemory(c, p, 24*float64(n)) // 3 arrays × 8 bytes
		}
		rec.End("triad")
		perRankGBs := 24 * float64(n) * float64(iters) / (c.Now() - start) / 1e9

		// Aggregate node bandwidth = sum over the ranks of one node;
		// report the min across ranks as STREAM does.
		minBW := c.Allreduce([]float64{perRankGBs}, mpisim.OpMin)
		if c.Rank() != 0 {
			return "", nil
		}
		nodeBW := minBW[0] * float64(c.RanksPerNode())
		text := fmt.Sprintf("STREAM triad: n=%d iterations=%d\nTriad: %.2f GB/s per node\nBest rank rate: %.2f GB/s\nKernel done\n",
			n, iters, nodeBW, perRankGBs)
		if a[0] != b[0]+s*cc[0] {
			text += "VALIDATION FAILED\n"
		}
		return text, nil
	})
	if err != nil {
		return nil, err
	}
	out.Metadata.Setf("n", "%d", n)
	return out, nil
}
