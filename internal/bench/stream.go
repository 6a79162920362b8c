package bench

import (
	"fmt"

	"repro/internal/caliper"
	"repro/internal/mpisim"
)

func init() { register("stream", runStream) }

// triad computes a[i] = b[i] + s·c[i] for the first realN elements of
// the touched region, tile by tile through a, b and c, and returns
// the last tile of a it swept.
func triad(a, b, c []float64, s float64, realN int) (last []float64) {
	for off := 0; off < realN; off += len(a) {
		last = a[:min(len(a), realN-off)]
		bt, ct := b[:len(last)], c[:len(last)]
		for i := range last {
			last[i] = bt[i] + s*ct[i]
		}
	}
	return last
}

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
		realN := min(n, maxRealElems)
		a := c.Alloc(min(realN, tileElems))
		b := c.Alloc(len(a))
		cc := c.Alloc(len(a))
		for i := range b {
			b[i] = 1.0
			cc[i] = 2.0
		}
		rec.Begin("triad")
		start := c.Now()
		var last []float64 // the last tile swept
		for it := 0; it < iters; it++ {
			last = triad(a, b, cc, s, realN)
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
		for i, v := range last {
			if v != b[i]+s*cc[i] {
				text += "VALIDATION FAILED\n"
				break
			}
		}
		return text, nil
	})
	if err != nil {
		return nil, err
	}
	out.Metadata.Setf("n", "%d", n)
	return out, nil
}
