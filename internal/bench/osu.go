package bench

import (
	"fmt"

	"repro/internal/caliper"
	"repro/internal/mpisim"
)

func init() { register("osu-micro-benchmarks", runOSU) }

// measuredRepsFor returns the number of timed repetitions actually
// executed; the reported total scales to the configured iteration
// count, which keeps a 3456-rank broadcast sweep tractable while
// still exercising the real collective code path. The simulator is
// deterministic, so one repetition suffices at large scale.
func measuredRepsFor(ranks int) int {
	if ranks >= 1024 {
		return 1
	}
	return 3
}

// runOSU runs the OSU-style MPI micro-benchmarks: bcast, allreduce
// and latency.
func runOSU(p Params) (*Output, error) {
	workload := p.Var("workload", "osu_bcast")
	vars := varReader{vars: p.Vars}
	msgBytes, iters := vars.int("message_size", 1<<20), vars.int("iterations", 32000)
	if vars.err != nil {
		return nil, vars.err
	}
	if msgBytes < 8 || iters <= 0 {
		return nil, fmt.Errorf("osu: message_size=%d iterations=%d", msgBytes, iters)
	}
	elems := msgBytes / 8

	out, err := runRanks("osu-micro-benchmarks", p, func(c *mpisim.Comm, rec *caliper.Recorder) (string, error) {
		// Like the real benchmarks, a rank allocates its message once and
		// recycles what each repetition receives.
		op := func() error { return nil }
		switch workload {
		case "osu_bcast":
			var buf []float64
			if c.Rank() == 0 {
				buf = c.Alloc(elems)
			}
			op = func() error {
				got := c.Bcast(0, buf)
				if len(got) != elems {
					return fmt.Errorf("osu_bcast: rank %d got %d elems, want %d", c.Rank(), len(got), elems)
				}
				if c.Rank() != 0 { // the root's payload is buf itself
					c.Release(got)
				}
				return nil
			}
		case "osu_allreduce":
			buf := c.Alloc(elems)
			op = func() error {
				out := c.Allreduce(buf, mpisim.OpSum)
				if len(out) != elems {
					return fmt.Errorf("osu_allreduce: bad length %d", len(out))
				}
				c.Release(out)
				return nil
			}
		case "osu_latency":
			if p.Ranks < 2 {
				return "", fmt.Errorf("osu_latency needs 2 ranks")
			}
			buf := c.Alloc(elems)
			op = func() error {
				switch c.Rank() {
				case 0:
					c.Send(1, buf)
					c.Release(c.Recv(1))
				case 1:
					got := c.Recv(0)
					c.Send(0, got)
					c.Release(got)
				}
				return nil
			}
		default:
			return "", fmt.Errorf("osu: unknown workload %q", workload)
		}

		reps := measuredRepsFor(p.Ranks)
		// Warmup, then timed repetitions.
		rec.Begin("warmup")
		if err := op(); err != nil {
			return "", err
		}
		rec.End("warmup")
		c.Barrier()
		start := c.Now()
		rec.Begin("MPI_" + workload[4:])
		for i := 0; i < reps; i++ {
			if err := op(); err != nil {
				return "", err
			}
		}
		rec.End("MPI_" + workload[4:])
		perIter := (c.Now() - start) / float64(reps)

		// The slowest rank defines the collective's time.
		maxPerIter := c.Allreduce([]float64{perIter}, mpisim.OpMax)
		if c.Rank() != 0 {
			return "", nil
		}
		total := maxPerIter[0] * float64(iters)
		return fmt.Sprintf("OSU %s: message_size=%d ranks=%d iterations=%d\n"+
			"Avg latency: %.3f us\nTotal time: %.6f s\nKernel done\n",
			workload, msgBytes, p.Ranks, iters, maxPerIter[0]*1e6, total), nil
	})
	if err != nil {
		return nil, err
	}
	out.Metadata.Set("workload", workload)
	out.Metadata.Setf("message_size", "%d", msgBytes)
	out.Metadata.Setf("iterations", "%d", iters)
	return out, nil
}
