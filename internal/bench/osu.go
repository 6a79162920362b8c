package bench

import (
	"fmt"

	"repro/internal/caliper"
	"repro/internal/mpisim"
)

func init() {
	register(Benchmark{
		Name:        "osu-micro-benchmarks",
		Description: "OSU-style MPI micro-benchmarks: bcast, allreduce, latency",
		Workloads:   []string{"osu_bcast", "osu_allreduce", "osu_latency"},
		Run:         runOSU,
	})
}

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

func runOSU(p Params) (*Output, error) {
	if err := validate(&p); err != nil {
		return nil, err
	}
	workload := p.Var("workload", "osu_bcast")
	msgBytes, err := p.IntVar("message_size", 1<<20)
	if err != nil {
		return nil, err
	}
	iters, err := p.IntVar("iterations", 32000)
	if err != nil {
		return nil, err
	}
	if msgBytes < 8 || iters <= 0 {
		return nil, fmt.Errorf("osu: message_size=%d iterations=%d", msgBytes, iters)
	}
	elems := msgBytes / 8

	profiles := make([]*caliper.Profile, p.Ranks)
	var text string
	res, err := mpisim.Run(p.System, p.Ranks, p.RanksPerNode, func(c *mpisim.Comm) error {
		rec := caliper.NewRecorder(c.Now)
		// Like the real benchmarks, a rank allocates its message once and
		// recycles what each repetition receives.
		op := func() error { return nil }
		switch workload {
		case "osu_bcast":
			var buf []float64
			if c.Rank() == 0 {
				buf = make([]float64, elems)
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
			buf := make([]float64, elems)
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
				return fmt.Errorf("osu_latency needs 2 ranks")
			}
			buf := make([]float64, elems)
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
			return fmt.Errorf("osu: unknown workload %q", workload)
		}

		reps := measuredRepsFor(p.Ranks)
		// Warmup, then timed repetitions.
		rec.Begin("warmup")
		if err := op(); err != nil {
			return err
		}
		if err := rec.End("warmup"); err != nil {
			return err
		}
		c.Barrier()
		start := c.Now()
		rec.Begin("MPI_" + workload[4:])
		for i := 0; i < reps; i++ {
			if err := op(); err != nil {
				return err
			}
		}
		if err := rec.End("MPI_" + workload[4:]); err != nil {
			return err
		}
		perIter := (c.Now() - start) / float64(reps)

		// The slowest rank defines the collective's time.
		maxPerIter := c.Allreduce([]float64{perIter}, mpisim.OpMax)
		prof, err := rec.Snapshot()
		if err != nil {
			return err
		}
		profiles[c.Rank()] = prof
		if c.Rank() == 0 {
			total := maxPerIter[0] * float64(iters)
			text = fmt.Sprintf("OSU %s: message_size=%d ranks=%d iterations=%d\n"+
				"Avg latency: %.3f us\nTotal time: %.6f s\nKernel done\n",
				workload, msgBytes, p.Ranks, iters, maxPerIter[0]*1e6, total)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	md := baseMetadata("osu-micro-benchmarks", p)
	md.Set("workload", workload)
	md.Setf("message_size", "%d", msgBytes)
	md.Setf("iterations", "%d", iters)
	return &Output{Text: text, Elapsed: res.MaxTime, Profile: caliper.MergeRanks(profiles), Metadata: md}, nil
}
