package bench

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/caliper"
	"repro/internal/mpisim"
)

func init() {
	register(Benchmark{
		Name: "hpcg",
		Description: "High Performance Conjugate Gradients: fixed-iteration " +
			"Jacobi-preconditioned CG on a 7-point stencil, reporting GFLOP/s",
		Workloads: []string{"hpcg"},
		Run:       runHPCG,
	})
}

// runHPCG runs a fixed number of CG iterations (HPCG's rating model)
// and reports the sustained GFLOP/s figure of merit.
func runHPCG(p Params) (*Output, error) {
	if err := validate(&p); err != nil {
		return nil, err
	}
	nx, err := p.IntVar("nx", 32)
	if err != nil {
		return nil, err
	}
	ny, err := p.IntVar("ny", 32)
	if err != nil {
		return nil, err
	}
	nz, err := p.IntVar("nz", 32)
	if err != nil {
		return nil, err
	}
	iters, err := p.IntVar("iterations", 50)
	if err != nil {
		return nil, err
	}
	if nx < 2 || ny < 2 || nz < 2 || iters < 1 {
		return nil, fmt.Errorf("hpcg: bad geometry %dx%dx%d iters=%d", nx, ny, nz, iters)
	}
	nLocal := nx * ny * nz

	// FLOP accounting per iteration (HPCG-style):
	//   SpMV: 2 flops × 7 nonzeros × n; dots: 3 × 2n; axpys: 3 × 2n;
	//   Jacobi preconditioner: 2n.
	flopsPerIter := float64(nLocal) * (14 + 6 + 6 + 2)

	profiles := make([]*caliper.Profile, p.Ranks)
	var text string
	res, err := mpisim.Run(p.System, p.Ranks, p.RanksPerNode, func(c *mpisim.Comm) error {
		rec := caliper.NewRecorder(c.Now)
		rec.Begin("main")
		x := newGrid(nx, ny, nz)
		b := newGrid(nx, ny, nz)
		for n := range b.v {
			b.v[n] = 1.0
		}
		r := newGrid(nx, ny, nz)
		q := newGrid(nx, ny, nz)
		pv := newGrid(nx, ny, nz)
		copy(r.v, b.v)

		dot := func(a, bb *grid) float64 {
			var s float64
			for n := range a.v {
				s += a.v[n] * bb.v[n]
			}
			chargeFlops(c, p, 2*float64(nLocal))
			return s
		}
		allSum := func(v float64) float64 { return allreduce1(c, v, mpisim.OpSum) }

		// z = D^{-1} r (Jacobi preconditioner; D = 6).
		z, hx := newGrid(nx, ny, nz), newSlabExchanger(c)
		precond := func(rr *grid) {
			for n := range z.v {
				z.v[n] = rr.v[n] / 6.0
			}
			chargeMemory(c, p, 16*float64(nLocal))
		}

		start := c.Now()
		rec.Begin("cg")
		precond(r)
		copy(pv.v, z.v)
		rz := allSum(dot(r, z))
		residual := math.Sqrt(allSum(dot(r, r)))
		for it := 0; it < iters; it++ {
			rec.Begin("spmv")
			applyA(q, pv, hx.exchange(pv))
			hx.release()
			chargeMemory(c, p, 72*float64(nLocal))
			if err := rec.End("spmv"); err != nil {
				return err
			}
			pq := allSum(dot(pv, q))
			if pq == 0 {
				break
			}
			alpha := rz / pq
			for n := range x.v {
				x.v[n] += alpha * pv.v[n]
				r.v[n] -= alpha * q.v[n]
			}
			chargeFlops(c, p, 4*float64(nLocal))
			precond(r)
			rzNew := allSum(dot(r, z))
			beta := rzNew / rz
			rz = rzNew
			for n := range pv.v {
				pv.v[n] = z.v[n] + beta*pv.v[n]
			}
			chargeFlops(c, p, 2*float64(nLocal))
		}
		residual = math.Sqrt(allSum(dot(r, r)))
		if err := rec.End("cg"); err != nil {
			return err
		}
		elapsed := c.Now() - start
		if err := rec.End("main"); err != nil {
			return err
		}
		prof, err := rec.Snapshot()
		if err != nil {
			return err
		}
		profiles[c.Rank()] = prof

		if c.Rank() == 0 {
			totalFlops := flopsPerIter * float64(iters) * float64(p.Ranks)
			gflops := totalFlops / elapsed / 1e9
			var tb strings.Builder
			fmt.Fprintf(&tb, "HPCG: grid %dx%dx%d per rank, ranks=%d, %d iterations\n",
				nx, ny, nz, p.Ranks, iters)
			fmt.Fprintf(&tb, "Final residual: %.6e\n", residual)
			fmt.Fprintf(&tb, "Benchmark time: %.6f s\n", elapsed)
			fmt.Fprintf(&tb, "HPCG rating (GFLOP/s): %.4f\n", gflops)
			writePAPI(&tb, p, totalFlops, 72*float64(nLocal)*float64(iters)*float64(p.Ranks))
			tb.WriteString("Kernel done\n")
			text = tb.String()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	md := baseMetadata("hpcg", p)
	md.Setf("grid", "%dx%dx%d", nx, ny, nz)
	return &Output{Text: text, Elapsed: res.MaxTime, Profile: caliper.MergeRanks(profiles), Metadata: md}, nil
}
