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
		Name: "lulesh",
		Description: "LULESH-style shock-hydro proxy: explicit timestepping with a " +
			"per-step courant Allreduce and slab halo exchange",
		Workloads: []string{"hydro"},
		Run:       runLulesh,
	})
}

// runLulesh models the Sedov blast problem the real LULESH runs: an
// explicit time integration where every step computes new nodal
// forces (stencil sweep), exchanges boundary planes, and agrees on
// the next timestep with an Allreduce(min) — the communication
// pattern that dominates LULESH at scale.
func runLulesh(p Params) (*Output, error) {
	if err := validate(&p); err != nil {
		return nil, err
	}
	size, err := p.IntVar("size", 24) // elements per edge per rank
	if err != nil {
		return nil, err
	}
	steps, err := p.IntVar("iterations", 40)
	if err != nil {
		return nil, err
	}
	if size < 4 || steps < 1 {
		return nil, fmt.Errorf("lulesh: size=%d iterations=%d", size, steps)
	}
	nLocal := size * size * size

	profiles := make([]*caliper.Profile, p.Ranks)
	var text string
	res, err := mpisim.Run(p.System, p.Ranks, p.RanksPerNode, func(c *mpisim.Comm) error {
		rec := caliper.NewRecorder(c.Now)
		rec.Begin("main")

		// Energy field with a point deposit at rank 0's origin — the
		// Sedov initial condition.
		e := newGrid(size, size, size)
		if c.Rank() == 0 {
			e.v[0] = 3.948746e+7
		}
		eNew, hx := newGrid(size, size, size), newSlabExchanger(c)
		dt := 1e-7
		elapsedT := 0.0

		rec.Begin("timesteps")
		for s := 0; s < steps; s++ {
			// Halo exchange of the energy boundary planes.
			rec.Begin("halo")
			h := hx.exchange(e)
			if err := rec.End("halo"); err != nil {
				return err
			}

			// Force/energy update: diffusion-flavored stencil standing
			// in for the hydro kernels (CalcForceForNodes etc.).
			rec.Begin("stencil")
			applyA(eNew, e, h)
			hx.release()
			for n := range eNew.v {
				eNew.v[n] = e.v[n] - dt*1e4*eNew.v[n]
				if eNew.v[n] < 0 {
					eNew.v[n] = 0
				}
			}
			e, eNew = eNew, e
			chargeMemory(c, p, 72*float64(nLocal))
			chargeFlops(c, p, 30*float64(nLocal))
			if err := rec.End("stencil"); err != nil {
				return err
			}

			// Courant condition: global minimum timestep.
			rec.Begin("dt_allreduce")
			localDt := 1e-7 * (1 + 0.1*math.Abs(math.Sin(float64(c.Rank()+s))))
			dt = allreduce1(c, localDt, mpisim.OpMin)
			if err := rec.End("dt_allreduce"); err != nil {
				return err
			}
			elapsedT += dt
		}
		if err := rec.End("timesteps"); err != nil {
			return err
		}
		if err := rec.End("main"); err != nil {
			return err
		}
		rec.AddMetric("timesteps", float64(steps))
		prof, err := rec.Snapshot()
		if err != nil {
			return err
		}
		profiles[c.Rank()] = prof

		// Total energy is conserved up to the sink term: verify it is
		// finite and non-negative everywhere.
		var local float64
		for _, v := range e.v {
			if v < 0 || math.IsNaN(v) {
				return fmt.Errorf("lulesh: energy field corrupt on rank %d", c.Rank())
			}
			local += v
		}
		total := c.Allreduce([]float64{local}, mpisim.OpSum)
		if c.Rank() == 0 {
			wall := prof.Region("main").Total
			zonesPerSec := float64(nLocal) * float64(p.Ranks) * float64(steps) / wall
			var tb strings.Builder
			fmt.Fprintf(&tb, "LULESH proxy: %d^3 elements per rank, ranks=%d\n", size, p.Ranks)
			fmt.Fprintf(&tb, "Iteration count: %d\n", steps)
			fmt.Fprintf(&tb, "Final origin energy: %.6e\n", total[0])
			fmt.Fprintf(&tb, "Grind time (us/z/c): %.6f\n", 1e6/zonesPerSec*float64(p.Ranks))
			fmt.Fprintf(&tb, "FOM (z/s): %.6e\n", zonesPerSec)
			writePAPI(&tb, p, 30*float64(nLocal)*float64(steps)*float64(p.Ranks),
				72*float64(nLocal)*float64(steps)*float64(p.Ranks))
			tb.WriteString("Kernel done\n")
			text = tb.String()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	md := baseMetadata("lulesh", p)
	md.Setf("size", "%d", size)
	return &Output{Text: text, Elapsed: res.MaxTime, Profile: caliper.MergeRanks(profiles), Metadata: md}, nil
}
