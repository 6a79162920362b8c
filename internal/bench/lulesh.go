package bench

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/caliper"
	"repro/internal/mpisim"
)

func init() { register("lulesh", runLulesh) }

// runLulesh models the Sedov blast problem the real LULESH runs: an
// explicit time integration where every step computes new nodal
// forces (stencil sweep), exchanges boundary planes, and agrees on
// the next timestep with an Allreduce(min) — the communication
// pattern that dominates LULESH at scale.
func runLulesh(p Params) (*Output, error) {
	vars := varReader{vars: p.Vars}
	size := vars.int("size", 24) // elements per edge per rank
	steps := vars.int("iterations", 40)
	if vars.err != nil {
		return nil, vars.err
	}
	if size < 4 || steps < 1 {
		return nil, fmt.Errorf("lulesh: size=%d iterations=%d", size, steps)
	}
	nLocal := size * size * size

	out, err := runRanks("lulesh", p, func(c *mpisim.Comm, rec *caliper.Recorder) (string, error) {
		rec.Begin("main")

		// Energy field with a point deposit at rank 0's origin — the
		// Sedov initial condition.
		e := newGrid(c, size, size, size)
		if c.Rank() == 0 {
			e.v[0] = 3.948746e+7
		}
		eNew, hx := newGrid(c, size, size, size), newSlabExchanger(c)
		dt := 1e-7
		elapsedT := 0.0

		rec.Begin("timesteps")
		for s := 0; s < steps; s++ {
			// Halo exchange of the energy boundary planes.
			rec.Begin("halo")
			h := hx.exchange(e)
			rec.End("halo")

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
			rec.End("stencil")

			// Courant condition: global minimum timestep.
			rec.Begin("dt_allreduce")
			localDt := 1e-7 * (1 + 0.1*math.Abs(math.Sin(float64(c.Rank()+s))))
			dt = allreduce1(c, localDt, mpisim.OpMin)
			rec.End("dt_allreduce")
			elapsedT += dt
		}
		rec.End("timesteps")
		rec.End("main")
		rec.AddMetric("timesteps", float64(steps))

		// Total energy is conserved up to the sink term: verify it is
		// finite and non-negative everywhere.
		var local float64
		for _, v := range e.v {
			if v < 0 || math.IsNaN(v) {
				return "", fmt.Errorf("lulesh: energy field corrupt on rank %d", c.Rank())
			}
			local += v
		}
		total := c.Allreduce([]float64{local}, mpisim.OpSum)
		if c.Rank() != 0 {
			return "", nil
		}
		wall := rec.Region("main").Total
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
		return tb.String(), nil
	})
	if err != nil {
		return nil, err
	}
	out.Metadata.Setf("size", "%d", size)
	return out, nil
}
