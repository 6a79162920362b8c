package bench

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/caliper"
	"repro/internal/mpisim"
)

func init() { register("amg2023", runAMG) }

// grid is a local structured grid of nx×ny×nz points with spacing 1.
type grid struct {
	nx, ny, nz int
	v          []float64
}

// newGrid returns a zeroed grid whose values the rank of c owns.
func newGrid(c *mpisim.Comm, nx, ny, nz int) *grid {
	return &grid{nx: nx, ny: ny, nz: nz, v: c.Alloc(nx * ny * nz)}
}

func (g *grid) idx(i, j, k int) int { return i + g.nx*(j+g.ny*k) }
func (g *grid) len() int            { return len(g.v) }

// at returns the value at (i,j,k), consulting the six neighbor halo
// planes one cell outside the local extent; absent halos (global
// boundaries, or nil during local preconditioner smoothing) close the
// domain with Dirichlet zero.
func (g *grid) at(i, j, k int, h *halos) float64 {
	switch {
	case i == -1:
		if h != nil && h[xlo] != nil {
			return h[xlo][j+g.ny*k]
		}
		return 0
	case i == g.nx:
		if h != nil && h[xhi] != nil {
			return h[xhi][j+g.ny*k]
		}
		return 0
	case j == -1:
		if h != nil && h[ylo] != nil {
			return h[ylo][i+g.nx*k]
		}
		return 0
	case j == g.ny:
		if h != nil && h[yhi] != nil {
			return h[yhi][i+g.nx*k]
		}
		return 0
	case k == -1:
		if h != nil && h[zlo] != nil {
			return h[zlo][i+g.nx*j]
		}
		return 0
	case k == g.nz:
		if h != nil && h[zhi] != nil {
			return h[zhi][i+g.nx*j]
		}
		return 0
	case i < 0 || i > g.nx || j < 0 || j > g.ny || k < -1 || k > g.nz:
		return 0
	}
	return g.v[g.idx(i, j, k)]
}

// applyA computes q = A·u for the 7-point Laplacian with the given
// halos (nil = fully local with Dirichlet closure). Cells with all six
// neighbors inside u index them directly; the rest go through at. Both
// sum in the order ((((x- + x+) + y-) + y+) + z-) + z+.
func applyA(q, u *grid, h *halos) {
	nx, nxy := u.nx, u.nx*u.ny
	for k := 0; k < u.nz; k++ {
		for j := 0; j < u.ny; j++ {
			row := u.idx(0, j, k)
			inner := j > 0 && j < u.ny-1 && k > 0 && k < u.nz-1
			for i := 0; i < nx; i++ {
				if inner && i == 1 {
					for ; i < nx-1; i++ {
						n := row + i
						s := u.v[n-1] + u.v[n+1] + u.v[n-nx] + u.v[n+nx] + u.v[n-nxy] + u.v[n+nxy]
						q.v[n] = 6*u.v[n] - s
					}
				}
				s := u.at(i-1, j, k, h) + u.at(i+1, j, k, h) +
					u.at(i, j-1, k, h) + u.at(i, j+1, k, h) +
					u.at(i, j, k-1, h) + u.at(i, j, k+1, h)
				q.v[row+i] = 6*u.v[row+i] - s
			}
		}
	}
}

// jacobi runs sweeps of damped Jacobi on A u = f with zero halos
// (local preconditioner smoothing); au is scratch for A·u.
func jacobi(u, f, au *grid, sweeps int, omega float64) {
	for s := 0; s < sweeps; s++ {
		applyA(au, u, nil)
		for n := range u.v {
			u.v[n] += omega / 6.0 * (f.v[n] - au.v[n])
		}
	}
}

// restrictGrid averages 2×2×2 blocks of fine into coarse (R = Pᵀ/8
// for piecewise-constant P).
func restrictGrid(coarse, fine *grid) {
	for k := 0; k < coarse.nz; k++ {
		for j := 0; j < coarse.ny; j++ {
			for i := 0; i < coarse.nx; i++ {
				var sum float64
				var cnt float64
				for dk := 0; dk < 2; dk++ {
					for dj := 0; dj < 2; dj++ {
						for di := 0; di < 2; di++ {
							fi, fj, fk := 2*i+di, 2*j+dj, 2*k+dk
							if fi < fine.nx && fj < fine.ny && fk < fine.nz {
								sum += fine.v[fine.idx(fi, fj, fk)]
								cnt++
							}
						}
					}
				}
				coarse.v[coarse.idx(i, j, k)] = sum / cnt * 4 // rediscretization scaling (h→2h)
			}
		}
	}
}

// prolongAdd adds the piecewise-constant interpolation of coarse into
// fine.
func prolongAdd(fine, coarse *grid) {
	for k := 0; k < fine.nz; k++ {
		for j := 0; j < fine.ny; j++ {
			for i := 0; i < fine.nx; i++ {
				ci, cj, ck := i/2, j/2, k/2
				if ci >= coarse.nx {
					ci = coarse.nx - 1
				}
				if cj >= coarse.ny {
					cj = coarse.ny - 1
				}
				if ck >= coarse.nz {
					ck = coarse.nz - 1
				}
				fine.v[fine.idx(i, j, k)] += coarse.v[coarse.idx(ci, cj, ck)]
			}
		}
	}
}

func half(n int) int {
	h := n / 2
	if h < 2 {
		h = 2
	}
	return h
}

// mgScratch is one multigrid level's temporaries: the smoother's A·u,
// the residual, its restriction and the coarse-grid correction.
type mgScratch struct{ au, r, rc, ec *grid }

// newMGScratch builds, once per rank, the scratch of every level of a
// V-cycle that starts at nx×ny×nz on the given level.
func newMGScratch(c *mpisim.Comm, nx, ny, nz, level int) []mgScratch {
	ws := make([]mgScratch, level+1)
	for ; level >= 0; level-- {
		cx, cy, cz := half(nx), half(ny), half(nz)
		ws[level] = mgScratch{newGrid(c, nx, ny, nz), newGrid(c, nx, ny, nz), newGrid(c, cx, cy, cz), newGrid(c, cx, cy, cz)}
		nx, ny, nz = cx, cy, cz
	}
	return ws
}

// vcycle is one local multigrid V-cycle on A e = r (zero halos).
func vcycle(u, f *grid, level int, ws []mgScratch) {
	w := ws[level]
	if level == 0 || (u.nx <= 2 && u.ny <= 2 && u.nz <= 2) {
		jacobi(u, f, w.au, 30, 0.8)
		return
	}
	jacobi(u, f, w.au, 2, 0.8)
	// residual
	applyA(w.r, u, nil)
	for n := range w.r.v {
		w.r.v[n] = f.v[n] - w.r.v[n]
	}
	restrictGrid(w.rc, w.r)
	clear(w.ec.v) // the coarse solve starts from zero
	vcycle(w.ec, w.rc, level-1, ws)
	prolongAdd(u, w.ec)
	jacobi(u, f, w.au, 2, 0.8)
}

// newSlabExchanger is the (1,1,p) special case of newHaloExchanger,
// for kernels that only decompose in z.
func newSlabExchanger(c *mpisim.Comm) *haloExchanger {
	return newHaloExchanger(c, newProcGrid(c.Rank(), c.Size(), 1, 1, c.Size()))
}

// runAMG is the AMG2023 proxy: a 3-D Poisson problem solved by
// multigrid-preconditioned conjugate gradient over a px×py×pz process
// grid with halo exchange.
func runAMG(p Params) (*Output, error) {
	vars := varReader{vars: p.Vars}
	nx, ny, nz := vars.int("nx", 32), vars.int("ny", 32), vars.int("nz", 32)
	px, py := vars.int("px", 1), vars.int("py", 1)
	pz := vars.int("pz", 0) // 0 = remaining ranks in z
	maxIters := vars.int("max_iterations", 200)
	tol := vars.float("tolerance", 1e-8)
	if vars.err != nil {
		return nil, vars.err
	}
	if pz == 0 && px > 0 && py > 0 {
		if p.Ranks%(px*py) != 0 {
			return nil, fmt.Errorf("amg2023: %d ranks do not fill a %dx%dx* grid", p.Ranks, px, py)
		}
		pz = p.Ranks / (px * py)
	}
	if err := validateDecomposition(p.Ranks, px, py, pz); err != nil {
		return nil, err
	}
	if nx < 2 || ny < 2 || nz < 2 {
		return nil, fmt.Errorf("amg2023: grid %dx%dx%d too small", nx, ny, nz)
	}
	useGPU := p.Variant == "cuda" || p.Variant == "rocm"
	if useGPU {
		gpu := p.System.Node.GPU
		if gpu == nil || gpu.Runtime != p.Variant {
			return nil, fmt.Errorf("amg2023: variant %q unavailable on %s", p.Variant, p.System.Name)
		}
	}
	levels := 0
	for m := min(nx, ny, nz); m > 4; m /= 2 {
		levels++
	}

	nLocal := nx * ny * nz
	// Simulated cost of one full-grid sweep (stencil is memory bound:
	// ~9 accesses of 8 bytes per point).
	sweepBytes := 72 * float64(nLocal)
	charge := func(c *mpisim.Comm, mult float64) error {
		if useGPU {
			return c.ComputeOnGPU(10*float64(nLocal)*mult, sweepBytes*mult)
		}
		chargeMemory(c, p, sweepBytes*mult)
		return nil
	}

	var iterations int
	out, err := runRanks("amg2023", p, func(c *mpisim.Comm, rec *caliper.Recorder) (string, error) {
		rec.Begin("main")
		hx := newHaloExchanger(c, newProcGrid(c.Rank(), c.Size(), px, py, pz))

		// --- setup phase ----------------------------------------------
		rec.Begin("setup")
		x := newGrid(c, nx, ny, nz)
		b := newGrid(c, nx, ny, nz)
		for n := range b.v {
			b.v[n] = 1.0
		}
		if err := charge(c, 2); err != nil { // grid + matrix setup
			return "", err
		}
		rec.End("setup")

		// --- solve phase: MG-preconditioned CG --------------------------
		rec.Begin("solve")
		r := newGrid(c, nx, ny, nz)
		q := newGrid(c, nx, ny, nz)
		// r = b - A x  (x = 0)
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
		normB := math.Sqrt(allSum(dot(b, b)))
		resNorm := math.Sqrt(allSum(dot(r, r)))

		z, ws := newGrid(c, nx, ny, nz), newMGScratch(c, nx, ny, nz, levels)
		precond := func(rr *grid) error {
			clear(z.v) // the V-cycle's initial guess
			rec.Begin("vcycle")
			vcycle(z, rr, levels, ws)
			// ~4 smoother sweeps per level plus transfers.
			if err := charge(c, float64(4*levels+2)); err != nil {
				return err
			}
			rec.End("vcycle")
			return nil
		}

		if err := precond(r); err != nil {
			return "", err
		}
		pv := newGrid(c, nx, ny, nz)
		copy(pv.v, z.v)
		rz := allSum(dot(r, z))
		iters := 0
		converged := false
		for iters < maxIters {
			if rz <= 0 {
				// Preconditioner lost positive definiteness; restart
				// with the identity preconditioner for robustness.
				copy(pv.v, r.v)
				rz = allSum(dot(r, r))
			}
			rec.Begin("matvec")
			applyA(q, pv, hx.exchange(pv))
			hx.release()
			if err := charge(c, 1); err != nil {
				return "", err
			}
			rec.End("matvec")
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
			iters++
			resNorm = math.Sqrt(allSum(dot(r, r)))
			if resNorm <= tol*normB {
				converged = true
				break
			}
			if err := precond(r); err != nil {
				return "", err
			}
			rzNew := allSum(dot(r, z))
			beta := rzNew / rz
			rz = rzNew
			for n := range pv.v {
				pv.v[n] = z.v[n] + beta*pv.v[n]
			}
			chargeFlops(c, p, 2*float64(nLocal))
		}
		rec.End("solve")
		rec.End("main")
		rec.AddMetric("iterations", float64(iters))
		if c.Rank() != 0 {
			return "", nil
		}
		iterations = iters
		setup := rec.Region("main/setup").Total
		solve := rec.Region("main/solve").Total
		dofGlobal := float64(nLocal) * float64(p.Ranks)
		fom := dofGlobal * float64(iters) / solve
		status := "converged"
		if !converged {
			status = "max-iterations"
		}
		var tb strings.Builder
		fmt.Fprintf(&tb, "AMG2023 proxy: grid %dx%dx%d per rank, ranks=%d (P %dx%dx%d) variant=%s\n"+
			"Setup time: %.6f s\nSolve time: %.6f s\nIterations: %d (%s)\n"+
			"Relative residual: %.3e\nFigure of Merit (FOM_Solve): %.4e\n",
			nx, ny, nz, p.Ranks, px, py, pz, variantLabel(p), setup, solve, iters, status,
			resNorm/normB, fom)
		writePAPI(&tb, p,
			float64(iters)*float64(nLocal)*float64(p.Ranks)*50,
			float64(iters)*sweepBytes*float64(p.Ranks))
		tb.WriteString("Kernel done\n")
		return tb.String(), nil
	})
	if err != nil {
		return nil, err
	}
	out.Metadata.Setf("grid", "%dx%dx%d", nx, ny, nz)
	out.Metadata.Setf("iterations", "%d", iterations)
	return out, nil
}
