package bench

import (
	"fmt"

	"repro/internal/mpisim"
)

// procGrid maps MPI ranks onto a 3-D process grid (px × py × pz),
// x-fastest: rank = ix + px·(iy + py·iz).
type procGrid struct {
	px, py, pz int
	ix, iy, iz int
	rank, size int
}

// newProcGrid validates the decomposition and locates the rank.
// A zero/invalid product falls back to a 1-D z decomposition.
func newProcGrid(rank, size, px, py, pz int) procGrid {
	if px < 1 || py < 1 || pz < 1 || px*py*pz != size {
		px, py, pz = 1, 1, size
	}
	return procGrid{
		px: px, py: py, pz: pz,
		ix: rank % px, iy: (rank / px) % py, iz: rank / (px * py),
		rank: rank, size: size,
	}
}

// neighbor returns the global rank of the neighbor along dim
// (0=x,1=y,2=z) in direction dir (-1 or +1); ok=false at the global
// boundary.
func (g procGrid) neighbor(dim, dir int) (int, bool) {
	ix, iy, iz := g.ix, g.iy, g.iz
	switch dim {
	case 0:
		ix += dir
		if ix < 0 || ix >= g.px {
			return 0, false
		}
	case 1:
		iy += dir
		if iy < 0 || iy >= g.py {
			return 0, false
		}
	case 2:
		iz += dir
		if iz < 0 || iz >= g.pz {
			return 0, false
		}
	}
	return ix + g.px*(iy+g.py*iz), true
}

// halos carries the six neighbor boundary planes of a local grid
// (nil at global boundaries, where the operator applies Dirichlet
// zero), indexed 2·dim + face.
type halos [6][]float64

const (
	xlo, xhi = 0, 1 // planes at i=-1 / i=nx, indexed j + ny*k
	ylo, yhi = 2, 3 // planes at j=-1 / j=ny, indexed i + nx*k
	zlo, zhi = 4, 5 // planes at k=-1 / k=nz, indexed i + nx*j
)

// haloExchanger is one rank's halo exchange over a fixed process
// grid. It owns the neighbor list, the scratch x and y planes are
// gathered into, and the planes of the last exchange until release.
type haloExchanger struct {
	c     *mpisim.Comm
	edges []haloEdge
	pack  []float64
	h     halos
}

// haloEdge is one neighbor: the face (0 = low, 1 = high) of dimension
// dim it shares with this rank.
type haloEdge struct{ dim, face, peer int }

// newHaloExchanger lists the neighbors pg gives this rank, in the
// fixed order (x, y, z; low face first) every exchange follows.
func newHaloExchanger(c *mpisim.Comm, pg procGrid) *haloExchanger {
	x := &haloExchanger{c: c}
	for dim := 0; dim < 3; dim++ {
		for face, dir := range [2]int{-1, 1} {
			if peer, ok := pg.neighbor(dim, dir); ok {
				x.edges = append(x.edges, haloEdge{dim, face, peer})
			}
		}
	}
	return x
}

// plane returns one boundary plane of u. A z plane is contiguous in u
// and returned in place (Send copies); x and y planes are gathered
// into the exchanger's scratch.
func (x *haloExchanger) plane(u *grid, dim, face int) []float64 {
	if dim == 2 {
		k := face * (u.nz - 1)
		return u.v[k*u.nx*u.ny : (k+1)*u.nx*u.ny]
	}
	if x.pack == nil {
		x.pack = make([]float64, 0, max(u.nx, u.ny)*u.nz)
	}
	x.pack = x.pack[:0]
	for k := 0; k < u.nz; k++ {
		if dim == 1 {
			row := u.idx(0, face*(u.ny-1), k)
			x.pack = append(x.pack, u.v[row:row+u.nx]...)
			continue
		}
		for j := 0; j < u.ny; j++ {
			x.pack = append(x.pack, u.v[u.idx(face*(u.nx-1), j, k)])
		}
	}
	return x.pack
}

// exchange swaps u's boundary planes with the process-grid neighbors.
// Sends are posted for every face first (the eager runtime buffers
// them), then receives complete; the deterministic fixed-order
// protocol is deadlock-free. The planes are the exchanger's until
// release hands them back to the transport.
func (x *haloExchanger) exchange(u *grid) *halos {
	for _, e := range x.edges {
		x.c.Send(e.peer, x.plane(u, e.dim, e.face))
	}
	for _, e := range x.edges {
		x.h[2*e.dim+e.face] = x.c.Recv(e.peer)
	}
	return &x.h
}

// release hands the planes of the last exchange back to the
// transport; the halos exchange returned are empty afterwards.
func (x *haloExchanger) release() {
	for i, plane := range x.h {
		x.c.Release(plane)
		x.h[i] = nil
	}
}

// validateDecomposition checks a requested process grid against the
// rank count, with a helpful error.
func validateDecomposition(ranks, px, py, pz int) error {
	if px < 1 || py < 1 || pz < 1 {
		return fmt.Errorf("bench: process grid %dx%dx%d has non-positive extent", px, py, pz)
	}
	if px*py*pz != ranks {
		return fmt.Errorf("bench: process grid %dx%dx%d needs %d ranks, job has %d",
			px, py, pz, px*py*pz, ranks)
	}
	return nil
}
