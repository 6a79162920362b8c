package bench

import (
	"math"
	"math/rand"
	"regexp"
	"runtime"
	"testing"

	"repro/internal/mpisim"
)

// TestGUPSSmallTables: the checksum covers min(64, table) entries.
// Tables of 16 and 32 entries are accepted sizes and used to panic at
// table[:64]; 64 entries and up print what they always printed.
func TestGUPSSmallTables(t *testing.T) {
	b, _ := Get("gups")
	for log2, checksum := range map[string]string{"4": "2016", "5": "8128", "6": "32640"} {
		out, err := b.Run(Params{System: system(t, "cts1"), Ranks: 4, RanksPerNode: 4,
			Vars: map[string]string{"log2_table_size": log2}})
		if err != nil {
			t.Errorf("log2_table_size=%s: %v", log2, err)
			continue
		}
		if m := regexp.MustCompile(`Table checksum: (\d+)`).FindStringSubmatch(out.Text); m == nil || m[1] != checksum {
			t.Errorf("log2_table_size=%s: checksum %v, want %s in\n%s", log2, m, checksum, out.Text)
		}
	}
}

// applyARef is applyA as first written: every neighbor of every cell
// through at's halo switch.
func applyARef(q, u *grid, h *halos) {
	for k := 0; k < u.nz; k++ {
		for j := 0; j < u.ny; j++ {
			for i := 0; i < u.nx; i++ {
				c := u.v[u.idx(i, j, k)]
				s := u.at(i-1, j, k, h) + u.at(i+1, j, k, h) +
					u.at(i, j-1, k, h) + u.at(i, j+1, k, h) +
					u.at(i, j, k-1, h) + u.at(i, j, k+1, h)
				q.v[q.idx(i, j, k)] = 6*c - s
			}
		}
	}
}

// TestApplyAMatchesReference: the stencil's direct-indexed interior is
// bit-identical to the all-at reference for every combination of
// present and absent halos, on extents down to 2.
func TestApplyAMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	fill := func(v []float64) []float64 {
		for i := range v {
			v[i] = rng.NormFloat64() * math.Exp(rng.NormFloat64()*8)
		}
		return v
	}
	for _, dims := range [][3]int{{2, 2, 2}, {3, 2, 4}, {2, 5, 3}, {3, 3, 3}, {4, 7, 5}, {16, 16, 16}} {
		nx, ny, nz := dims[0], dims[1], dims[2]
		u := newGrid(nx, ny, nz)
		fill(u.v)
		for mask := -1; mask < 1<<6; mask++ { // -1: no halos at all
			var h *halos
			if mask >= 0 {
				h = &halos{}
				for face, n := range [6]int{ny * nz, ny * nz, nx * nz, nx * nz, nx * ny, nx * ny} {
					if mask&(1<<face) != 0 {
						h[face] = fill(make([]float64, n))
					}
				}
			}
			got, want := newGrid(nx, ny, nz), newGrid(nx, ny, nz)
			applyA(got, u, h)
			applyARef(want, u, h)
			for n := range want.v {
				if math.Float64bits(got.v[n]) != math.Float64bits(want.v[n]) {
					t.Fatalf("%v halos %06b: q[%d] = %x, reference %x", dims, mask, n,
						math.Float64bits(got.v[n]), math.Float64bits(want.v[n]))
				}
			}
		}
	}
}

// TestHaloExchangeAllocationBudget: a rank's exchanger owns its edge
// list and pack scratch and hands the six planes back after use, so in
// steady state a 3-D halo exchange allocates (next to) nothing per
// message.
func TestHaloExchangeAllocationBudget(t *testing.T) {
	job := func(iters int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := mpisim.Run(system(t, "cts1"), 8, 8, func(c *mpisim.Comm) error {
			u, hx := newGrid(8, 8, 8), newHaloExchanger(c, newProcGrid(c.Rank(), 8, 2, 2, 2))
			for i := 0; i < iters; i++ {
				if h := hx.exchange(u); h[xlo] == nil && h[xhi] == nil {
					t.Errorf("rank %d exchanged no x plane", c.Rank())
				}
				hx.release()
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	job(20)                // the runtime's first-use costs
	const messages = 8 * 3 // per iteration: every rank of the 2×2×2 cube has three neighbors
	perMessage := (float64(job(520)) - float64(job(20))) / 500 / messages
	t.Logf("%.2f bytes allocated per halo message in steady state", perMessage)
	if !raceEnabled && perMessage > 16 {
		t.Errorf("a halo exchange allocates %.1f bytes per message in steady state, want <= 16", perMessage)
	}
}
