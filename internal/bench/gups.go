package bench

import (
	"fmt"
	"strings"

	"repro/internal/caliper"
	"repro/internal/mpisim"
)

func init() { register("gups", runGUPS) }

// runGUPS implements the RandomAccess pattern: each rank generates
// pseudo-random 64-bit indices into a global table, buckets the
// updates by owning rank, exchanges buckets with Alltoall, and XORs
// the received updates into its local table slice. The FOM is giga
// updates per second (GUPS).
func runGUPS(p Params) (*Output, error) {
	vars := varReader{vars: p.Vars}
	logSize := vars.int("log2_table_size", 20) // per-rank table entries = 2^logSize
	updatesPerRank, rounds := vars.int("updates_per_rank", 4096), vars.int("rounds", 4)
	if vars.err != nil {
		return nil, vars.err
	}
	if logSize < 4 || logSize > 28 || updatesPerRank < 1 || rounds < 1 {
		return nil, fmt.Errorf("gups: log2_table_size=%d updates_per_rank=%d rounds=%d",
			logSize, updatesPerRank, rounds)
	}
	localSize := 1 << logSize

	out, err := runRanks("gups", p, func(c *mpisim.Comm, rec *caliper.Recorder) (string, error) {
		rec.Begin("main")
		nranks := c.Size()
		table := make([]uint64, localSize)
		for i := range table {
			table[i] = uint64(c.Rank()*localSize + i)
		}

		// HPCC-style LCG random stream, seeded per rank.
		seed := uint64(c.Rank())*0x9E3779B97F4A7C15 + 12345
		next := func() uint64 {
			seed = seed*6364136223846793005 + 1442695040888963407
			return seed
		}

		start := c.Now()
		rec.Begin("updates")
		perDest := updatesPerRank / nranks
		if perDest == 0 {
			perDest = 1
		}
		// Bucket updates by destination rank (fixed-size buckets so
		// Alltoall blocks stay uniform, as HPCC's bucketed variant does);
		// every round refills the one bucket.
		send := c.Alloc(nranks * perDest)
		for round := 0; round < rounds; round++ {
			for d := 0; d < nranks; d++ {
				for u := 0; u < perDest; u++ {
					send[d*perDest+u] = float64(next() % uint64(localSize))
				}
			}
			rec.Begin("alltoall")
			recv := c.Alltoall(send)
			rec.End("alltoall")
			// Apply received updates: XOR into the local table.
			for _, idxF := range recv {
				idx := int(idxF) % localSize
				table[idx] ^= uint64(idx)*2654435761 + 1
			}
			// Memory cost of the random-access sweep (cache-hostile:
			// charge one cache line per update).
			chargeMemory(c, p, float64(len(recv))*64)
			c.Release(recv)
		}
		rec.End("updates")
		elapsed := c.Now() - start
		rec.End("main")

		// Verification: XOR-reduce a table checksum across ranks; the
		// result must be deterministic for the same parameters.
		var local float64
		for _, v := range table[:min(64, localSize)] {
			local += float64(v % 1000)
		}
		sum := c.Allreduce([]float64{local}, mpisim.OpSum)
		if c.Rank() != 0 {
			return "", nil
		}
		totalUpdates := float64(nranks) * float64(nranks*perDest) * float64(rounds)
		gups := totalUpdates / elapsed / 1e9
		var tb strings.Builder
		fmt.Fprintf(&tb, "RandomAccess: 2^%d entries per rank, ranks=%d, %d rounds\n",
			logSize, nranks, rounds)
		fmt.Fprintf(&tb, "Table checksum: %.0f\n", sum[0])
		fmt.Fprintf(&tb, "GUPS: %.6f\n", gups)
		writePAPI(&tb, p, totalUpdates, totalUpdates*64)
		tb.WriteString("Kernel done\n")
		return tb.String(), nil
	})
	if err != nil {
		return nil, err
	}
	out.Metadata.Setf("log2_table_size", "%d", logSize)
	return out, nil
}
