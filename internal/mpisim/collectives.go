package mpisim

// Additional collectives beyond the Figure-14 set: Scatter, Gather,
// ReduceScatter and Alltoall, with the standard algorithms (binomial
// trees for scatter/gather, pairwise exchange for alltoall). These
// round out the MPI surface the benchmark kernels and future
// applications can rely on.

// Scatter distributes root's data in equal contiguous blocks; every
// rank returns its block. len(data) must be divisible by Size() on
// the root (binomial-tree algorithm, halving ranges like the
// large-message broadcast: a message is the contiguous blocks
// [mid,hi), charged its two bounds and one length per block on top).
func (c *Comm) Scatter(root int, data []float64) []float64 {
	p := c.w.size
	vrank := (c.rank - root + p) % p
	held, hi := data, p // blocks [vrank,hi)
	if vrank != 0 {
		var parent int
		parent, hi = scatterMeta(vrank, p)
		held = c.Recv((parent + root) % p)
	}
	n := len(held) / (hi - vrank)
	for hi-vrank > 1 {
		mid := vrank + (hi-vrank+1)/2
		seg := held[(mid-vrank)*n : (hi-vrank)*n]
		c.send((mid+root)%p, seg, 0, 2+(hi-mid)+len(seg))
		hi = mid
	}
	if vrank == 0 {
		held = c.copyOf(data[:n]) // the root's block is a copy too
	}
	return held[:n]
}

// Gather collects equal-size contributions onto root in rank order;
// root returns the concatenation, others nil (binomial tree, the
// mirror of Scatter: each rank assembles blocks [vrank,hi) in place
// and gives them to its parent).
func (c *Comm) Gather(root int, data []float64) []float64 {
	p := c.w.size
	n := len(data)
	vrank := (c.rank - root + p) % p
	parent, hi := scatterMeta(vrank, p)
	held := c.buffer((hi - vrank) * n)
	copy(held, data)
	// Receive from children in reverse order of the scatter sends.
	var children []int
	for h := hi; h-vrank > 1; {
		h = vrank + (h-vrank+1)/2
		children = append(children, h)
	}
	for i := len(children) - 1; i >= 0; i-- {
		in := c.Recv((children[i] + root) % p)
		copy(held[(children[i]-vrank)*n:], in)
		c.Release(in)
	}
	if vrank != 0 {
		c.post((parent+root)%p, held, 0, 2+(hi-vrank)+len(held))
		return nil
	}
	return held
}

// ReduceScatter element-wise reduces data across ranks and scatters
// the result in equal blocks (reduce-to-root + scatter; len(data)
// must be divisible by Size()).
func (c *Comm) ReduceScatter(data []float64, op Op) []float64 {
	p := c.w.size
	reduced := c.Reduce(0, data, op)
	if p == 1 {
		return reduced
	}
	return c.Scatter(0, reduced)
}

// Alltoall sends block i of data to rank i and returns the blocks
// received from every rank, in rank order (pairwise-exchange
// algorithm: p-1 rounds of SendRecv with XOR/shift partners).
func (c *Comm) Alltoall(data []float64) []float64 {
	p := c.w.size
	n := len(data) / p
	out := make([]float64, len(data))
	copy(out[c.rank*n:(c.rank+1)*n], data[c.rank*n:(c.rank+1)*n])
	for round := 1; round < p; round++ {
		dst := (c.rank + round) % p
		src := (c.rank - round + p) % p
		in := c.SendRecv(dst, data[dst*n:(dst+1)*n], src)
		copy(out[src*n:(src+1)*n], in)
		c.Release(in)
	}
	return out
}
