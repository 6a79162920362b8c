package mpisim

// Collectives beyond the Figure-14 set: Scatter (binomial tree) and
// Alltoall (pairwise exchange, which GUPS's update rounds call).

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

// Alltoall sends block i of data to rank i and returns the blocks
// received from every rank, in rank order (pairwise-exchange
// algorithm: p-1 rounds of SendRecv with XOR/shift partners). The
// result is a transport buffer, the caller's until it calls Release;
// elements past the last whole block are zero.
func (c *Comm) Alltoall(data []float64) []float64 {
	p := c.w.size
	n := len(data) / p
	out := c.buffer(len(data))
	clear(out[p*n:])
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
