// Package mpisim is a simulated MPI runtime: ranks run as goroutines,
// point-to-point messages travel through per-rank mailboxes, and every
// rank keeps a logical clock advanced by a Hockney (α + m/B)
// communication model parameterized by the target system's network.
// Collectives are implemented on top of point-to-point with the real
// algorithms (binomial trees, recursive doubling, ring allgather,
// binomial scatter + ring allgather for large-message broadcast), so
// scaling shapes — including the linear-in-p MPI_Bcast total time that
// Figure 14 of the Benchpark paper models with Extra-P — emerge from
// the algorithms rather than from curve fitting.
//
// A message costs one copy. Send always copies its argument, into a
// transport buffer recycled from the sending rank's free list, so the
// caller may reuse its slice at once. What a message would carry in a
// packed header on a real wire (a segment index, a total length) rides
// beside the payload, out of band, and is charged to the clock as the
// words it would have occupied. A received payload belongs to the
// receiver until it hands it to Release, after which it must not be
// touched; forgetting Release costs garbage, never correctness.
//
// A rank's arrays outlive its job, recycled rather than collected. A
// kernel takes its arrays from Alloc, zeroed and the rank's until its
// function returns. A transport buffer comes from the rank's free
// list, or else from process-wide pools of power-of-two size classes,
// which also take what a full free list cannot hold. When a rank
// returns cleanly, Run hands its free list and its Alloc'd arrays to
// the pools, where the next job's ranks find them; a rank that fails
// or panics hands back nothing. A mailbox's queues outlive their job
// too: once every rank has returned, Run empties them and pools each
// mailbox's table of queues, so the next job's queues start with the
// capacity earlier jobs grew. The pools are sync.Pools, so what stays
// unused is collected within two GC cycles.
//
// Wall-clock time is decoupled from simulated time: a 3456-rank
// broadcast sweep runs in milliseconds of real time.
package mpisim

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"strconv"
	"sync"

	"repro/internal/hpcsim"
)

// Op is a reduction operator.
type Op int

const (
	// OpSum adds elementwise.
	OpSum Op = iota
	// OpMax takes the elementwise maximum.
	OpMax
	// OpMin takes the elementwise minimum.
	OpMin
)

func (o Op) apply(dst, src []float64) {
	for i := range dst {
		switch o {
		case OpSum:
			dst[i] += src[i]
		case OpMax:
			if src[i] > dst[i] {
				dst[i] = src[i]
			}
		case OpMin:
			if src[i] < dst[i] {
				dst[i] = src[i]
			}
		}
	}
}

// message is one payload in flight. tag and charged are its
// out-of-band header: tag is whatever index or length the sending
// collective attaches, charged the element count the transfer is
// billed for (the payload plus the header words a packed message
// would carry).
type message struct {
	data    []float64
	sentAt  float64
	tag     int
	charged int
}

// fifo queues the messages from one source in send order; memory is
// proportional to the messages in flight.
type fifo struct {
	src  int
	q    []message
	head int
}

// mailbox is one rank's inbox. A rank hears from a handful of peers,
// so its per-source queues are found by linear search; only the owning
// rank ever waits on arrived.
type mailbox struct {
	mu      sync.Mutex
	arrived sync.Cond // L is &mu
	from    []fifo
	aborted bool
}

// queue returns src's queue, nil before its first message.
func (b *mailbox) queue(src int) *fifo {
	for i := range b.from {
		if b.from[i].src == src {
			return &b.from[i]
		}
	}
	return nil
}

// put appends m to src's queue and returns the queue's depth. It
// never blocks: the runtime is eager-buffered without limit.
func (b *mailbox) put(src int, m message) (depth int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.aborted {
		panic(abortPanic{})
	}
	f := b.queue(src)
	if f == nil {
		f = b.addQueue(src)
	}
	if f.head > 0 && f.head >= len(f.q)/2 && len(f.q) == cap(f.q) {
		// Reclaim the consumed prefix before growing.
		n := copy(f.q, f.q[f.head:])
		clear(f.q[n:])
		f.q, f.head = f.q[:n], 0
	}
	f.q = append(f.q, m)
	b.arrived.Signal()
	return len(f.q) - f.head
}

// addQueue appends an empty queue for src, in a slot of a pooled table
// if the mailbox has none of its own, keeping the slot's capacity.
func (b *mailbox) addQueue(src int) *fifo {
	if b.from == nil {
		if t, ok := queueTables.Get().(*[]fifo); ok {
			b.from = *t
		}
	}
	if len(b.from) == cap(b.from) {
		b.from = append(b.from, fifo{})
	} else {
		b.from = b.from[:len(b.from)+1]
	}
	f := &b.from[len(b.from)-1]
	f.src = src
	return f
}

// recycle empties every queue, dropping whatever a failed job left in
// flight, and pools the table. Each slot past len(from) holds an empty
// queue.
func (b *mailbox) recycle() {
	if cap(b.from) == 0 {
		return
	}
	t := b.from
	for i := range t {
		clear(t[i].q)
		t[i].q, t[i].head = t[i].q[:0], 0
	}
	t, b.from = t[:0], nil
	queueTables.Put(&t)
}

// queueTables holds idle mailbox tables, *[]fifo of empty queues.
var queueTables sync.Pool

// take blocks until a message from src is queued and removes it.
func (b *mailbox) take(src int) message {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		if f := b.queue(src); f != nil && f.head < len(f.q) {
			m := f.q[f.head]
			f.q[f.head] = message{}
			if f.head++; f.head == len(f.q) {
				f.q, f.head = f.q[:0], 0
			}
			return m
		}
		if b.aborted {
			panic(abortPanic{})
		}
		b.arrived.Wait()
	}
}

// World owns the mailboxes and configuration of one simulated job.
type World struct {
	sys          *hpcsim.System
	size         int
	ranksPerNode int
	boxes        []mailbox
	noiseSeed    uint64 // FNV-1a state after "<system>|"
}

func newWorld(sys *hpcsim.System, size, ranksPerNode int) *World {
	w := &World{
		sys: sys, size: size, ranksPerNode: ranksPerNode, boxes: make([]mailbox, size),
		noiseSeed: fnv1a(fnvOffset, []byte(sys.Name+"|")),
	}
	for i := range w.boxes {
		w.boxes[i].arrived.L = &w.boxes[i].mu
	}
	return w
}

// comm returns the communicator handle of one rank.
func (w *World) comm(rank int) *Comm {
	var buf [21]byte
	seed := fnv1a(w.noiseSeed, append(strconv.AppendInt(buf[:0], int64(rank), 10), '|'))
	return &Comm{w: w, rank: rank, noiseSeed: seed}
}

// abortPanic unwinds a rank that touches a mailbox after the job
// aborted; the rank wrapper recovers it.
type abortPanic struct{}

// errAborted is reported by ranks that were torn down by another
// rank's failure.
var errAborted = fmt.Errorf("mpisim: job aborted by another rank's failure")

// abort releases every rank blocked in communication and fails every
// later send or receive — MPI_Abort semantics.
func (w *World) abort() {
	for i := range w.boxes {
		b := &w.boxes[i]
		b.mu.Lock()
		b.aborted = true
		b.mu.Unlock()
		b.arrived.Broadcast()
	}
}

// sameNode reports whether two ranks share a node under block
// placement (rank/ranksPerNode).
func (w *World) sameNode(a, b int) bool {
	return a/w.ranksPerNode == b/w.ranksPerNode
}

// Comm is one rank's communicator handle. It is owned by the rank's
// goroutine and must not be shared.
type Comm struct {
	w     *World
	rank  int
	clock float64 // simulated seconds
	seq   uint64  // message counter for deterministic noise

	noiseSeed uint64      // FNV-1a state after "<system>|<rank>|"
	free      [][]float64 // transport buffers this rank may reuse
	owned     [][]float64 // Alloc'd arrays, recycled when the rank returns
}

// Rank returns this rank's index.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks.
func (c *Comm) Size() int { return c.w.size }

// RanksPerNode returns the block placement width.
func (c *Comm) RanksPerNode() int { return c.w.ranksPerNode }

// Now returns this rank's simulated time in seconds.
func (c *Comm) Now() float64 { return c.clock }

// Compute advances the rank's clock by a modeled compute duration.
func (c *Comm) Compute(seconds float64) {
	if seconds > 0 {
		c.clock += seconds
	}
}

// ComputeOnGPU advances the clock by a GPU kernel: the max of its
// compute-bound and memory-bound durations plus one host-link
// round trip for launch/transfer.
func (c *Comm) ComputeOnGPU(flops, bytes float64) error {
	gpu := c.w.sys.Node.GPU
	if gpu == nil {
		return fmt.Errorf("mpisim: system %s has no GPUs", c.w.sys.Name)
	}
	tCompute := flops / (gpu.PeakTF * 1e12)
	tMemory := bytes / (gpu.MemBWGBs * 1e9)
	t := math.Max(tCompute, tMemory) + gpu.LinkLatUS*1e-6
	c.Compute(t)
	return nil
}

const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211

// fnv1a continues a 64-bit FNV-1a hash over b; a fresh hash starts
// from fnvOffset.
func fnv1a(h uint64, b []byte) uint64 {
	for _, x := range b {
		h = (h ^ uint64(x)) * fnvPrime
	}
	return h
}

// noise returns a deterministic multiplier in
// [1-noisePct, 1+noisePct]: FNV-1a of "<system>|<rank>|<partner>|<seq>",
// the first two fields already folded into noiseSeed.
func (c *Comm) noise(partner int) float64 {
	pct := c.w.sys.SystemNoisePct
	if pct <= 0 {
		return 1
	}
	var buf [41]byte // two 64-bit decimals and a separator
	b := append(strconv.AppendInt(buf[:0], int64(partner), 10), '|')
	b = strconv.AppendUint(b, c.seq, 10)
	v := float64(fnv1a(c.noiseSeed, b)%10000) / 10000.0 // [0,1)
	return 1 + pct*(2*v-1)
}

// transferTime models moving n float64s between this rank and a
// partner: α + m/B with intra-node fast path.
func (c *Comm) transferTime(partner, n int) float64 {
	bytes := float64(n) * 8
	var alpha, bw float64
	if c.w.sameNode(c.rank, partner) {
		alpha = 0.4e-6
		bw = c.w.sys.Node.MemBWGBs * 1e9 / 2 // copy in and out of shared memory
	} else {
		alpha = c.w.sys.Network.LatencyUS * 1e-6
		bw = c.w.sys.Network.BandwidthGBs * 1e9
	}
	return (alpha + bytes/bw) * c.noise(partner)
}

// maxFree bounds a rank's free list: enough for a 3-D halo exchange
// and the scalars between two of them, so steady-state messages never
// touch the shared pools; a buffer released into a full list goes to
// the pools instead.
const maxFree = 16

// pools holds idle arrays of every rank of every job, by size class:
// pools[k] holds *[]float64 of capacity at least 1<<k. A header is
// boxed per Put, so only a full free list and a returning rank put.
var pools [bits.UintSize]sync.Pool

// buffer returns n elements with unspecified contents: the tightest
// fit on the free list, else an array from the pools, else a new one
// of its class's capacity.
func (c *Comm) buffer(n int) []float64 {
	best := -1
	for i, b := range c.free {
		if cap(b) >= n && (best < 0 || cap(b) < cap(c.free[best])) {
			best = i
		}
	}
	if best < 0 {
		k := bits.Len(uint(max(n, 1) - 1)) // the class whose arrays fit n
		if b, ok := pools[k].Get().(*[]float64); ok {
			return (*b)[:n]
		}
		return make([]float64, n, 1<<k)
	}
	b, last := c.free[best], len(c.free)-1
	c.free[best], c.free = c.free[last], c.free[:last]
	return b[:n]
}

// pool hands buf, of non-zero capacity, to the class its capacity
// fills.
func pool(buf []float64) {
	pools[bits.Len(uint(cap(buf)))-1].Put(&buf)
}

// Alloc returns n zeroed elements that the rank owns until its
// function returns; then Run recycles them for a later rank. They must
// not be handed to Release or kept past the rank's return.
func (c *Comm) Alloc(n int) []float64 {
	b := c.buffer(n)
	clear(b)
	c.owned = append(c.owned, b)
	return b
}

// recycle hands the rank's free list and Alloc'd arrays to the pools.
func (c *Comm) recycle() {
	for _, b := range c.free {
		pool(b)
	}
	for _, b := range c.owned {
		pool(b)
	}
	c.free, c.owned = nil, nil
}

// copyOf returns data copied into a buffer.
func (c *Comm) copyOf(data []float64) []float64 {
	buf := c.buffer(len(data))
	copy(buf, data)
	return buf
}

// Release hands a slice the caller owns and is done with — a received
// payload, a collective's result — to this rank's free list, where the
// next send draws its transport buffer, or to the pools when the list
// is full. The caller must not use buf afterwards.
func (c *Comm) Release(buf []float64) {
	switch {
	case cap(buf) == 0:
	case len(c.free) < maxFree:
		c.free = append(c.free, buf)
	default:
		pool(buf)
	}
}

// Send posts a copy of data to dst. The sender is charged a small
// injection overhead; the transfer itself is charged to the receiver's
// clock.
func (c *Comm) Send(dst int, data []float64) { c.send(dst, data, 0, len(data)) }

// send copies data into a transport buffer and posts it under the
// given out-of-band header.
func (c *Comm) send(dst int, data []float64, tag, charged int) {
	c.post(dst, c.copyOf(data), tag, charged)
}

// post gives buf away to dst without copying it.
func (c *Comm) post(dst int, buf []float64, tag, charged int) {
	if dst == c.rank {
		panic("mpisim: send to self")
	}
	c.seq++
	c.clock += 0.1e-6 // injection overhead o
	if c.w.boxes[dst].put(c.rank, message{data: buf, sentAt: c.clock, tag: tag, charged: charged}) >= 8 {
		// Far ahead of the receiver: let it run, so a pipeline's queues
		// stay short. A hint, not flow control — the send is done.
		runtime.Gosched()
	}
}

// Recv blocks until a message from src arrives and returns its
// payload, advancing the clock to the arrival time. The payload is the
// caller's until it calls Release.
func (c *Comm) Recv(src int) []float64 { return c.recv(src).data }

// recv is Recv with the message's out-of-band header.
func (c *Comm) recv(src int) message {
	msg := c.w.boxes[c.rank].take(src)
	c.seq++
	arrive := msg.sentAt + c.transferTime(src, msg.charged)
	if arrive > c.clock {
		c.clock = arrive
	} else {
		c.clock += 0.1e-6 // matching overhead when the message waited
	}
	return msg
}

// SendRecv exchanges messages with two partners without deadlock.
func (c *Comm) SendRecv(dst int, data []float64, src int) []float64 {
	c.Send(dst, data)
	return c.Recv(src)
}

// ---------------------------------------------------------------------------
// Collectives
// ---------------------------------------------------------------------------

// Barrier synchronizes all ranks (dissemination algorithm).
func (c *Comm) Barrier() {
	p := c.w.size
	token := []float64{0}
	for dist := 1; dist < p; dist *= 2 {
		dst := (c.rank + dist) % p
		src := (c.rank - dist + p) % p
		c.Send(dst, token)
		c.Release(c.Recv(src))
	}
}

// Bcast broadcasts data from root; every rank returns the payload
// (the root its own data).
// The algorithm follows the system's network model: "binomial" for
// log-p scaling, "scatter-allgather" (binomial scatter + ring
// allgather, van de Geijn) whose latency term grows linearly in p —
// the regime Figure 14 measures on CTS.
func (c *Comm) Bcast(root int, data []float64) []float64 {
	p := c.w.size
	if p == 1 {
		return data
	}
	switch c.w.sys.Network.BcastAlgo {
	case "scatter-allgather":
		return c.bcastScatterAllgather(root, data)
	default:
		return c.bcastBinomial(root, data)
	}
}

// bcastBinomial is the classic binomial-tree broadcast.
func (c *Comm) bcastBinomial(root int, data []float64) []float64 {
	p := c.w.size
	vrank := (c.rank - root + p) % p
	// Receive once from the parent (unless root).
	if vrank != 0 {
		parent := (vrank&(vrank-1) + root) % p
		data = c.Recv(parent)
	}
	// Forward to children: for each bit above our lowest set bit.
	lowest := vrank & (-vrank)
	if vrank == 0 {
		lowest = nextPow2(p)
	}
	for mask := lowest >> 1; mask > 0; mask >>= 1 {
		child := vrank | mask
		if child < p && child != vrank {
			c.Send((child+root)%p, data)
		}
	}
	return data
}

func nextPow2(n int) int {
	v := 1
	for v < n {
		v <<= 1
	}
	return v
}

// bcastScatterAllgather: binomial scatter of p segments, then a ring
// allgather with p-1 steps. Each ring step costs α + (m/p)/B, so the
// total latency term is Θ(p)·α: total time grows linearly with the
// process count. Every rank receives straight into its result: a
// scatter message is the contiguous range of segments [mid,hi) tagged
// with the total length (charged its two bounds and one length per
// segment on top), a ring message one segment tagged with its index
// (charged one word on top).
func (c *Comm) bcastScatterAllgather(root int, data []float64) []float64 {
	p := c.w.size
	vrank := (c.rank - root + p) % p
	out, n, hi := data, len(data), p // this rank holds segments [vrank,hi) of out
	bound := func(i int) int { return min(i*((n+p-1)/p), n) }
	if vrank != 0 {
		var parent int
		parent, hi = scatterMeta(vrank, p)
		m := c.recv((parent + root) % p)
		n = m.tag
		out = c.buffer(n)
		copy(out[bound(vrank):], m.data)
		c.Release(m.data)
	}
	// Halve our range [vrank,hi), sending the upper half to the child
	// at its midpoint, until only our own segment remains.
	for hi-vrank > 1 {
		mid := vrank + (hi-vrank+1)/2
		seg := out[bound(mid):bound(hi)]
		c.send((mid+root)%p, seg, n, 2+(hi-mid)+len(seg))
		hi = mid
	}

	// Ring allgather: p-1 steps; each step forwards the segment
	// received in the previous step (starting from our own) to the
	// right neighbor.
	right := (c.rank + 1) % p
	left := (c.rank - 1 + p) % p
	cur := vrank
	for s := 0; s < p-1; s++ {
		seg := out[bound(cur):bound(cur+1)]
		c.send(right, seg, cur, 1+len(seg))
		m := c.recv(left)
		cur = m.tag
		copy(out[bound(cur):], m.data)
		c.Release(m.data)
	}
	return out
}

// scatterMeta returns the parent virtual rank and the exclusive upper
// bound of the segment range [vrank,hi) that a virtual rank receives
// in the halving scatter (0 and p for the root). Recomputing the
// descent keeps the send and receive sides structurally consistent.
func scatterMeta(vrank, p int) (parent, hi int) {
	lo, hiB := 0, p
	v := 0
	for v != vrank {
		mid := lo + (hiB-lo+1)/2
		if vrank >= mid {
			parent = v
			v = mid
			lo = mid
		} else {
			hiB = mid
		}
	}
	return parent, hiB
}

// Reduce combines data onto root with a binomial tree; root returns
// the result, others return nil. A rank that sends its accumulator up
// the tree gives it away.
func (c *Comm) Reduce(root int, data []float64, op Op) []float64 {
	p := c.w.size
	acc := c.copyOf(data)
	vrank := (c.rank - root + p) % p
	for mask := 1; mask < p; mask <<= 1 {
		if vrank&mask != 0 {
			c.post((vrank&^mask+root)%p, acc, 0, len(acc))
			return nil
		}
		partner := vrank | mask
		if partner < p {
			in := c.Recv((partner + root) % p)
			c.Compute(float64(len(acc)) * 1e-9) // reduction arithmetic
			op.apply(acc, in)
			c.Release(in)
		}
	}
	return acc
}

// Allreduce combines data across all ranks (recursive doubling for
// power-of-two counts, reduce+bcast otherwise).
func (c *Comm) Allreduce(data []float64, op Op) []float64 {
	p := c.w.size
	if p&(p-1) != 0 {
		return c.Bcast(0, c.Reduce(0, data, op))
	}
	acc := c.copyOf(data)
	for mask := 1; mask < p; mask <<= 1 {
		partner := c.rank ^ mask
		in := c.SendRecv(partner, acc, partner)
		c.Compute(float64(len(acc)) * 1e-9)
		op.apply(acc, in)
		c.Release(in)
	}
	return acc
}

// ---------------------------------------------------------------------------
// Job execution
// ---------------------------------------------------------------------------

// Run executes fn on nranks simulated ranks placed ranksPerNode per
// node on the given system, and returns the job's simulated elapsed
// time: the slowest rank's clock once every rank has returned.
// A rank that returns an error or panics aborts the job with that
// failure as the error; Run returns once every rank has unwound. A
// rank that returns nil hands its arrays to the pools (see Alloc).
func Run(sys *hpcsim.System, nranks, ranksPerNode int, fn func(*Comm) error) (float64, error) {
	if nranks <= 0 {
		return 0, fmt.Errorf("mpisim: nranks = %d", nranks)
	}
	if ranksPerNode <= 0 {
		ranksPerNode = sys.Node.Cores()
	}
	if ranksPerNode > sys.Node.Cores() {
		return 0, fmt.Errorf("mpisim: %d ranks per node exceeds %d cores on %s",
			ranksPerNode, sys.Node.Cores(), sys.Name)
	}
	nodesNeeded := (nranks + ranksPerNode - 1) / ranksPerNode
	if nodesNeeded > sys.Nodes {
		return 0, fmt.Errorf("mpisim: job needs %d nodes, %s has %d", nodesNeeded, sys.Name, sys.Nodes)
	}

	w := newWorld(sys, nranks, ranksPerNode)
	times := make([]float64, nranks)
	errs := make([]error, nranks)
	var wg sync.WaitGroup
	for r := 0; r < nranks; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			comm := w.comm(rank)
			// A rank that fails — by error or by panic, a kernel bug
			// must not take the process down — tears the job down so
			// peers blocked in communication unwind (MPI_Abort).
			defer func() {
				times[rank] = comm.clock
				switch rec := recover().(type) {
				case nil:
				case abortPanic:
					errs[rank] = errAborted
					return
				default:
					errs[rank] = fmt.Errorf("mpisim: rank %d panicked: %v", rank, rec)
				}
				if errs[rank] != nil {
					w.abort()
				}
			}()
			if err := fn(comm); err != nil {
				errs[rank] = fmt.Errorf("mpisim: rank %d: %w", rank, err)
				return
			}
			comm.recycle()
		}(r)
	}
	wg.Wait()
	for i := range w.boxes {
		w.boxes[i].recycle()
	}
	// Report the root-cause failure, not the collateral aborts.
	var cause error
	for _, err := range errs {
		if err != nil && (cause == nil || cause == errAborted) {
			cause = err
		}
	}
	if cause != nil {
		return 0, cause
	}
	return slices.Max(times), nil
}
