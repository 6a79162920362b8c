package mpisim

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestNoiseMatchesReferenceHash: the inline FNV-1a with its folded
// prefixes is the hash the simulator always used — fnv.New64a over
// fmt.Fprintf("%s|%d|%d|%d") — on every tuple, including zero and
// multi-digit fields.
func TestNoiseMatchesReferenceHash(t *testing.T) {
	reference := func(system string, pct float64, rank, partner int, seq uint64) float64 {
		h := fnv.New64a()
		fmt.Fprintf(h, "%s|%d|%d|%d", system, rank, partner, seq)
		v := float64(h.Sum64()%10000) / 10000.0
		return 1 + pct*(2*v-1)
	}
	rng := rand.New(rand.NewSource(23))
	systems := []string{"cts1", "ats2", "cloud-c5n", "fugaku-a64fx"}
	for n := 0; n < 10000; n++ {
		s := sys(t, systems[n%len(systems)])
		if s.SystemNoisePct <= 0 {
			t.Fatalf("%s has no noise to check", s.Name)
		}
		rank, partner, seq := rng.Intn(4000), rng.Intn(4000), rng.Uint64()>>uint(rng.Intn(64))
		switch n % 7 {
		case 0:
			rank = 0
		case 1:
			partner = 0
		case 2:
			seq = 0
		}
		c := newWorld(s, 1, 1).comm(rank)
		c.seq = seq
		if got, want := c.noise(partner), reference(s.Name, s.SystemNoisePct, rank, partner, seq); got != want {
			t.Fatalf("noise(%s, %d, %d, %d) = %v, reference %v", s.Name, rank, partner, seq, got, want)
		}
	}
}

func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// steadyBytes returns what one more execution of body on every rank of
// a p-rank job allocates once free lists and queues are warm: the
// difference between a long and a short job, per extra iteration.
func steadyBytes(t *testing.T, p int, body func(*Comm)) float64 {
	t.Helper()
	job := func(iters int) uint64 {
		return allocatedBy(func() {
			if _, err := Run(sys(t, "cts1"), p, 8, func(c *Comm) error {
				for i := 0; i < iters; i++ {
					body(c)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
	job(20) // goroutines, timers: the runtime's own first-use costs
	return (float64(job(520)) - float64(job(20))) / 500
}

// TestSteadyStateAllocationBudget pins the transport's cost model: once
// a rank has run an iteration, a message is one copy into a recycled
// buffer, so a collective whose result the caller releases allocates
// (next to) nothing per message.
func TestSteadyStateAllocationBudget(t *testing.T) {
	const p = 8
	data := make([]float64, 64)
	for _, tc := range []struct {
		name     string
		messages int // per iteration, all ranks
		body     func(*Comm)
	}{
		{"ring Allgather", p * (p - 1), func(c *Comm) { c.Release(c.Allgather(data)) }},
		{"recursive-doubling Allreduce", p * 3, func(c *Comm) { c.Release(c.Allreduce(data, OpSum)) }},
		{"Barrier", p * 3, func(c *Comm) { c.Barrier() }},
	} {
		perMessage := steadyBytes(t, p, tc.body) / float64(tc.messages)
		t.Logf("%s: %.2f bytes allocated per message in steady state", tc.name, perMessage)
		if !raceEnabled && perMessage > 16 {
			t.Errorf("%s allocates %.1f bytes per message in steady state, want <= 16", tc.name, perMessage)
		}
	}
}

// TestBcastAllocationBudget: a cold 144-rank scatter-allgather
// broadcast of 1,024 elements — world, mailboxes, every transport
// buffer and every rank's result — allocates at most twice the
// p × n × 8 bytes it returns.
func TestBcastAllocationBudget(t *testing.T) {
	const p, n = 144, 1024
	bcast := func() {
		if _, err := Run(sys(t, "cts1"), p, 36, func(c *Comm) error {
			var data []float64
			if c.Rank() == 0 {
				data = make([]float64, n)
			}
			if got := c.Bcast(0, data); len(got) != n {
				t.Errorf("rank %d: %d elements", c.Rank(), len(got))
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	bcast() // the runtime's first-use costs
	got, returned := allocatedBy(bcast), uint64(p*n*8)
	t.Logf("bcast allocated %d bytes for %d returned (%.2fx)", got, returned, float64(got)/float64(returned))
	if !raceEnabled && got > 2*returned {
		t.Errorf("bcast allocated %d bytes, want <= %d (2x the %d it returns)", got, 2*returned, returned)
	}
}

// TestMailboxStress: every rank sends a seeded number of numbered
// messages to every other rank and receives in a different seeded
// order; per-pair FIFO order must hold whatever the interleaving.
func TestMailboxStress(t *testing.T) {
	const p = 12
	count := func(src, dst int) int { return 1 + (src*31+dst*17)%40 }
	_, err := Run(sys(t, "cts1"), p, 4, func(c *Comm) error {
		me := c.Rank()
		rng := rand.New(rand.NewSource(int64(me)))
		for _, dst := range rng.Perm(p) {
			for i := 0; dst != me && i < count(me, dst); i++ {
				c.Send(dst, []float64{float64(me), float64(i)})
			}
		}
		// Drain the sources round-robin in a seeded order, one message
		// at a time, so receives from different pairs interleave.
		next := make([]int, p)
		for open := true; open; {
			open = false
			for _, src := range rng.Perm(p) {
				if src == me || next[src] == count(src, me) {
					continue
				}
				got := c.Recv(src)
				if int(got[0]) != src || int(got[1]) != next[src] {
					t.Errorf("rank %d from %d: got message %v, want number %d", me, src, got, next[src])
					return nil
				}
				c.Release(got)
				next[src]++
				open = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestUnboundedEagerLink: 1,000 unreceived messages on one link
// neither block the sender (the channel transport stopped at 256) nor
// reorder. Rank 1 learns through rank 2 that rank 0 has sent them all
// before it receives the first.
func TestUnboundedEagerLink(t *testing.T) {
	_, err := Run(sys(t, "cts1"), 3, 3, func(c *Comm) error {
		const n = 1000
		switch c.Rank() {
		case 0:
			for i := 0; i < n; i++ {
				c.Send(1, []float64{float64(i)})
			}
			c.Send(2, nil)
		case 2:
			c.Send(1, c.Recv(0))
		case 1:
			c.Recv(2)
			for i := 0; i < n; i++ {
				if got := c.Recv(0); len(got) != 1 || int(got[0]) != i {
					t.Errorf("message %d arrived as %v", i, got)
					return nil
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAbortMidFlight: a rank fails while its peers are in every state
// the transport has — blocked in a receive, sending into the failed
// rank's mailbox, holding unreceived messages — and Run returns the
// root cause with every rank joined.
func TestAbortMidFlight(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		_, err := Run(sys(t, "cts1"), 16, 8, func(c *Comm) error {
			right, left := (c.Rank()+1)%c.Size(), (c.Rank()+c.Size()-1)%c.Size()
			for i := 0; ; i++ {
				if c.Rank() == 5 && i == 100 {
					return errTest
				}
				c.Send(right, []float64{1, 2, 3})
				if c.Rank()%2 == 0 {
					c.Send(right, []float64{4}) // never received: stays queued
				}
				c.Release(c.Recv(left))
			}
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "rank 5: simulated failure") {
			t.Errorf("err = %v, want rank 5's failure", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("deadlock: abort did not release every rank")
	}
}

// TestRankPanicFailsTheJob: a kernel bug on one rank must not kill the
// process. The panic becomes the job's root-cause error, peers blocked
// on the panicking rank unwind, and Run returns.
func TestRankPanicFailsTheJob(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		_, err := Run(sys(t, "cts1"), 8, 8, func(c *Comm) error {
			if c.Rank() == 3 {
				table := make([]float64, c.Size())
				table[c.Rank()+c.Size()]++ // index out of range
			}
			c.Allreduce([]float64{1}, OpSum)
			return nil
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.HasPrefix(err.Error(), "mpisim: rank 3 panicked: runtime error: index out of range") {
			t.Errorf("err = %v, want rank 3's panic as the root cause", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("deadlock: a panicking rank did not abort the job")
	}
	for name, misuse := range map[string]func(*Comm){
		"send to self":           func(c *Comm) { c.Send(c.Rank(), nil) },
		"another rank's request": func(c *Comm) { c.Wait(&Request{c: &Comm{}, isRecv: true}) },
	} {
		if _, err := Run(sys(t, "cts1"), 2, 2, func(c *Comm) error { misuse(c); return nil }); err == nil ||
			!strings.Contains(err.Error(), "panicked: mpisim:") {
			t.Errorf("%s: err = %v, want the rank's panic", name, err)
		}
	}
}

// TestMailboxQueueOrder drives one mailbox from a single goroutine
// through seeded bursts of puts and takes on three sources, so queues
// grow, drain to empty and reclaim their consumed prefix; every source
// must come out in the order it went in.
func TestMailboxQueueOrder(t *testing.T) {
	b := &newWorld(sys(t, "cts1"), 1, 1).boxes[0]
	rng := rand.New(rand.NewSource(7))
	var sent, received [3]int
	for round := 0; round < 2000; round++ {
		src := rng.Intn(3)
		for n := rng.Intn(9); n > 0; n-- {
			b.put(src, message{tag: sent[src]})
			sent[src]++
		}
		src = rng.Intn(3)
		for n := rng.Intn(9); n > 0 && received[src] < sent[src]; n-- {
			if m := b.take(src); m.tag != received[src] {
				t.Fatalf("round %d: source %d delivered message %d, want %d", round, src, m.tag, received[src])
			}
			received[src]++
		}
	}
	for src, f := range b.from {
		if in := len(f.q) - f.head; in != sent[f.src]-received[f.src] || cap(f.q) > 4*in+16 {
			t.Errorf("source %d: %d queued in room for %d, want %d in flight", src, in, cap(f.q), sent[f.src]-received[f.src])
		}
	}
}
