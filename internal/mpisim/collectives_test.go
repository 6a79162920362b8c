package mpisim

import (
	"strings"
	"testing"
	"time"
)

func TestScatter(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8, 16} {
		for _, root := range []int{0, p - 1} {
			blockLen := 3
			_, err := Run(sys(t, "cts1"), p, 4, func(c *Comm) error {
				var data []float64
				if c.Rank() == root {
					data = make([]float64, p*blockLen)
					for i := range data {
						data[i] = float64(i)
					}
				}
				got := c.Scatter(root, data)
				if len(got) != blockLen {
					t.Errorf("p=%d rank %d: len=%d", p, c.Rank(), len(got))
					return nil
				}
				// Rank r (virtual order from root) holds block vrank.
				vrank := (c.Rank() - root + p) % p
				for i, v := range got {
					if v != float64(vrank*blockLen+i) {
						t.Errorf("p=%d root=%d rank %d: got=%v", p, root, c.Rank(), got)
						return nil
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("p=%d root=%d: %v", p, root, err)
			}
		}
	}
}

func TestScatterGatherRoundTrip(t *testing.T) {
	// The scattered blocks, laid side by side in rank order, are x.
	const p = 6
	const blockLen = 4
	back := make([]float64, p*blockLen)
	_, err := Run(sys(t, "cts1"), p, 6, func(c *Comm) error {
		var data []float64
		if c.Rank() == 0 {
			data = make([]float64, p*blockLen)
			for i := range data {
				data[i] = float64(i) * 1.5
			}
		}
		copy(back[c.Rank()*blockLen:], c.Scatter(0, data))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range back {
		if v != float64(i)*1.5 {
			t.Errorf("round trip [%d] = %v", i, v)
		}
	}
}

func TestAlltoall(t *testing.T) {
	for _, p := range []int{1, 2, 3, 7, 8} {
		_, err := Run(sys(t, "cts1"), p, 8, func(c *Comm) error {
			// Block j of rank i's send buffer carries (i, j).
			data := make([]float64, p*2)
			for j := 0; j < p; j++ {
				data[2*j] = float64(c.Rank())
				data[2*j+1] = float64(j)
			}
			got := c.Alltoall(data)
			if len(got) != 2*p {
				t.Errorf("p=%d: len=%d", p, len(got))
				return nil
			}
			// After alltoall, block j must carry (j, myrank).
			for j := 0; j < p; j++ {
				if got[2*j] != float64(j) || got[2*j+1] != float64(c.Rank()) {
					t.Errorf("p=%d rank %d: block %d = (%v,%v)", p, c.Rank(), j, got[2*j], got[2*j+1])
					return nil
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestScatterTimeScalesWithFanout(t *testing.T) {
	elapsed := func(p int) float64 {
		secs, err := Run(sys(t, "cts1"), p, 8, func(c *Comm) error {
			var data []float64
			if c.Rank() == 0 {
				data = make([]float64, p*1024)
			}
			c.Scatter(0, data)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return secs
	}
	if e8, e64 := elapsed(8), elapsed(64); e64 <= e8 {
		t.Errorf("scatter at 64 ranks (%g) should exceed 8 ranks (%g)", e64, e8)
	}
}

// TestAbortReleasesBlockedRanks: one rank failing must not deadlock
// peers blocked in collectives (MPI_Abort semantics).
func TestAbortReleasesBlockedRanks(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		_, err := Run(sys(t, "cts1"), 8, 8, func(c *Comm) error {
			if c.Rank() == 3 {
				return errTest
			}
			// Everyone else blocks in a collective that can never
			// complete without rank 3.
			c.Allreduce([]float64{1}, OpSum)
			return nil
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("job should fail")
		}
		if !strings.Contains(err.Error(), "rank 3") {
			t.Errorf("root cause not reported: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("deadlock: abort did not release blocked ranks")
	}
}

// TestPerPairFIFO: messages between one (src,dst) pair are received
// in send order regardless of size.
func TestPerPairFIFO(t *testing.T) {
	_, err := Run(sys(t, "cts1"), 2, 2, func(c *Comm) error {
		const n = 50
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				size := 1 + (i%7)*100
				msg := make([]float64, size)
				msg[0] = float64(i)
				c.Send(1, msg)
			}
			return nil
		}
		for i := 0; i < n; i++ {
			got := c.Recv(0)
			if int(got[0]) != i {
				t.Errorf("message %d arrived out of order (got %v)", i, got[0])
				return nil
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
