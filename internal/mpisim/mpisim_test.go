package mpisim

import (
	"math"
	"testing"

	"repro/internal/hpcsim"
)

func sys(t testing.TB, name string) *hpcsim.System {
	t.Helper()
	s, err := hpcsim.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSendRecvDeliversData(t *testing.T) {
	elapsed, err := Run(sys(t, "cts1"), 2, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, []float64{1, 2, 3})
		} else {
			got := c.Recv(0)
			if len(got) != 3 || got[0] != 1 || got[2] != 3 {
				t.Errorf("recv = %v", got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed <= 0 {
		t.Error("no simulated time elapsed")
	}
}

func TestClockAdvancesWithMessageSize(t *testing.T) {
	timeFor := func(n int) float64 {
		var recvTime float64
		_, err := Run(sys(t, "cts1"), 2, 1, func(c *Comm) error {
			if c.Rank() == 0 {
				c.Send(1, make([]float64, n))
			} else {
				c.Recv(0)
				recvTime = c.Now()
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return recvTime
	}
	small, large := timeFor(1), timeFor(1<<20)
	if large <= small {
		t.Errorf("1M-element transfer (%g) not slower than 1-element (%g)", large, small)
	}
	// Bandwidth term: 8 MiB at 12.5 GB/s ≈ 0.67 ms.
	if large < 5e-4 || large > 5e-3 {
		t.Errorf("large transfer time %g outside plausible range", large)
	}
}

func TestIntraNodeFasterThanInterNode(t *testing.T) {
	measure := func(ranksPerNode int) float64 {
		var tt float64
		_, err := Run(sys(t, "cts1"), 2, ranksPerNode, func(c *Comm) error {
			if c.Rank() == 0 {
				c.Send(1, make([]float64, 1024))
			} else {
				c.Recv(0)
				tt = c.Now()
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return tt
	}
	intra := measure(2) // both ranks on one node
	inter := measure(1) // one rank per node
	if intra >= inter {
		t.Errorf("intra-node %g should beat inter-node %g", intra, inter)
	}
}

func TestBcastBinomialCorrect(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 7, 8, 16, 33} {
		payload := []float64{3.14, 2.71, 1.41}
		_, err := Run(sys(t, "ats2"), p, 4, func(c *Comm) error {
			var data []float64
			if c.Rank() == 0 {
				data = payload
			}
			got := c.Bcast(0, data)
			if len(got) != 3 || got[0] != 3.14 || got[2] != 1.41 {
				t.Errorf("p=%d rank %d: bcast = %v", p, c.Rank(), got)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestBcastNonzeroRoot(t *testing.T) {
	for _, sysName := range []string{"ats2", "cts1"} {
		_, err := Run(sys(t, sysName), 6, 2, func(c *Comm) error {
			var data []float64
			root := 3
			if c.Rank() == root {
				data = []float64{42, 43, 44, 45, 46, 47}
			}
			got := c.Bcast(root, data)
			for i, v := range got {
				if v != float64(42+i) {
					t.Errorf("%s rank %d: got[%d] = %v", sysName, c.Rank(), i, v)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestBcastScatterAllgatherCorrect(t *testing.T) {
	// cts1 uses the scatter-allgather algorithm; verify payload
	// integrity for assorted sizes including p > len(data).
	for _, p := range []int{2, 3, 5, 8, 13, 32} {
		for _, n := range []int{1, 7, 64, 1000} {
			payload := make([]float64, n)
			for i := range payload {
				payload[i] = float64(i) * 0.5
			}
			_, err := Run(sys(t, "cts1"), p, 4, func(c *Comm) error {
				var data []float64
				if c.Rank() == 0 {
					data = payload
				}
				got := c.Bcast(0, data)
				if len(got) != n {
					t.Errorf("p=%d n=%d rank %d: len = %d", p, n, c.Rank(), len(got))
					return nil
				}
				for i, v := range got {
					if v != float64(i)*0.5 {
						t.Errorf("p=%d n=%d rank %d: got[%d] = %v", p, n, c.Rank(), i, v)
						return nil
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("p=%d n=%d: %v", p, n, err)
			}
		}
	}
}

// TestBcastLinearOnCTS verifies the Figure 14 shape: on cts1 the
// broadcast elapsed time grows roughly linearly with the process
// count, while on a binomial system it grows like log p.
func TestBcastLinearOnCTS(t *testing.T) {
	elapsed := func(sysName string, p int) float64 {
		secs, err := Run(sys(t, sysName), p, 16, func(c *Comm) error {
			var data []float64
			if c.Rank() == 0 {
				data = make([]float64, 4096)
			}
			c.Bcast(0, data)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return secs
	}
	// cts1: doubling p should roughly double the latency-dominated time.
	t64, t256 := elapsed("cts1", 64), elapsed("cts1", 256)
	ratioCTS := t256 / t64
	if ratioCTS < 2.2 {
		t.Errorf("cts1 bcast scaling ratio %.2f: expected near-linear (>2.2) growth 64→256", ratioCTS)
	}
	// ats2 (binomial): ratio should be far smaller (log2 256/log2 64 = 1.33).
	b64, b256 := elapsed("ats2", 64), elapsed("ats2", 256)
	ratioBin := b256 / b64
	if ratioBin > 2.0 {
		t.Errorf("ats2 bcast ratio %.2f: binomial should scale sub-linearly", ratioBin)
	}
}

func TestReduceAndAllreduce(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8, 16, 5, 12} {
		_, err := Run(sys(t, "ats4"), p, 8, func(c *Comm) error {
			mine := []float64{float64(c.Rank()), 1}
			sum := c.Allreduce(mine, OpSum)
			wantSum := float64(p*(p-1)) / 2
			if math.Abs(sum[0]-wantSum) > 1e-9 || sum[1] != float64(p) {
				t.Errorf("p=%d rank %d: allreduce = %v want [%v %v]", p, c.Rank(), sum, wantSum, p)
			}
			mx := c.Allreduce([]float64{float64(c.Rank())}, OpMax)
			if mx[0] != float64(p-1) {
				t.Errorf("p=%d: max = %v", p, mx)
			}
			mn := c.Allreduce([]float64{float64(c.Rank())}, OpMin)
			if mn[0] != 0 {
				t.Errorf("p=%d: min = %v", p, mn)
			}
			red := c.Reduce(0, []float64{1}, OpSum)
			if c.Rank() == 0 {
				if red == nil || red[0] != float64(p) {
					t.Errorf("p=%d: reduce = %v", p, red)
				}
			} else if red != nil {
				t.Errorf("p=%d rank %d: non-root got %v", p, c.Rank(), red)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	// After a barrier, every rank's clock is at least the straggler's
	// pre-barrier clock.
	const straggler = 5.0
	var after [8]float64
	_, err := Run(sys(t, "cts1"), 8, 8, func(c *Comm) error {
		if c.Rank() == 3 {
			c.Compute(straggler)
		}
		c.Barrier()
		after[c.Rank()] = c.Now()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, tm := range after {
		if tm < straggler {
			t.Errorf("rank %d passed barrier at %g, before straggler finished", r, tm)
		}
	}
}

func TestComputeHelpers(t *testing.T) {
	_, err := Run(sys(t, "cts1"), 1, 1, func(c *Comm) error {
		c.Compute(1.5)
		c.Compute(-1) // a negative duration never moves the clock back
		if c.Now() != 1.5 {
			t.Errorf("compute time = %v, want 1.5", c.Now())
		}
		if err := c.ComputeOnGPU(1e12, 1e9); err == nil {
			t.Error("cts1 has no GPUs; ComputeOnGPU should fail")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestComputeOnGPU(t *testing.T) {
	_, err := Run(sys(t, "ats2"), 1, 1, func(c *Comm) error {
		if err := c.ComputeOnGPU(7.8e12, 0); err != nil {
			return err
		}
		// One second of peak compute plus launch latency.
		if c.Now() < 1.0 || c.Now() > 1.01 {
			t.Errorf("gpu time = %v", c.Now())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(sys(t, "cts1"), 0, 1, func(*Comm) error { return nil }); err == nil {
		t.Error("zero ranks should fail")
	}
	if _, err := Run(sys(t, "cts1"), 4, 100, func(*Comm) error { return nil }); err == nil {
		t.Error("oversubscribed node should fail")
	}
	// Too many nodes.
	cts := sys(t, "cts1")
	if _, err := Run(cts, cts.TotalCores()+36, 36, func(*Comm) error { return nil }); err == nil {
		t.Error("exceeding system size should fail")
	}
}

func TestRankErrorPropagates(t *testing.T) {
	_, err := Run(sys(t, "cts1"), 4, 4, func(c *Comm) error {
		if c.Rank() == 2 {
			return errTest
		}
		return nil
	})
	if err == nil {
		t.Fatal("rank error should propagate")
	}
}

var errTest = errorString("simulated failure")

type errorString string

func (e errorString) Error() string { return string(e) }

func TestDeterministicTiming(t *testing.T) {
	run := func() float64 {
		elapsed, err := Run(sys(t, "cts1"), 16, 8, func(c *Comm) error {
			data := c.Allreduce([]float64{1}, OpSum)
			_ = data
			c.Bcast(0, []float64{1, 2, 3})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("non-deterministic simulated time: %g vs %g", a, b)
	}
}

// TestResultStatistics: Run returns the slowest rank's clock.
func TestResultStatistics(t *testing.T) {
	elapsed, err := Run(sys(t, "cts1"), 4, 4, func(c *Comm) error {
		c.Compute(float64(c.Rank()))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed != 3 {
		t.Errorf("elapsed = %v, want the slowest rank's 3", elapsed)
	}
}
