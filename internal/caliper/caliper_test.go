package caliper

import (
	"encoding/json"
	"math"
	"testing"
)

// fakeClock is a manually advanced clock.
type fakeClock struct{ t float64 }

func (c *fakeClock) now() float64      { return c.t }
func (c *fakeClock) advance(d float64) { c.t += d }

func TestRegionTiming(t *testing.T) {
	clk := &fakeClock{}
	r := NewRecorder(clk.now)
	r.Begin("main")
	clk.advance(1)
	r.Begin("solve")
	clk.advance(2)
	r.End("solve")
	clk.advance(0.5)
	r.End("main")
	p, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Region("main").Total; math.Abs(got-3.5) > 1e-12 {
		t.Errorf("main total = %v", got)
	}
	if got := p.Region("main/solve").Total; math.Abs(got-2) > 1e-12 {
		t.Errorf("main/solve total = %v", got)
	}
	if len(p.Paths()) != 2 {
		t.Errorf("paths = %v", p.Paths())
	}
}

func TestRepeatedRegionStats(t *testing.T) {
	clk := &fakeClock{}
	r := NewRecorder(clk.now)
	for i, d := range []float64{1, 3, 2} {
		r.Begin("iter")
		clk.advance(d)
		r.End("iter")
		_ = i
	}
	p, _ := r.Snapshot()
	st := p.Region("iter")
	if st.Count != 3 || st.Total != 6 || st.Min != 1 || st.Max != 3 || st.Mean() != 2 {
		t.Errorf("stats = %+v", st)
	}
}

// TestMismatchedEnd: a mismatched End is Snapshot's error, naming both
// regions, and so is an End with nothing open.
func TestMismatchedEnd(t *testing.T) {
	r := NewRecorder(func() float64 { return 0 })
	r.Begin("a")
	r.End("b")
	r.End("a") // after a mismatch End does nothing: the first error stands
	if _, err := r.Snapshot(); err == nil || err.Error() != `caliper: End("b") does not match open region "a"` {
		t.Errorf("Snapshot after a mismatched End: %v", err)
	}
	r = NewRecorder(func() float64 { return 0 })
	r.End("a")
	if _, err := r.Snapshot(); err == nil || err.Error() != `caliper: End("a") with no open region` {
		t.Errorf("Snapshot after End on an empty stack: %v", err)
	}
}

func TestSnapshotWithOpenRegion(t *testing.T) {
	r := NewRecorder(func() float64 { return 0 })
	r.Begin("open")
	if _, err := r.Snapshot(); err == nil {
		t.Error("snapshot with open region should error")
	}
}

func TestMetrics(t *testing.T) {
	clk := &fakeClock{}
	r := NewRecorder(clk.now)
	r.Begin("kernel")
	clk.advance(4)
	r.AddMetric("bytes", 100)
	r.AddMetric("bytes", 50)
	if got := r.Region("kernel"); got.Count != 0 {
		t.Errorf("open region recorded early: %+v", got)
	}
	r.End("kernel")
	if got := r.Region("kernel"); got.Total != 4 {
		t.Errorf("Recorder.Region(kernel) = %+v", got)
	}
	p, _ := r.Snapshot()
	if p.Region("kernel").Total != 4 {
		t.Errorf("kernel = %+v", p.Region("kernel"))
	}
	if p.Metrics["bytes"] != 150 {
		t.Errorf("bytes = %v", p.Metrics["bytes"])
	}
}

func TestMergeRanks(t *testing.T) {
	mk := func(total float64) *Profile {
		p := NewProfile()
		p.Regions["solve"] = RegionStat{Count: 2, Total: total, Min: total / 3, Max: 2 * total / 3}
		p.Metrics["iters"] = 10
		return p
	}
	merged := MergeRanks([]*Profile{mk(3), mk(9), mk(6)})
	st := merged.Region("solve")
	if st.Count != 6 {
		t.Errorf("count = %d", st.Count)
	}
	if st.Total != 9 { // critical rank
		t.Errorf("total = %v (want max across ranks)", st.Total)
	}
	if st.Min != 1 || st.Max != 6 {
		t.Errorf("min/max = %v/%v", st.Min, st.Max)
	}
	if merged.Metrics["iters"] != 30 {
		t.Errorf("iters = %v", merged.Metrics["iters"])
	}
}

func TestMergeEmpty(t *testing.T) {
	m := MergeRanks(nil)
	if len(m.Regions) != 0 || len(m.Metrics) != 0 {
		t.Error("merge of nothing should be empty")
	}
}

func TestProfileJSONRoundTrip(t *testing.T) {
	clk := &fakeClock{}
	r := NewRecorder(clk.now)
	r.Begin("main")
	clk.advance(2.5)
	r.End("main")
	r.AddMetric("iterations", 12)
	p, _ := r.Snapshot()

	js, err := p.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back caliFile
	if err := json.Unmarshal([]byte(js), &back); err != nil {
		t.Fatal(err)
	}
	if back.Format != FileFormat || back.Regions["main"].Total != 2.5 || back.Metrics["iterations"] != 12 {
		t.Errorf("round trip: %+v", back)
	}
}
