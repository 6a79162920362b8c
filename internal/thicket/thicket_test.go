package thicket

import (
	"math"
	"strings"
	"testing"

	"repro/internal/adiak"
	"repro/internal/caliper"
	"repro/internal/extrap"
)

func run(region string, total float64, meta map[string]string) (*caliper.Profile, *adiak.Metadata) {
	p := caliper.NewProfile()
	p.Regions[region] = caliper.RegionStat{Count: 1, Total: total, Min: total, Max: total}
	md := adiak.New()
	for k, v := range meta {
		md.Set(k, v)
	}
	return p, md
}

func TestFilterAndGroupBy(t *testing.T) {
	th := New()
	th.Add(run("solve", 1, map[string]string{"cluster": "cts1", "n_ranks": "64"}))
	th.Add(run("solve", 2, map[string]string{"cluster": "cts1", "n_ranks": "128"}))
	th.Add(run("solve", 3, map[string]string{"cluster": "ats2", "n_ranks": "64"}))
	groups := th.GroupBy("cluster")
	if len(groups) != 2 || len(groups["cts1"].Runs) != 2 || len(groups["ats2"].Runs) != 1 {
		t.Errorf("groups = %v", groups)
	}
	if byRanks := th.GroupBy("n_ranks"); len(byRanks["64"].Runs) != 2 || len(byRanks["128"].Runs) != 1 {
		t.Errorf("groups by n_ranks = %v", byRanks)
	}
	if missing := th.GroupBy("compiler"); len(missing) != 1 || len(missing[""].Runs) != 3 {
		t.Errorf("runs lacking the key should group under \"\": %v", missing)
	}
}

func TestRegionStats(t *testing.T) {
	th := New()
	for _, v := range []float64{2, 4, 6} {
		th.Add(run("solve", v, nil))
	}
	st := th.RegionStats("solve")
	if st.N != 3 || st.Mean != 4 || st.Min != 2 || st.Max != 6 {
		t.Errorf("stats = %+v", st)
	}
	if math.Abs(st.Std-math.Sqrt(8.0/3.0)) > 1e-9 {
		t.Errorf("std = %v", st.Std)
	}
	if empty := th.RegionStats("nope"); empty.N != 0 {
		t.Errorf("missing region stats = %+v", empty)
	}
}

// TestFigure14Pipeline: compose runs at several scales, fit Extra-P,
// recover the linear MPI_Bcast model.
func TestFigure14Pipeline(t *testing.T) {
	th := New()
	for _, p := range []float64{64, 128, 256, 512, 1024, 2048, 3456} {
		total := -0.6356 + 0.0466*p
		th.Add(run("MPI_Bcast", total, map[string]string{
			"cluster": "cts1", "n_ranks: ": "x", "nprocs": itoa(int(p)),
		}))
	}
	series, err := th.ScalingSeries("nprocs", "MPI_Bcast")
	if err != nil {
		t.Fatal(err)
	}
	model, err := extrap.Fit(series)
	if err != nil {
		t.Fatal(err)
	}
	if model.I != 1 || model.J != 0 {
		t.Errorf("model = %s, want linear", model)
	}
	if math.Abs(model.C1-0.0466) > 1e-3 {
		t.Errorf("slope = %v", model.C1)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	s := ""
	for n > 0 {
		s = string(rune('0'+n%10)) + s
		n /= 10
	}
	return s
}

func TestScalingSeriesErrors(t *testing.T) {
	th := New()
	th.Add(run("solve", 1, map[string]string{"n_ranks": "not-a-number"}))
	if _, err := th.ScalingSeries("n_ranks", "solve"); err == nil {
		t.Error("non-numeric parameter should error")
	}
	th2 := New()
	th2.Add(run("solve", 1, nil)) // no parameter metadata at all
	if _, err := th2.ScalingSeries("n_ranks", "solve"); err == nil {
		t.Error("missing parameter should error")
	}
}

func TestTable(t *testing.T) {
	th := New()
	th.Add(run("solve", 1.5, map[string]string{"cluster": "cts1"}))
	th.Add(run("solve", 2.5, map[string]string{"cluster": "ats2"}))
	tbl := th.Table("cluster", []string{"solve"})
	if !strings.Contains(tbl, "cts1") || !strings.Contains(tbl, "ats2") ||
		!strings.Contains(tbl, "solve") {
		t.Errorf("table:\n%s", tbl)
	}
}
