package resultshard

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/metricsdb"
	"repro/internal/resultstore"
)

// TestAnswersAreTheCallers: a Series or DetectRegressions answer is
// built in room an earlier answer handed back (metricsdb.RecyclePoints,
// RecycleRegressions), on a store, a router and a follower alike. Four
// readers per backend interleave filters of 0, 3 and 5,000 points,
// handing most answers back and keeping every seventh. Every answer must
// be exactly the filter's series and flags, nil when empty, with nothing
// of an earlier, longer answer in it; every kept answer must read the
// same once the others have reused the pool. Under -race, room handed
// to two callers at once is a reported race as well.
func TestAnswersAreTheCallers(t *testing.T) {
	const many = 5000
	var rs []metricsdb.Result
	for i := range many {
		// Spread over five systems, so the router and the follower merge
		// it from several shards; every eleventh sample is a step.
		v := 1 + float64(i%13)/100
		if i%11 == 10 {
			v *= 3
		}
		rs = append(rs, res("big", fmt.Sprintf("sys-%02d", i%5), "fom", v))
	}
	for i := range 3 {
		rs = append(rs, res("small", "sys-a", "fom", float64(i+1)))
	}
	windows := [2]int{4, 9}
	filters := []metricsdb.Filter{
		{Benchmark: "big"},
		{System: "nowhere"},
		{System: "sys-a", Benchmark: "small"},
	}

	st, err := resultstore.Open(t.TempDir(), fixedStoreOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	r := openRouter(t, t.TempDir(), 4)
	defer r.Close()
	ctx := context.Background()
	for _, p := range []followed{st, r} {
		if _, err := p.Append(ctx, resultstore.Batch{Key: "k", TraceID: fmt.Sprintf("%032x", 7), Results: rs}); err != nil {
			t.Fatal(err)
		}
	}
	f := NewFollower()
	if _, err := f.Sync(ctx, Primary{r}); err != nil {
		t.Fatal(err)
	}

	type reads interface {
		Query(f metricsdb.Filter) []metricsdb.Result
		Series(f metricsdb.Filter, fom string) []metricsdb.Point
		DetectRegressions(f metricsdb.Filter, fom string, window int, threshold float64) []metricsdb.Regression
	}
	for name, b := range map[string]reads{"store": st, "router": r, "follower": f} {
		// What each filter must answer, from Query, which borrows nothing.
		var wantPts [][]metricsdb.Point
		var wantRegs [2][][]metricsdb.Regression // by window: 4, 9
		for _, flt := range filters {
			var pts []metricsdb.Point
			for _, got := range b.Query(flt) {
				pts = append(pts, metricsdb.Point{Seq: got.Seq, Value: got.FOMs["fom"], TraceID: got.TraceID})
			}
			wantPts = append(wantPts, pts)
			for w := range wantRegs {
				wantRegs[w] = append(wantRegs[w], metricsdb.DetectInSeries(pts, windows[w], 1.2))
			}
		}
		if n := len(wantPts[0]); n != many || len(wantRegs[0][0]) == 0 || len(wantPts[1]) != 0 || len(wantPts[2]) != 3 {
			t.Fatalf("%s: filters hold %d, %d and %d points, %d flags on the first; want %d, 0 and 3, some flags",
				name, n, len(wantPts[1]), len(wantPts[2]), len(wantRegs[0][0]), many)
		}

		type kept struct {
			pts  []metricsdb.Point
			regs []metricsdb.Regression
			i, w int
		}
		var mu sync.Mutex
		var keep []kept
		var wg sync.WaitGroup
		for g := range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := range 30 {
					i := (g + n*(n+1)/2) % len(filters) // long, empty and short answers in every order
					w := n % 2                          // and flags of other baselines
					pts := b.Series(filters[i], "fom")
					regs := b.DetectRegressions(filters[i], "fom", windows[w], 1.2)
					if (pts == nil) != (wantPts[i] == nil) || !slices.Equal(pts, wantPts[i]) {
						t.Errorf("%s reader %d, query %d: Series(%+v) = %d points (nil: %v), want %d (nil: %v)",
							name, g, n, filters[i], len(pts), pts == nil, len(wantPts[i]), wantPts[i] == nil)
						return
					}
					if want := wantRegs[w][i]; (regs == nil) != (want == nil) || !slices.Equal(regs, want) {
						t.Errorf("%s reader %d, query %d: DetectRegressions(%+v, window %d) = %d flags (nil: %v), want %d (nil: %v)",
							name, g, n, filters[i], windows[w], len(regs), regs == nil, len(want), want == nil)
						return
					}
					if n%7 == 3 {
						mu.Lock()
						keep = append(keep, kept{pts, regs, i, w})
						mu.Unlock()
						continue
					}
					metricsdb.RecyclePoints(pts)
					metricsdb.RecycleRegressions(regs)
				}
			}()
		}
		wg.Wait()
		for _, k := range keep {
			if !reflect.DeepEqual(k.pts, wantPts[k.i]) || !reflect.DeepEqual(k.regs, wantRegs[k.w][k.i]) {
				t.Fatalf("%s: a kept answer to %+v changed once later queries reused the pool", name, filters[k.i])
			}
		}
	}
}
