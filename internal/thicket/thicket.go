// Package thicket composes performance profiles from many runs —
// potentially at different scales, on different architectures, with
// different dependency versions — into one ensemble that groups runs
// by metadata and tabulates per-region statistics, mirroring LLNL's
// Thicket as used in Section 5 of the Benchpark paper (Figure 14 is
// an Extra-P model computed over such an ensemble).
package thicket

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/adiak"
	"repro/internal/caliper"
	"repro/internal/extrap"
)

// Run is one performance experiment: a Caliper profile plus Adiak
// metadata.
type Run struct {
	Profile  *caliper.Profile
	Metadata *adiak.Metadata
}

// Thicket is an ensemble of runs.
type Thicket struct {
	Runs []*Run
}

// New returns an empty thicket.
func New() *Thicket { return &Thicket{} }

// Add appends a run to the ensemble.
func (t *Thicket) Add(profile *caliper.Profile, md *adiak.Metadata) {
	t.Runs = append(t.Runs, &Run{Profile: profile, Metadata: md})
}

// GroupBy partitions the ensemble by a metadata key; runs lacking the
// key group under "".
func (t *Thicket) GroupBy(key string) map[string]*Thicket {
	out := map[string]*Thicket{}
	for _, r := range t.Runs {
		v, _ := r.Metadata.Get(key)
		g, ok := out[v]
		if !ok {
			g = New()
			out[v] = g
		}
		g.Runs = append(g.Runs, r)
	}
	return out
}

// Stats aggregates one region's total time across the ensemble.
type Stats struct {
	N                   int
	Mean, Min, Max, Std float64
}

// RegionStats computes ensemble statistics of a region's total time.
func (t *Thicket) RegionStats(region string) Stats {
	var vals []float64
	for _, r := range t.Runs {
		if st, ok := r.Profile.Regions[region]; ok {
			vals = append(vals, st.Total)
		}
	}
	return computeStats(vals)
}

func computeStats(vals []float64) Stats {
	s := Stats{N: len(vals), Min: math.Inf(1), Max: math.Inf(-1)}
	if len(vals) == 0 {
		return Stats{}
	}
	var sum float64
	for _, v := range vals {
		sum += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = sum / float64(len(vals))
	var ss float64
	for _, v := range vals {
		ss += (v - s.Mean) * (v - s.Mean)
	}
	s.Std = math.Sqrt(ss / float64(len(vals)))
	return s
}

// ScalingSeries extracts (paramKey, region total time) measurements
// for Extra-P model fitting: the Figure 14 pipeline. The metadata
// value under paramKey must be numeric (e.g. n_ranks).
func (t *Thicket) ScalingSeries(paramKey, region string) ([]extrap.Measurement, error) {
	var out []extrap.Measurement
	for _, r := range t.Runs {
		pv, ok := r.Metadata.Get(paramKey)
		if !ok {
			continue
		}
		p, err := strconv.ParseFloat(pv, 64)
		if err != nil {
			return nil, fmt.Errorf("thicket: metadata %s=%q is not numeric", paramKey, pv)
		}
		st, ok := r.Profile.Regions[region]
		if !ok {
			continue
		}
		out = append(out, extrap.Measurement{P: p, Value: st.Total})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("thicket: no runs carry both %s metadata and region %q", paramKey, region)
	}
	return extrap.SortMeasurements(out), nil
}

// Table renders an ASCII statistics table of the given regions across
// the ensemble, grouped by a metadata key.
func (t *Thicket) Table(groupKey string, regions []string) string {
	var b strings.Builder
	groups := t.GroupBy(groupKey)
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(&b, "%-24s %-28s %6s %12s %12s %12s\n", groupKey, "region", "n", "mean(s)", "min(s)", "max(s)")
	for _, k := range keys {
		g := groups[k]
		for _, region := range regions {
			st := g.RegionStats(region)
			if st.N == 0 {
				continue
			}
			fmt.Fprintf(&b, "%-24s %-28s %6d %12.6f %12.6f %12.6f\n",
				k, region, st.N, st.Mean, st.Min, st.Max)
		}
	}
	return b.String()
}
