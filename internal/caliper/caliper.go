// Package caliper is a performance-introspection library for the
// simulated HPC stack — the Go analogue of LLNL's Caliper, which the
// Benchpark paper plans to use for "function-level timings and GPU
// performance counters" with always-on profiling (Section 5).
//
// A Recorder is owned by one simulated rank; it reads time from an
// injected clock (the rank's logical clock in mpisim), tracks a stack
// of annotated regions, and produces a Profile of inclusive times per
// hierarchical region path. Profiles from many ranks merge into a
// per-run profile, and Thicket (internal/thicket) composes profiles
// across runs, scales and systems.
package caliper

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// RegionStat aggregates one region path.
type RegionStat struct {
	Count int
	Total float64 // inclusive seconds
	Min   float64
	Max   float64
}

// mean returns Total/Count.
func (s RegionStat) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Total / float64(s.Count)
}

// Profile is the output of a Recorder (or a merge of recorders):
// region path -> statistics, plus free-form metrics.
type Profile struct {
	Regions map[string]RegionStat
	Metrics map[string]float64 // counters: bytes moved, iterations, ...
}

// NewProfile returns an empty profile.
func NewProfile() *Profile {
	return &Profile{Regions: map[string]RegionStat{}, Metrics: map[string]float64{}}
}

// Paths returns the region paths, sorted.
func (p *Profile) Paths() []string {
	out := make([]string, 0, len(p.Regions))
	for k := range p.Regions {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Region returns the stats for a path ("" stats if absent).
func (p *Profile) Region(path string) RegionStat { return p.Regions[path] }

// Recorder annotates regions against an injected clock.
type Recorder struct {
	clock func() float64
	stack []frame
	prof  *Profile
	err   error // the first mismatched End, Snapshot's error
}

type frame struct {
	name  string
	start float64
}

// NewRecorder returns a recorder reading the given clock
// (e.g. a mpisim rank's Now).
func NewRecorder(clock func() float64) *Recorder {
	return &Recorder{clock: clock, prof: NewProfile()}
}

// Begin opens a region. Regions nest: Begin("solve") inside
// Begin("main") records under "main/solve".
func (r *Recorder) Begin(name string) {
	r.stack = append(r.stack, frame{name: name, start: r.clock()})
}

// End closes the innermost region, which must be name. A mismatched
// End leaves the open regions as they are and is Snapshot's error;
// after one, End does nothing.
func (r *Recorder) End(name string) {
	if r.err != nil {
		return
	}
	if len(r.stack) == 0 {
		r.err = fmt.Errorf("caliper: End(%q) with no open region", name)
		return
	}
	top := r.stack[len(r.stack)-1]
	if top.name != name {
		r.err = fmt.Errorf("caliper: End(%q) does not match open region %q", name, top.name)
		return
	}
	r.stack = r.stack[:len(r.stack)-1]
	elapsed := r.clock() - top.start
	path := r.path() + name
	st := r.prof.Regions[path]
	if st.Count == 0 {
		st.Min = math.Inf(1)
	}
	st.Count++
	st.Total += elapsed
	if elapsed < st.Min {
		st.Min = elapsed
	}
	if elapsed > st.Max {
		st.Max = elapsed
	}
	r.prof.Regions[path] = st
}

// path renders the open stack as "a/b/" (empty at top level).
func (r *Recorder) path() string {
	if len(r.stack) == 0 {
		return ""
	}
	var b strings.Builder
	for _, f := range r.stack {
		b.WriteString(f.name)
		b.WriteString("/")
	}
	return b.String()
}

// Region returns the stats recorded so far for a path, so a rank can
// report its own region times before its profile is snapshotted.
func (r *Recorder) Region(path string) RegionStat { return r.prof.Regions[path] }

// AddMetric accumulates a counter value.
func (r *Recorder) AddMetric(name string, v float64) {
	r.prof.Metrics[name] += v
}

// Snapshot returns the profile. A mismatched End, or a region still
// open, is an error.
func (r *Recorder) Snapshot() (*Profile, error) {
	if r.err != nil {
		return nil, r.err
	}
	if len(r.stack) != 0 {
		return nil, fmt.Errorf("caliper: %d regions still open (innermost %q)",
			len(r.stack), r.stack[len(r.stack)-1].name)
	}
	return r.prof, nil
}

// MergeRanks combines per-rank profiles into one per-run profile:
// counts sum; totals become the max across ranks (the critical rank)
// while Min/Max span all ranks. Metrics sum.
func MergeRanks(profiles []*Profile) *Profile {
	out := NewProfile()
	totals := map[string]float64{}
	for _, p := range profiles {
		for path, st := range p.Regions {
			acc := out.Regions[path]
			if acc.Count == 0 {
				acc.Min = math.Inf(1)
			}
			acc.Count += st.Count
			if st.Total > totals[path] {
				totals[path] = st.Total
			}
			if st.Min < acc.Min {
				acc.Min = st.Min
			}
			if st.Max > acc.Max {
				acc.Max = st.Max
			}
			out.Regions[path] = acc
		}
		for k, v := range p.Metrics {
			out.Metrics[k] += v
		}
	}
	for path, tot := range totals {
		st := out.Regions[path]
		st.Total = tot
		out.Regions[path] = st
	}
	return out
}
