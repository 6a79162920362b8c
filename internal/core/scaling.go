package core

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"

	"repro/internal/extrap"
	"repro/internal/hpcsim"
	"repro/internal/ramble"
	"repro/internal/thicket"
	"repro/internal/yamlite"
)

// ScalingStudy is a Figure 14 style experiment set: one benchmark
// workload swept over process counts on one system, with the measured
// figure of merit fed to Extra-P.
type ScalingStudy struct {
	System    *hpcsim.System
	Benchmark string
	Workload  string
	FOM       string            // FOM name whose value is modeled
	Vars      map[string]string // fixed workload variables
	Scales    []int             // process counts (the paper's nprocs axis)
	Reps      int               // repetitions per scale (red dots per x)

	// VarsByScale, when set, computes per-scale variables — the hook
	// for strong scaling, where the global problem is fixed and the
	// per-rank share shrinks with p. Values here override Vars.
	VarsByScale func(p int) map[string]string
}

// StudyResult carries the measurements and the fitted model.
type StudyResult struct {
	Measurements []extrap.Measurement
	Model        *extrap.Model
	Thicket      *thicket.Thicket
}

// Run renders the study's scale×rep points as one generated ramble
// suite and runs it as a scratch session of bp (jobs <= 0 means
// NumCPU). Each point is an ordinary session experiment named
// {workload}_{n_ranks}_rep{rep}: scheduled, recorded in bp.Metrics
// with the session's manifest, and replayed from bp's run cache when
// it has one. The points' FOMs, in sweep order, feed the Extra-P fit.
func (st *ScalingStudy) Run(ctx context.Context, bp *Benchpark, jobs int) (*StudyResult, error) {
	if len(st.Scales) < 3 {
		return nil, fmt.Errorf("benchpark: scaling study needs >=3 scales")
	}
	if st.Reps <= 0 {
		st.Reps = 1
	}
	var res *StudyResult
	err := bp.withScratch(st.Benchmark+"/"+st.Workload, st.System, st.suite(), func(sess *Session) error {
		rep, _, err := sess.Run(ctx, RunOptions{Jobs: jobs})
		if err != nil {
			return err
		}
		var measurements []extrap.Measurement
		for _, e := range rep.Experiments {
			if e.Status != ramble.Succeeded {
				return fmt.Errorf("benchpark: scale %d: %s", e.NRanks, e.FailMsg)
			}
			val, err := strconv.ParseFloat(e.FOMs[st.FOM], 64)
			if err != nil {
				return fmt.Errorf("benchpark: scale %d: FOM %q not in output:\n%s", e.NRanks, st.FOM, e.Output)
			}
			measurements = append(measurements, extrap.Measurement{P: float64(e.NRanks), Value: val})
		}
		model, err := extrap.Fit(measurements)
		if err != nil {
			return err
		}
		res = &StudyResult{Measurements: extrap.SortMeasurements(measurements), Model: model, Thicket: sess.Thicket}
		return nil
	})
	return res, err
}

// suite renders the study as a ramble.yaml. Vars and the workload are
// workload variables; n_ranks, the n_nodes it needs at min(cores,
// smallest scale) ranks per node, and every VarsByScale variable are
// zipped over Scales; rep is a one-variable matrix crossed with them.
func (st *ScalingStudy) suite() string {
	rpn := st.System.Node.Cores()
	for _, p := range st.Scales {
		rpn = min(rpn, p)
	}
	wlVars := yamlite.NewMap()
	for _, k := range slices.Sorted(maps.Keys(st.Vars)) {
		wlVars.Set(k, st.Vars[k])
	}
	wlVars.Set("workload", st.Workload)
	vars := yamlite.MapOf("processes_per_node", strconv.Itoa(rpn))
	zip := func(k, v string) {
		vec, _ := vars.Get(k).([]yamlite.Value)
		vars.Set(k, append(vec, v))
	}
	for _, p := range st.Scales {
		zip("n_ranks", strconv.Itoa(p))
		zip("n_nodes", strconv.Itoa((p+rpn-1)/rpn))
		if st.VarsByScale != nil {
			byScale := st.VarsByScale(p)
			for _, k := range slices.Sorted(maps.Keys(byScale)) {
				zip(k, byScale[k])
			}
		}
	}
	reps := make([]yamlite.Value, st.Reps)
	for r := range reps {
		reps[r] = strconv.Itoa(r)
	}
	vars.Set("rep", reps)
	return yamlite.Marshal(yamlite.MapOf("ramble", yamlite.MapOf(
		"include", []yamlite.Value{"./configs/variables.yaml"},
		"applications", yamlite.MapOf(st.Benchmark, yamlite.MapOf(
			"workloads", yamlite.MapOf(st.Workload, yamlite.MapOf(
				"variables", wlVars,
				"experiments", yamlite.MapOf("{workload}_{n_ranks}_rep{rep}", yamlite.MapOf(
					"variables", vars,
					"matrices", []yamlite.Value{yamlite.MapOf("reps", []yamlite.Value{"rep"})},
				)),
			)),
		)),
	)))
}

// AMGStrongScalingStudy fixes a global grid (nx × ny × globalNZ) and
// divides the z extent across ranks — the "strong-scaling study of a
// benchmark (a set of experiments with the same problem size, scaled
// on a different number of resources)" that Section 2 gives as the
// canonical experiment example.
func AMGStrongScalingStudy(sys *hpcsim.System, nx, ny, globalNZ int, scales []int) (*ScalingStudy, error) {
	for _, p := range scales {
		if globalNZ%p != 0 || globalNZ/p < 2 {
			return nil, fmt.Errorf("benchpark: global nz %d does not divide across %d ranks (needs >=2 planes each)",
				globalNZ, p)
		}
	}
	return &ScalingStudy{
		System:    sys,
		Benchmark: "amg2023",
		Workload:  "problem1",
		FOM:       "solve_time",
		Vars: map[string]string{
			"nx": fmt.Sprintf("%d", nx), "ny": fmt.Sprintf("%d", ny),
			"tolerance": "1e-6",
		},
		VarsByScale: func(p int) map[string]string {
			return map[string]string{"nz": fmt.Sprintf("%d", globalNZ/p)}
		},
		Scales: scales,
		Reps:   1,
	}, nil
}

// Figure14Study returns the study reproducing the paper's Figure 14:
// MPI_Bcast total time on the CTS architecture, swept to 3456
// processes.
func Figure14Study(scales []int) (*ScalingStudy, error) {
	cts, err := hpcsim.Get("cts1")
	if err != nil {
		return nil, err
	}
	if len(scales) == 0 {
		scales = slices.Clone(figure14Full)
	}
	return &ScalingStudy{
		System:    cts,
		Benchmark: "osu-micro-benchmarks",
		Workload:  "osu_bcast",
		FOM:       "total_time",
		Vars: map[string]string{
			"message_size": "8192",
			"iterations":   "100000",
		},
		Scales: scales,
		Reps:   1,
	}, nil
}

// Efficiency is one row of a strong-scaling analysis.
type Efficiency struct {
	P          float64
	Time       float64
	Speedup    float64 // T(p0)/T(p) · with p0 the smallest measured scale
	Efficiency float64 // Speedup / (p/p0); 1.0 is ideal strong scaling
}

// ParallelEfficiency derives speedup and efficiency from a
// strong-scaling measurement series (time-like FOM, smallest scale as
// baseline).
func ParallelEfficiency(measurements []extrap.Measurement) []Efficiency {
	if len(measurements) == 0 {
		return nil
	}
	sorted := extrap.SortMeasurements(append([]extrap.Measurement(nil), measurements...))
	base := sorted[0]
	out := make([]Efficiency, len(sorted))
	for i, m := range sorted {
		speedup := 0.0
		if m.Value > 0 {
			speedup = base.Value / m.Value
		}
		out[i] = Efficiency{
			P: m.P, Time: m.Value, Speedup: speedup,
			Efficiency: speedup / (m.P / base.P),
		}
	}
	return out
}

// RenderFigure14 renders the study result the way the paper's figure
// reads: the model string caption plus an ASCII plot of measurements
// (dots) and the model line.
func RenderFigure14(res *StudyResult) string {
	var b strings.Builder
	b.WriteString("CTS Extra-P Model\n")
	fmt.Fprintf(&b, "model: %s\n", res.Model)
	fmt.Fprintf(&b, "fit: adjusted R^2 = %.4f, SMAPE = %.2f%%\n\n", res.Model.RSquared, res.Model.SMAPE)
	b.WriteString(asciiPlot(res.Measurements, res.Model, 60, 16))
	return b.String()
}

// asciiPlot draws measurements (•) and the model line (─) on a small
// character grid.
func asciiPlot(data []extrap.Measurement, model *extrap.Model, w, h int) string {
	if len(data) == 0 {
		return ""
	}
	minP, maxP := data[0].P, data[0].P
	maxV := 0.0
	for _, d := range data {
		if d.P < minP {
			minP = d.P
		}
		if d.P > maxP {
			maxP = d.P
		}
		if d.Value > maxV {
			maxV = d.Value
		}
	}
	if mv := model.Eval(maxP); mv > maxV {
		maxV = mv
	}
	if maxV <= 0 || maxP <= minP {
		return ""
	}
	grid := make([][]byte, h)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", w))
	}
	plot := func(p, v float64, ch byte) {
		x := int(float64(w-1) * (p - minP) / (maxP - minP))
		y := int(float64(h-1) * v / maxV)
		if x < 0 || x >= w || y < 0 || y >= h {
			return
		}
		row := h - 1 - y
		if ch == '*' || grid[row][x] == ' ' {
			grid[row][x] = ch
		}
	}
	for _, m := range model.Series(minP, maxP, w) {
		plot(m.P, m.Value, '-')
	}
	for _, d := range data {
		plot(d.P, d.Value, '*')
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%8.1f s ┤\n", maxV)
	for _, row := range grid {
		b.WriteString("           │" + string(row) + "\n")
	}
	fmt.Fprintf(&b, "           └%s\n", strings.Repeat("─", w))
	fmt.Fprintf(&b, "            %-10.0f %s %10.0f (nprocs)\n", minP, strings.Repeat(" ", w-22), maxP)
	return b.String()
}
