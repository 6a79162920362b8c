package core

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/extrap"
	"repro/internal/hpcsim"
	"repro/internal/metricsdb"
	"repro/internal/ramble"
	"repro/internal/telemetry"
	"repro/internal/thicket"
)

// ScalingStudy is a Figure 14 style experiment set: one benchmark
// workload swept over process counts on one system, with the measured
// figure of merit fed to Extra-P.
type ScalingStudy struct {
	System    *hpcsim.System
	Benchmark string
	Workload  string
	FOM       string            // FOM name whose value is modeled
	Region    string            // Caliper region to model (alternative to FOM)
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

// Run executes the study's scale×rep points concurrently on a
// bounded worker pool (jobs <= 0 means NumCPU) and fits the Extra-P
// model. The kernels run in parallel; measurements, thicket profiles
// and metrics records are committed sequentially in sweep order, so
// the result is identical to the sequential study.
func (st *ScalingStudy) Run(ctx context.Context, bp *Benchpark, jobs int) (res *StudyResult, err error) {
	ctx, root := telemetry.StartSpan(ctx, "scaling.study")
	root.SetAttr("benchmark", st.Benchmark)
	root.SetAttr("workload", st.Workload)
	defer root.End()
	defer func() { root.SetError(err) }()
	if len(st.Scales) < 3 {
		return nil, fmt.Errorf("benchpark: scaling study needs >=3 scales")
	}
	if st.Reps <= 0 {
		st.Reps = 1
	}
	b, err := bench.Get(st.Benchmark)
	if err != nil {
		return nil, err
	}
	app, err := ramble.GetApplication(st.Benchmark)
	if err != nil {
		return nil, err
	}
	rpn := st.System.Node.Cores()
	for _, p := range st.Scales {
		if p < rpn {
			rpn = p
		}
	}

	// The sweep's point list, in the order results are committed.
	type point struct{ p, rep int }
	var points []point
	for _, p := range st.Scales {
		for rep := 0; rep < st.Reps; rep++ {
			points = append(points, point{p, rep})
		}
	}

	// Concurrent measurement: each kernel run is independent. Every
	// point gets its own span under the study root (the closure's ctx
	// shares the root ctx's cancellation, so deriving from ctx here
	// nests correctly).
	outs, errs := engine.Map(ctx, jobs, len(points), func(_ context.Context, i int) (*bench.Output, error) {
		pt := points[i]
		_, span := telemetry.StartSpan(ctx, fmt.Sprintf("point:p=%d,rep=%d", pt.p, pt.rep))
		defer span.End()
		p := pt.p
		vars := map[string]string{}
		for k, v := range st.Vars {
			vars[k] = v
		}
		if st.VarsByScale != nil {
			for k, v := range st.VarsByScale(p) {
				vars[k] = v
			}
		}
		vars["workload"] = st.Workload
		out, rerr := b.Run(bench.Params{
			System: st.System, Ranks: p, RanksPerNode: rpn,
			Vars: vars,
		})
		span.SetError(rerr)
		return out, rerr
	})

	// Sequential commit in sweep order keeps the thicket and metrics
	// database streams deterministic.
	th := thicket.New()
	var measurements []extrap.Measurement
	for i, pt := range points {
		if errs[i] != nil {
			return nil, fmt.Errorf("benchpark: scale %d: %w", pt.p, errs[i])
		}
		out := outs[i]
		foms := app.ExtractFOMs(out.Text)
		val, ok := metricsdb.ParseFOMs(foms)[st.FOM]
		if !ok {
			return nil, fmt.Errorf("benchpark: scale %d: FOM %q not in output:\n%s", pt.p, st.FOM, out.Text)
		}
		measurements = append(measurements, extrap.Measurement{P: float64(pt.p), Value: val})
		out.Metadata.Setf("nprocs", "%d", pt.p)
		th.Add(out.Profile, out.Metadata)
		bp.Metrics.Add(metricsdb.Result{
			Benchmark: st.Benchmark, Workload: st.Workload,
			System:     st.System.Name,
			Experiment: fmt.Sprintf("%s_%d_rep%d", st.Workload, pt.p, pt.rep),
			FOMs:       metricsdb.ParseFOMs(foms),
			Meta:       map[string]string{"nprocs": fmt.Sprintf("%d", pt.p)},
			Manifest:   fmt.Sprintf("system: %s\nscaling: %s/%s p=%d", st.System.Name, st.Benchmark, st.Workload, pt.p),
		})
	}
	model, err := extrap.Fit(measurements)
	if err != nil {
		return nil, err
	}
	return &StudyResult{
		Measurements: extrap.SortMeasurements(measurements),
		Model:        model,
		Thicket:      th,
	}, nil
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
		scales = []int{64, 128, 256, 512, 1024, 2048, 3456}
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
