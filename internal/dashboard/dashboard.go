// Package dashboard renders the Benchpark results dashboard the paper
// plans in Section 5: "a quick glance of the multi-dimensional
// performance data for our benchmarks", with pre-built views the user
// can filter. It produces both a terminal rendering and a
// self-contained HTML page from the metrics database.
package dashboard

import (
	"fmt"
	"html/template"
	"sort"
	"strings"

	"repro/internal/metricsdb"
	"repro/internal/ramble"
)

// Row is one benchmark × system summary line.
type Row struct {
	Benchmark   string
	System      string
	Runs        int
	FOM         string
	Latest      float64
	Trend       []float64 // most recent values, oldest first
	Regressions int
}

// primaryFOM picks the headline figure of merit for a benchmark.
var primaryFOM = map[string]string{
	"saxpy":                "saxpy_time",
	"amg2023":              "fom",
	"stream":               "triad_bw",
	"osu-micro-benchmarks": "total_time",
	"hpcg":                 "gflops",
}

// Build summarizes the database into dashboard rows, sorted by
// benchmark then system. A benchmark without a primary FOM shows the
// sorted-first FOM its latest result carries. A FOM regresses in the
// direction ramble.RegressionThreshold gives it: downward when the
// benchmark declares it a rate, upward otherwise.
func Build(db *metricsdb.DB) []Row {
	type key struct{ b, s string }
	groups := map[key][]metricsdb.Result{}
	for _, r := range db.Query(metricsdb.Filter{}) {
		k := key{r.Benchmark, r.System}
		groups[k] = append(groups[k], r)
	}
	var rows []Row
	for k, results := range groups {
		fom := primaryFOM[k.b]
		if fom == "" {
			for name := range results[len(results)-1].FOMs {
				if fom == "" || name < fom {
					fom = name
				}
			}
		}
		row := Row{Benchmark: k.b, System: k.s, Runs: len(results), FOM: fom}
		for _, r := range results {
			if v, ok := r.FOMs[fom]; ok {
				row.Trend = append(row.Trend, v)
			}
		}
		if len(row.Trend) > 0 {
			row.Latest = row.Trend[len(row.Trend)-1]
		}
		row.Regressions = len(db.DetectRegressions(
			metricsdb.Filter{Benchmark: k.b, System: k.s}, fom, 4, ramble.RegressionThreshold(k.b, fom)))
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Benchmark != rows[j].Benchmark {
			return rows[i].Benchmark < rows[j].Benchmark
		}
		return rows[i].System < rows[j].System
	})
	return rows
}

// sparkline renders values as a unicode mini-chart.
func sparkline(vals []float64) string {
	if len(vals) == 0 {
		return ""
	}
	blocks := []rune("▁▂▃▄▅▆▇█")
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var b strings.Builder
	for _, v := range vals {
		idx := 0
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(blocks)-1))
		}
		b.WriteRune(blocks[idx])
	}
	return b.String()
}

// Text renders the dashboard for a terminal.
func Text(db *metricsdb.DB) string {
	rows := Build(db)
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %-16s %5s %-12s %14s  %-16s %s\n",
		"benchmark", "system", "runs", "FOM", "latest", "trend", "alerts")
	b.WriteString(strings.Repeat("-", 100) + "\n")
	for _, r := range rows {
		alert := ""
		if r.Regressions > 0 {
			alert = fmt.Sprintf("⚠ %d regressions", r.Regressions)
		}
		trend := r.Trend
		if len(trend) > 16 {
			trend = trend[len(trend)-16:]
		}
		fmt.Fprintf(&b, "%-22s %-16s %5d %-12s %14.6g  %-16s %s\n",
			r.Benchmark, r.System, r.Runs, r.FOM, r.Latest, sparkline(trend), alert)
	}
	if len(rows) == 0 {
		b.WriteString("(no results yet)\n")
		return b.String()
	}
	// Section 5's usage metrics: which codes are exercised most.
	b.WriteString("\nbenchmark usage (most exercised first):\n")
	for _, u := range db.Usage() {
		fmt.Fprintf(&b, "  %-22s %4d runs across %d systems (last activity seq %d)\n",
			u.Benchmark, u.Runs, u.Systems, u.LastSeq)
	}
	return b.String()
}

var htmlTmpl = template.Must(template.New("dash").Parse(`<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>Benchpark Dashboard</title>
<style>
body { font-family: system-ui, sans-serif; margin: 2rem; }
table { border-collapse: collapse; }
th, td { padding: 0.4rem 0.9rem; border-bottom: 1px solid #ddd; text-align: left; }
th { background: #f4f4f4; }
.alert { color: #b00; font-weight: bold; }
.spark { font-family: monospace; color: #369; }
</style></head><body>
<h1>Benchpark — continuous benchmarking dashboard</h1>
<p>{{.Total}} results across {{len .Systems}} systems: {{range .Systems}}{{.}} {{end}}</p>
<table>
<tr><th>benchmark</th><th>system</th><th>runs</th><th>FOM</th><th>latest</th><th>trend</th><th>alerts</th></tr>
{{range .Rows}}
<tr><td>{{.Benchmark}}</td><td>{{.System}}</td><td>{{.Runs}}</td><td>{{.FOM}}</td>
<td>{{printf "%.6g" .Latest}}</td><td class="spark">{{.Spark}}</td>
<td>{{if .Regressions}}<span class="alert">⚠ {{.Regressions}} regressions</span>{{end}}</td></tr>
{{end}}
</table></body></html>
`))

// HTML renders the dashboard as a self-contained page.
func HTML(db *metricsdb.DB) (string, error) {
	type htmlRow struct {
		Row
		Spark string
	}
	rows := Build(db)
	hrows := make([]htmlRow, len(rows))
	for i, r := range rows {
		trend := r.Trend
		if len(trend) > 24 {
			trend = trend[len(trend)-24:]
		}
		hrows[i] = htmlRow{Row: r, Spark: sparkline(trend)}
	}
	var b strings.Builder
	err := htmlTmpl.Execute(&b, map[string]any{
		"Rows":    hrows,
		"Total":   db.Len(),
		"Systems": db.Systems(),
	})
	if err != nil {
		return "", err
	}
	return b.String(), nil
}
