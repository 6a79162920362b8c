package telemetry

import (
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/caliper"
)

// JSON renders the trace as an indented, deterministic JSON document:
// spans are pre-sorted by Snapshot and encoding/json marshals map
// keys sorted, so identical runs under a FixedClock produce
// byte-identical output.
func (t *Trace) JSON() (string, error) {
	b, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return "", err
	}
	return string(b) + "\n", nil
}

// ParseTrace reads a trace back from its JSON form.
func ParseTrace(src string) (*Trace, error) {
	var t Trace
	if err := json.Unmarshal([]byte(src), &t); err != nil {
		return nil, fmt.Errorf("telemetry: bad trace file: %w", err)
	}
	if t.Format != TraceFormat {
		return nil, fmt.Errorf("telemetry: unsupported trace format %q", t.Format)
	}
	return &t, nil
}

// CaliperProfile converts the trace into the project's Caliper
// profile model: spans aggregate into hierarchical regions keyed by
// their path (repeated sibling spans merge into one region with
// count > 1, exactly like repeated Begin/End annotations on a
// Recorder), and metric counters carry over. The result serializes
// with caliper.Profile.JSON into the same .cali interchange form as
// benchmark profiles, so harness traces flow into the existing
// caliper → thicket → extrap analysis path alongside benchmark data.
func (t *Trace) CaliperProfile() *caliper.Profile {
	p := caliper.NewProfile()
	for _, s := range t.Spans {
		st := p.Regions[s.Path]
		if st.Count == 0 {
			st.Min = math.Inf(1)
		}
		st.Count++
		st.Total += s.DurS
		if s.DurS < st.Min {
			st.Min = s.DurS
		}
		if s.DurS > st.Max {
			st.Max = s.DurS
		}
		p.Regions[s.Path] = st
	}
	for name, v := range t.Metrics.Counters {
		p.Metrics[name] = float64(v)
	}
	return p
}

// PrometheusText renders the snapshot in the Prometheus text
// exposition format. Metric names may embed a label block
// (`x{k="v"}`); histogram bucket lines splice the `le` label into it.
// Output is fully sorted, so identical registry states render
// byte-identically regardless of observation interleaving.
func (m MetricsSnapshot) PrometheusText() string {
	var b strings.Builder
	m.writeText(&b)
	return b.String()
}

func (m MetricsSnapshot) writeText(b *strings.Builder) {
	writeInt := func(base, labels string, v int64) {
		fmt.Fprintf(b, "%s %d\n", joinLabels(base, labels), v)
	}
	writeFamilies(b, "counter", m.Counters, writeInt)
	writeFamilies(b, "gauge", m.Gauges, writeInt)
	writeFamilies(b, "histogram", m.Histograms, func(base, labels string, h HistogramSnapshot) {
		for _, bk := range h.Buckets {
			le := fmt.Sprintf("le=%q", formatFloat(bk.LE))
			fmt.Fprintf(b, "%s %d\n", joinLabels(base+"_bucket", appendLabel(labels, le)), bk.Count)
		}
		fmt.Fprintf(b, "%s %d\n", joinLabels(base+"_bucket", appendLabel(labels, `le="+Inf"`)), h.Count)
		fmt.Fprintf(b, "%s %s\n", joinLabels(base+"_sum", labels), formatFloat(h.Sum))
		fmt.Fprintf(b, "%s %d\n", joinLabels(base+"_count", labels), h.Count)
	})
}

// writeFamilies renders one instrument kind, grouped by family: names
// sort by base name first and label block second, so each family gets
// exactly one `# TYPE` line with its samples contiguous beneath it —
// the text parser rejects a repeated TYPE line, and plain full-name
// order would let `x_total_bytes` split `x_total` from `x_total{...}`.
func writeFamilies[V any](b *strings.Builder, typ string, m map[string]V, sample func(base, labels string, v V)) {
	names := slices.Sorted(maps.Keys(m))
	sort.SliceStable(names, func(i, j int) bool {
		bi, _ := splitLabels(names[i])
		bj, _ := splitLabels(names[j])
		return bi < bj
	})
	family := ""
	for _, name := range names {
		base, labels := splitLabels(name)
		if base != family {
			fmt.Fprintf(b, "# TYPE %s %s\n", base, typ)
			family = base
		}
		sample(base, labels, m[name])
	}
}

// PrometheusText renders the trace's metrics in the Prometheus text
// exposition format, plus one derived metric family
// (benchpark_span_seconds) summing span time per region path.
func (t *Trace) PrometheusText() string {
	var b strings.Builder
	t.Metrics.writeText(&b)

	// Span time per region path, so a scrape sees where harness wall
	// time went without parsing the span list.
	totals := map[string]float64{}
	for _, s := range t.Spans {
		totals[fmt.Sprintf("benchpark_span_seconds{path=%q}", s.Path)] += s.DurS
	}
	writeFamilies(&b, "counter", totals, func(base, labels string, v float64) {
		fmt.Fprintf(&b, "%s %s\n", joinLabels(base, labels), formatFloat(v))
	})
	return b.String()
}

// splitLabels separates `base{k="v",...}` into base and the label
// body (without braces); labels is "" when the name has none.
func splitLabels(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	return name[:i], strings.TrimSuffix(name[i+1:], "}")
}

func appendLabel(labels, l string) string {
	if labels == "" {
		return l
	}
	return labels + "," + l
}

func joinLabels(base, labels string) string {
	if labels == "" {
		return base
	}
	return base + "{" + labels + "}"
}

// formatFloat renders a metric value the shortest way that round-trips.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
