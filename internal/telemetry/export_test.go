package telemetry

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// buildTrace makes a small deterministic trace: a root with two
// "stage" siblings (aggregating into one Caliper region) plus metrics.
func buildTrace(t *testing.T) *Trace {
	t.Helper()
	tr := New(NewStepClock(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC), time.Second))
	ctx := WithTracer(context.Background(), tr)
	rctx, root := StartSpan(ctx, "run")
	_, a := StartSpan(rctx, "stage")
	a.End()
	_, b := StartSpan(rctx, "stage")
	b.SetError(errors.New("boom"))
	b.End()
	root.End()
	tr.Metrics().Counter("hits_total").Add(3)
	tr.Metrics().Gauge("inflight").Set(2)
	tr.Metrics().Histogram(`lat_seconds{stage="x"}`, time.Second, 10*time.Second).Observe(500 * time.Millisecond)
	return tr.Snapshot()
}

func TestTraceJSONRoundTrip(t *testing.T) {
	trace := buildTrace(t)
	src, err := trace.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(src, "\n") {
		t.Fatal("trace JSON must end with a newline")
	}
	back, err := ParseTrace(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Spans) != len(trace.Spans) || back.Format != TraceFormat {
		t.Fatalf("round trip lost spans: %d vs %d", len(back.Spans), len(trace.Spans))
	}
	src2, err := back.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if src != src2 {
		t.Fatal("re-marshaled trace differs")
	}
	if _, err := ParseTrace(`{"format":"other"}`); err == nil {
		t.Fatal("unknown format must be rejected")
	}
	if _, err := ParseTrace("not json"); err == nil {
		t.Fatal("bad JSON must be rejected")
	}
}

func TestCaliperProfileAggregation(t *testing.T) {
	trace := buildTrace(t)
	p := trace.CaliperProfile()
	// The two "stage" siblings share the run/stage path, so they merge
	// into one region with Count 2 — like repeated Begin/End pairs.
	st, ok := p.Regions["run/stage"]
	if !ok {
		t.Fatalf("missing run/stage region; have %v", p.Regions)
	}
	if st.Count != 2 {
		t.Fatalf("region count: %d", st.Count)
	}
	// StepClock: spans are 1s each (one tick between start and end...
	// plus the ticks consumed by the sibling's start). Min <= Max and
	// Total is their sum.
	if st.Min > st.Max || st.Total <= 0 {
		t.Fatalf("region stats: %+v", st)
	}
	if _, ok := p.Regions["run"]; !ok {
		t.Fatal("missing root region")
	}
	if p.Metrics["hits_total"] != 3 {
		t.Fatalf("counter not carried over: %v", p.Metrics)
	}
	// The profile must serialize through the project's .cali writer.
	if _, err := p.JSON(); err != nil {
		t.Fatal(err)
	}
}

func TestPrometheusText(t *testing.T) {
	trace := buildTrace(t)
	text := trace.PrometheusText()
	for _, want := range []string{
		"# TYPE hits_total counter",
		"hits_total 3",
		"# TYPE inflight gauge",
		"inflight 2",
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{stage="x",le="1"} 1`,
		`lat_seconds_bucket{stage="x",le="+Inf"} 1`,
		`lat_seconds_sum{stage="x"} 0.5`,
		`lat_seconds_count{stage="x"} 1`,
		"# TYPE benchpark_span_seconds counter",
		`benchpark_span_seconds{path="run/stage"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("missing %q in exposition:\n%s", want, text)
		}
	}
	// Deterministic: rendering twice is identical.
	if text != trace.PrometheusText() {
		t.Fatal("exposition not deterministic")
	}
}

func TestFormatFloat(t *testing.T) {
	for _, tc := range []struct {
		v    float64
		want string
	}{
		{0, "0"}, {3, "3"}, {0.5, "0.5"}, {-2, "-2"},
	} {
		if got := formatFloat(tc.v); got != tc.want {
			t.Errorf("formatFloat(%v) = %q, want %q", tc.v, got, tc.want)
		}
	}
}

func TestSplitJoinLabels(t *testing.T) {
	base, labels := splitLabels(`m{a="1",b="2"}`)
	if base != "m" || labels != `a="1",b="2"` {
		t.Fatalf("splitLabels: %q %q", base, labels)
	}
	if b, l := splitLabels("plain"); b != "plain" || l != "" {
		t.Fatalf("splitLabels plain: %q %q", b, l)
	}
	if got := joinLabels("m_bucket", appendLabel(labels, `le="+Inf"`)); got != `m_bucket{a="1",b="2",le="+Inf"}` {
		t.Fatalf("joinLabels: %q", got)
	}
	if got := joinLabels("m", ""); got != "m" {
		t.Fatalf("joinLabels empty: %q", got)
	}
}

// TestPrometheusTextOneTypeLinePerFamily pins the exposition's family
// grouping: label sets of one family share a single `# TYPE` line (the
// text parser rejects a second one) and stay contiguous beneath it,
// even when a neighbour family's name sorts between the bare and the
// labelled sample (`x_total` < `x_total_bytes` < `x_total{`).
func TestPrometheusTextOneTypeLinePerFamily(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total").Inc()
	r.Counter(`x_total{route="a"}`).Inc()
	r.Counter(`x_total{route="b"}`).Inc()
	r.Counter("x_total_bytes").Add(7)
	r.Histogram(`lat_seconds{route="a"}`).Observe(time.Millisecond)
	r.Histogram(`lat_seconds{route="b"}`).Observe(time.Second)
	text := r.Snapshot().PrometheusText()

	seen := map[string]bool{}
	family, typ := "", ""
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			family, typ, _ = strings.Cut(rest, " ")
			if seen[family] {
				t.Errorf("second TYPE line for family %s", family)
			}
			seen[family] = true
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		if typ == "histogram" {
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				name = strings.TrimSuffix(name, suffix)
			}
		}
		if name != family {
			t.Errorf("sample %q sits under family %s", line, family)
		}
	}
	if len(seen) != 3 {
		t.Errorf("want families x_total, x_total_bytes, lat_seconds; got %v", seen)
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", text)
	}
}
