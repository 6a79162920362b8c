package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compareCmd prints every (metric, workload) cell of B against A and
// fails when a gated cell worsened by more than its bound: the tool for
// the two-run agreement criterion and for reviewing a later change.
func compareCmd(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: sysbench compare A.json B.json")
	}
	a, err := readSuite(args[0])
	if err != nil {
		return err
	}
	b, err := readSuite(args[1])
	if err != nil {
		return err
	}
	if outside := compare(os.Stdout, a, b); outside > 0 {
		return fmt.Errorf("%d cells outside their bound", outside)
	}
	return nil
}

func readSuite(path string) (*suiteResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s suiteResult
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.Format != suiteFormat {
		return nil, fmt.Errorf("%s: format %q, want %q", path, s.Format, suiteFormat)
	}
	return &s, nil
}

// worsening is the share of a by which b is worse, negative when b is
// better.
func worsening(d metricDef, a, b float64) float64 {
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compare writes one line per cell present on both sides and returns
// how many are outside their bound. A cell present on one side only, a
// failed op, or an incorrect workload is outside by definition.
func compare(w io.Writer, a, b *suiteResult) (outside int) {
	fmt.Fprintf(w, "%-16s %-38s %14s %14s %8s %7s\n", "workload", "metric", "A (base)", "B", "B/A", "bound")
	for _, wl := range workloads {
		ra, rb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if ra == nil || rb == nil {
			if ra != rb {
				fmt.Fprintf(w, "%-16s missing on one side\n", wl.Name)
				outside++
			}
			continue
		}
		if !ra.Correct || !rb.Correct || ra.Failed+rb.Failed > 0 {
			fmt.Fprintf(w, "%-16s correct A=%v B=%v, failed ops A=%d B=%d\n", wl.Name, ra.Correct, rb.Correct, ra.Failed, rb.Failed)
			outside++
		}
		for _, d := range defs {
			va, oka := ra.Metrics[d.Name]
			vb, okb := rb.Metrics[d.Name]
			if !oka && !okb {
				continue
			}
			if oka != okb {
				fmt.Fprintf(w, "%-16s %-38s measured on one side only\n", wl.Name, d.Name)
				if d.Bound > 0 {
					outside++
				}
				continue
			}
			ratio, bound, verdict := "-", "-", ""
			if va.Value != 0 {
				ratio = fmt.Sprintf("%.3f", vb.Value/va.Value)
			}
			if d.Bound > 0 {
				bound = fmt.Sprintf("%.2f", d.Bound)
				if va.Value == 0 || worsening(d, va.Value, vb.Value) > d.Bound {
					verdict = "  OUTSIDE"
					outside++
				}
			}
			fmt.Fprintf(w, "%-16s %-38s %14.4f %14.4f %8s %7s%s\n", wl.Name, d.Name, va.Value, vb.Value, ratio, bound, verdict)
		}
	}
	return outside
}
