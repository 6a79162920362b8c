package core

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/ramble"
)

// marshalResultsLog is logs/results.json as encoding/json wrote it
// before the document was appended by hand: appendResultsLog's oracle.
func marshalResultsLog(system, suite string, rep *ramble.AnalysisReport, manifests map[string]string) ([]byte, error) {
	type entry struct {
		Experiment string            `json:"experiment"`
		Status     string            `json:"status"`
		Elapsed    float64           `json:"elapsed_s"`
		FOMs       map[string]string `json:"foms,omitempty"`
		Error      string            `json:"error,omitempty"`
		Manifest   string            `json:"manifest"`
	}
	var entries []entry
	for _, e := range rep.Experiments {
		entries = append(entries, entry{
			Experiment: e.Name,
			Status:     e.Status.String(),
			Elapsed:    e.Elapsed,
			FOMs:       e.FOMs,
			Error:      e.FailMsg,
			Manifest:   manifests[e.Name],
		})
	}
	return json.MarshalIndent(map[string]any{
		"system":  system,
		"suite":   suite,
		"total":   rep.Total,
		"passed":  rep.Succeeded,
		"failed":  rep.Failed,
		"results": entries,
	}, "", "  ")
}

// checkResultsLog holds appendResultsLog to the oracle: the same bytes,
// appended after what the buffer already holds, or an error where the
// oracle gives one.
func checkResultsLog(t *testing.T, system, suite string, rep *ramble.AnalysisReport, manifests map[string]string) {
	t.Helper()
	want, werr := marshalResultsLog(system, suite, rep, manifests)
	got, gerr := appendResultsLog([]byte("prefix"), system, suite, rep, manifests)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("appendResultsLog error %v, encoding/json's %v", gerr, werr)
	}
	if werr != nil {
		return
	}
	if !bytes.HasPrefix(got, []byte("prefix")) || !bytes.Equal(got[len("prefix"):], want) {
		t.Fatalf("appendResultsLog wrote\n%s\nencoding/json writes\n%s", got, want)
	}
}

// TestResultsLogMatchesMarshalIndent: logs/results.json, appended by
// hand, is byte for byte what json.MarshalIndent made of the old map —
// key order, a null list of results, FOMs and error left out when
// empty, HTML-safe escaping, float formatting at both ends — and a NaN
// or infinite elapsed time is an error, as it was.
func TestResultsLogMatchesMarshalIndent(t *testing.T) {
	ok := &ramble.Experiment{Name: "saxpy_512", Status: ramble.Succeeded, Elapsed: 1.5e-6,
		FOMs: map[string]string{"success": "Kernel done", "saxpy_time": "0.000001964"}}
	failed := &ramble.Experiment{Name: "amg_0x1x8", Status: ramble.Failed,
		FailMsg: "bench: process grid 0x1x8 has non-positive extent", FOMs: map[string]string{}}
	escaped := &ramble.Experiment{Name: "a<b>&c\u2028d\u2029\xff\"\\\t\u2028", Status: ramble.Pending,
		FOMs: map[string]string{"<k>": "&v\u2028", "\xfe": "\x01"}, FailMsg: "</script>\u2028"}
	manifests := map[string]string{
		ok.Name:      "suite: saxpy/openmp\nsoftware: cmake, zlib\n",
		failed.Name:  "root: amg2023@1.0 <&>\n",
		escaped.Name: "\u2028\xc3",
	}
	for _, tc := range []struct {
		name string
		exps []*ramble.Experiment
	}{
		{"no experiments", nil},
		{"an empty list", []*ramble.Experiment{}},
		{"one succeeded", []*ramble.Experiment{ok}},
		{"a failed experiment with an error", []*ramble.Experiment{ok, failed}},
		{"escaping", []*ramble.Experiment{escaped, ok}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep := &ramble.AnalysisReport{Total: len(tc.exps), Succeeded: 1, Failed: len(tc.exps) - 1, Experiments: tc.exps}
			checkResultsLog(t, "cts1<&>", "saxpy/openmp\u2028", rep, manifests)
		})
	}
	for _, elapsed := range []float64{0, math.Copysign(0, -1), 5e-324, 1e-7, 1e-6, 9.99e-7, 123456.789, 1e20, 1e21, 1.7976931348623157e308, -2.5e-9, math.NaN(), math.Inf(1), math.Inf(-1)} {
		e := *ok
		e.Elapsed = elapsed
		rep := &ramble.AnalysisReport{Total: 1, Succeeded: 1, Experiments: []*ramble.Experiment{&e}}
		checkResultsLog(t, "cts1", "saxpy/openmp", rep, manifests)
	}
}

// FuzzResultsLog holds appendResultsLog to json.MarshalIndent of the
// old map over experiments built from the fuzzer's strings and times.
func FuzzResultsLog(f *testing.F) {
	f.Add("saxpy_512", "saxpy_time", "0.000001964", "", "suite: s\n", 1.5e-6, uint8(1), "cts1")
	f.Add("a<b>&c", "\u2028", "\xff", "job failed", "", 1e21, uint8(2), "")
	f.Add("", "", "", "</x>", "\x00", math.NaN(), uint8(0), "s\u2029")
	f.Fuzz(func(t *testing.T, name, fom, value, fail, manifest string, elapsed float64, status uint8, system string) {
		first := &ramble.Experiment{Name: name, Status: ramble.Status(status % 4), Elapsed: elapsed, FailMsg: fail}
		if status&4 != 0 {
			first.FOMs = map[string]string{fom: value, value: fom}
		}
		second := &ramble.Experiment{Name: name + fom, Status: ramble.Succeeded, Elapsed: -elapsed / 3,
			FOMs: map[string]string{}}
		exps := []*ramble.Experiment{first, second}
		if status&8 != 0 {
			exps = nil
		}
		rep := &ramble.AnalysisReport{Total: len(exps), Succeeded: int(status), Failed: -int(status), Experiments: exps}
		checkResultsLog(t, system, fail+system, rep, map[string]string{name: manifest, name + fom: system})
	})
}
