package metricsdb

import (
	"repro/internal/engine"
)

// ResultsFromReport converts an engine report's published experiment
// outcomes into metricsdb results, attaching each experiment's
// reproducibility manifest from the manifests map (keyed by
// experiment name; experiments without an entry get an empty
// manifest). It is the single bridge between the execution engine's
// world and the federation layer: CI pipelines and `benchpark push`
// both feed a resultsd endpoint through it, so a result pushed from
// either path has identical shape.
//
// Only experiments that reported at least one FOM survive the
// conversion — an experiment with no figures of merit has nothing to
// chart or regress over. Non-numeric FOMs (e.g. the "Kernel done"
// success marker) are dropped by ParseFOMs; an experiment whose FOMs
// are all non-numeric is kept with an empty FOM map only if the raw
// map was non-empty, preserving the fact that it ran.
//
// Seq is left zero: the receiving store assigns it at ingest time
// (resultstore.Store.Append), so the same report pushed to two
// different stores gets each store's own sequence.
func ResultsFromReport(rep *engine.Report, manifests map[string]string) []Result {
	if rep == nil {
		return nil
	}
	out := make([]Result, 0, len(rep.Results))
	for _, er := range rep.Results {
		if len(er.FOMs) == 0 {
			continue
		}
		r := Result{
			Benchmark:  er.Benchmark,
			Workload:   er.Workload,
			System:     er.System,
			Experiment: er.Experiment,
			FOMs:       ParseFOMs(er.FOMs),
			Manifest:   manifests[er.Experiment],
			TraceID:    rep.TraceID,
		}
		if len(er.Meta) > 0 {
			r.Meta = make(map[string]string, len(er.Meta))
			for k, v := range er.Meta {
				r.Meta[k] = v
			}
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil
	}
	return out
}
