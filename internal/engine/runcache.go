package engine

import (
	"context"

	"repro/internal/cachekey"
)

// ExperimentCache is the engine-facing contract of the run-cache
// layer: a durable byte store keyed by content. *cachekey.Layer
// implements it; tests substitute fakes.
type ExperimentCache interface {
	// Read hands the payload stored under key to use and reports
	// whether there was one and use took it; any corruption is a miss.
	// The payload is borrowed: it is valid only until use returns.
	Read(key cachekey.Key, use func(payload []byte) bool) bool
	// Put durably stores payload under key.
	Put(key cachekey.Key, data []byte) error
}

// CacheableRunner is the optional Runner extension behind the
// incremental pipeline's "run" layer. When the Runner implements it
// and Options.Cache is set, the engine consults the cache before
// dispatching each experiment:
//
//   - ExperimentKey(i) is the content key of experiment i's execution
//     — everything that can influence its outcome (spec, system,
//     variables, software provenance), derived via cachekey. An
//     invalid key (cachekey.Key("")) opts the experiment out.
//   - On a hit, the engine calls RestoreExperiment instead of Execute,
//     inside the cache's Read: the entry is read once, into memory the
//     cache only lends, and the runner copies what it keeps as it
//     reinstates the cached outcome, so the subsequent Commit — still
//     run through the same sorted merge, in index order — observes
//     exactly the state a fresh execution would have left. The experiment's telemetry span is opened either way, so
//     a warm run's span structure is identical to a cold run's.
//   - On a miss, Execute runs normally; if it succeeds, the engine
//     stores MarshalExperiment's bytes under the key. Failed
//     executions are never cached, and cache I/O errors degrade to
//     the uncached path — the cache is an accelerator, not a
//     correctness dependency.
type CacheableRunner interface {
	Runner
	// ExperimentKey returns the content key of experiment i.
	ExperimentKey(i int) cachekey.Key
	// MarshalExperiment serializes experiment i's outcome after a
	// successful Execute.
	MarshalExperiment(i int) ([]byte, error)
	// RestoreExperiment reinstates a previously marshalled outcome for
	// experiment i. ctx carries the experiment's telemetry span. data
	// is borrowed and valid only until it returns. An error falls back
	// to a real execution.
	RestoreExperiment(ctx context.Context, i int, data []byte) error
}

// CacheStat is one cache layer's traffic during a run.
type CacheStat struct {
	Layer  string
	Hits   int
	Misses int
	Bytes  int64 // payload bytes replayed by hits plus written on misses
}
