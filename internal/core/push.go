package core

import (
	"context"
	"crypto/sha256"
	"fmt"

	"repro/internal/engine"
	"repro/internal/metricsdb"
	"repro/internal/ramble"
	"repro/internal/resultsd"
	"repro/internal/telemetry"
)

// Push ships the results of one analysed run — rep and erep as Run
// returned them — to a results service: the metricsdb bridge attaches
// the session's manifests and the run's trace ID, and the push is a
// "push:<who>" span carrying the ingest key and the result count, whose
// context the client propagates so the server's spans join the trace.
// A run with nothing publishable pushes nothing and returns a nil
// response.
//
// The ingest key is keyPrefix plus a content hash (ingestKey), so a
// retry or an identical re-push is a server-side no-op; what makes two
// pushes of identical content distinct belongs in salt.
func (s *Session) Push(ctx context.Context, c *resultsd.Client, who, keyPrefix, salt string,
	rep *ramble.AnalysisReport, erep *engine.Report) (key string, resp *resultsd.IngestResponse, err error) {
	results := metricsdb.ResultsFromReport(erep, s.Manifests(rep))
	if len(results) == 0 {
		return "", nil, nil
	}
	if key, err = ingestKey(keyPrefix, salt, results); err != nil {
		return "", nil, err
	}
	ctx, span := telemetry.StartSpan(ctx, "push:"+who)
	defer span.End()
	span.SetAttr("ingest_key", key)
	span.SetInt("results", len(results))
	resp, err = c.Push(ctx, key, results)
	span.SetError(err)
	return key, resp, err
}

// ingestKey derives the deterministic idempotency key of one push:
// prefix, then the first eight bytes of SHA-256 over salt and the
// results' JSON (the codec's bytes are encoding/json's, so keys match
// those of binaries that hashed json.Marshal output).
func ingestKey(prefix, salt string, results []metricsdb.Result) (string, error) {
	data, err := metricsdb.AppendResults([]byte(salt), results)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return fmt.Sprintf("%s-%x", prefix, sum[:8]), nil
}
