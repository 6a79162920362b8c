package core

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/adiak"
	"repro/internal/bench"
	"repro/internal/cachekey"
	"repro/internal/caliper"
	"repro/internal/concretizer"
	"repro/internal/engine"
	"repro/internal/metricsdb"
	"repro/internal/telemetry"
)

// UseCache attaches a durable content-addressed store to the
// deployment: the concretization memo and the binary cache persist
// through it, and every Session.Run consults the store's "run" layer
// to replay unchanged experiments. Passing nil detaches nothing —
// call it once, at deployment construction (cmd/benchpark --cache-dir,
// Automation over a shared CI cache).
func (bp *Benchpark) UseCache(st *cachekey.Store) {
	if st == nil {
		return
	}
	bp.Store = st
	if bp.Memo == nil {
		bp.Memo = concretizer.NewMemo()
	}
	bp.Memo.Persist(st.Layer("concretize"))
	bp.Cache.Persist(st.Layer("buildcache"))
}

// appendCacheStats prepends the upstream layers' traffic during this
// run (concretize memo, buildcache) to the engine report's cache
// table, which already carries the "run" layer, and mirrors the
// deltas into cache_hits_total / cache_misses_total counters labeled
// per layer — the same naming the engine uses for the run layer.
func (s *Session) appendCacheStats(ctx context.Context, rep *engine.Report,
	memoBefore concretizer.MemoStats, bcHits, bcMisses int) {
	if rep == nil {
		return
	}
	var upstream []engine.CacheStat
	memoAfter := s.Benchpark.Memo.Stats()
	if d := (engine.CacheStat{Layer: "concretize",
		Hits:   memoAfter.Hits - memoBefore.Hits,
		Misses: memoAfter.Misses - memoBefore.Misses}); d.Hits+d.Misses > 0 {
		upstream = append(upstream, d)
	}
	hitsAfter, missesAfter, _ := s.Benchpark.Cache.Stats()
	if d := (engine.CacheStat{Layer: "buildcache",
		Hits:   hitsAfter - bcHits,
		Misses: missesAfter - bcMisses}); d.Hits+d.Misses > 0 {
		upstream = append(upstream, d)
	}
	met := telemetry.FromContext(ctx).Metrics()
	for _, d := range upstream {
		met.Counter(fmt.Sprintf("cache_hits_total{layer=%q}", d.Layer)).Add(int64(d.Hits))
		met.Counter(fmt.Sprintf("cache_misses_total{layer=%q}", d.Layer)).Add(int64(d.Misses))
	}
	rep.Cache = append(upstream, rep.Cache...)
}

// ExperimentKey implements engine.CacheableRunner: the content key of
// one experiment's execution covers everything that can change its
// outcome — the suite and system coordinates, the experiment's
// rendered variables, environment, modifiers and batch script, its
// execution geometry, and the lockfile of its software environment
// (so a dependency bump re-executes even when the experiment text is
// unchanged). cachekey.HashJSON folds in the schema and toolchain
// versions on top.
//
// The key is cachekey.Hash of a struct of those fields — the struct
// TestExperimentKeyMatchesMarshalledStruct keeps — whose canonical
// JSON is written here by hand, member by member in declaration
// order with map keys sorted, so deployed run layers stay warm: a
// session hashes the same bytes without building the struct, copying
// its maps or re-escaping the lockfile per experiment.
//
// The workspace root is normalized out of every rendered value: batch
// scripts and expanded variables legitimately embed the workspace
// path, but an experiment's outcome does not depend on where the
// workspace lives — the same normalization the determinism tests
// apply to committed artifacts.
func (r *sessionRunner) ExperimentKey(i int) cachekey.Key {
	e := r.exps[i]
	lock, err := r.lockJSON(e.App.Name)
	if err != nil {
		return "" // no provenance, no caching
	}
	vars, root := r.expanded(i), r.s.Workspace.Root

	r.keyMu.Lock()
	defer r.keyMu.Unlock()
	b := r.keyBuf[:0]
	str := func(member, v string) {
		b = metricsdb.AppendString(append(b, member...), v)
	}
	normMap := func(member string, m map[string]string) {
		b = append(b, member...)
		r.keyNames = r.keyNames[:0]
		for k := range m {
			r.keyNames = append(r.keyNames, k)
		}
		sort.Strings(r.keyNames)
		for j, k := range r.keyNames {
			if j > 0 {
				b = append(b, ',')
			}
			b = appendNorm(append(metricsdb.AppendString(b, k), ':'), m[k], root)
		}
		b = append(b, '}')
	}
	num := func(member string, n int) {
		b = strconv.AppendInt(append(b, member...), int64(n), 10)
	}
	str(`{"Suite":`, r.s.Suite)
	str(`,"System":`, r.s.System.Name)
	str(`,"Experiment":`, e.Name)
	str(`,"App":`, e.App.Name)
	str(`,"Workload":`, e.Workload)
	normMap(`,"Vars":{`, vars)
	normMap(`,"Env":{`, e.Env)
	if e.Modifiers == nil {
		b = append(b, `,"Modifiers":null`...)
	} else {
		b = append(b, `,"Modifiers":[`...)
		for j, m := range e.Modifiers {
			if j > 0 {
				b = append(b, ',')
			}
			b = metricsdb.AppendString(b, m)
		}
		b = append(b, ']')
	}
	b = appendNorm(append(b, `,"Script":`...), e.Script, root)
	num(`,"NNodes":`, e.NNodes)
	num(`,"ProcsNode":`, e.ProcsPerNode)
	num(`,"NRanks":`, e.NRanks)
	num(`,"NThreads":`, e.NThreads)
	b = append(append(append(b, `,"Lockfile":`...), lock...), '}')
	r.keyBuf = b
	return cachekey.HashJSON(b).Derive("execute")
}

// appendNorm appends v as a JSON string with every occurrence of the
// workspace root replaced by $WORKSPACE: what AppendString gives for
// strings.ReplaceAll(v, root, "$WORKSPACE"), without building that
// string. The pieces between occurrences are escaped one by one —
// the replacement is ASCII, so no character spans a seam — and each
// later piece's opening quote is closed up over.
func appendNorm(b []byte, v, root string) []byte {
	if root == "" {
		return metricsdb.AppendString(b, strings.ReplaceAll(v, root, "$WORKSPACE"))
	}
	for first := true; ; first = false {
		piece, rest, found := strings.Cut(v, root)
		n := len(b)
		b = metricsdb.AppendString(b, piece)
		if !first {
			b = append(b[:n], b[n+1:]...)
		}
		if !found {
			return b
		}
		b = append(b[:len(b)-1], "$WORKSPACE"...)
		v = rest
	}
}

// lockJSON returns the named environment's lockfile as the JSON
// string the experiment keys embed, serialized and escaped once per
// session, not once per experiment: every experiment of an
// environment folds in the same text. Two workers racing to be first
// both encode it, to the same bytes.
func (r *sessionRunner) lockJSON(envName string) ([]byte, error) {
	if j, ok := r.locks.Load(envName); ok {
		return j.([]byte), nil
	}
	text := ""
	if lf, ok := r.s.Lockfiles[envName]; ok {
		var err error
		if text, err = lf.JSON(); err != nil {
			return nil, err
		}
	}
	j := metricsdb.AppendString(make([]byte, 0, len(text)+len(text)/4), text)
	r.locks.Store(envName, j)
	return j, nil
}

// cachedOutcome is the serialized form of one successful execution:
// the kernel's text output and elapsed time, the Caliper profile, and
// the Adiak metadata — everything Commit needs to settle the
// experiment exactly as a fresh execution would.
type cachedOutcome struct {
	Text    string            `json:"text"`
	Elapsed float64           `json:"elapsed_s"`
	Profile string            `json:"profile,omitempty"`
	Meta    map[string]string `json:"meta,omitempty"`
}

// MarshalExperiment implements engine.CacheableRunner; the engine
// calls it only after a successful Execute.
func (r *sessionRunner) MarshalExperiment(i int) ([]byte, error) {
	out := r.outs[i]
	if out == nil {
		return nil, fmt.Errorf("core: experiment %d has no output to cache", i)
	}
	co := cachedOutcome{Text: out.Text, Elapsed: out.Elapsed}
	if out.Profile != nil {
		p, err := out.Profile.JSON()
		if err != nil {
			return nil, err
		}
		co.Profile = p
	}
	if out.Metadata != nil {
		co.Meta = map[string]string{}
		for _, name := range out.Metadata.Names() {
			if v, ok := out.Metadata.Get(name); ok {
				co.Meta[name] = v
			}
		}
	}
	return json.Marshal(co)
}

// RestoreExperiment implements engine.CacheableRunner: it reinstates
// the cached outcome in the experiment's execution slots, so the
// sequential Commit stage — scheduler submission, profile into the
// thicket, .cali/.out files — replays identically to a cold run. Any
// decode failure returns an error and the engine re-executes.
func (r *sessionRunner) RestoreExperiment(_ context.Context, i int, data []byte) error {
	var co cachedOutcome
	if err := json.Unmarshal(data, &co); err != nil {
		return err
	}
	out := &bench.Output{Text: co.Text, Elapsed: co.Elapsed}
	if co.Profile != "" {
		p, err := caliper.ParseProfile(co.Profile)
		if err != nil {
			return err
		}
		out.Profile = p
	}
	md := adiak.New()
	names := make([]string, 0, len(co.Meta))
	for name := range co.Meta {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		md.Set(name, co.Meta[name])
	}
	out.Metadata = md
	r.outs[i], r.errs[i] = out, nil
	return nil
}
