package core

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"

	"repro/internal/adiak"
	"repro/internal/bench"
	"repro/internal/cachekey"
	"repro/internal/caliper"
	"repro/internal/engine"
	"repro/internal/metricsdb"
	"repro/internal/telemetry"
)

// UseCache attaches a durable content-addressed store to the
// deployment: sessions solve through its "concretize" layer and
// replay unchanged experiments from its "run" layer, and the binary
// cache persists through its "buildcache" layer. Passing nil detaches
// nothing — call it once, at deployment construction
// (cmd/benchpark --cache-dir, Automation over a shared CI cache).
func (bp *Benchpark) UseCache(st *cachekey.Store) {
	if st == nil {
		return
	}
	bp.Store = st
	bp.Cache.Persist(st.Layer("buildcache"))
}

// appendCacheStats prepends this session's traffic on the upstream
// layers (concretize, buildcache) to the engine report's cache table,
// which already carries the "run" layer, and mirrors it into
// cache_hits_total / cache_misses_total counters labeled per layer —
// the same naming the engine uses for the run layer. A layer the
// session never looked in gets no row.
func (s *Session) appendCacheStats(ctx context.Context, rep *engine.Report) {
	if rep == nil {
		return
	}
	var upstream []engine.CacheStat
	met := telemetry.FromContext(ctx).Metrics()
	for _, d := range []engine.CacheStat{s.concretize, s.buildcache} {
		if d.Hits+d.Misses == 0 {
			continue
		}
		upstream = append(upstream, d)
		met.Counter(fmt.Sprintf("cache_hits_total{layer=%q}", d.Layer)).Add(int64(d.Hits))
		met.Counter(fmt.Sprintf("cache_misses_total{layer=%q}", d.Layer)).Add(int64(d.Misses))
	}
	rep.Cache = append(upstream, rep.Cache...)
}

// ExperimentKey implements engine.CacheableRunner: the content key of
// one experiment's execution covers everything that can change its
// outcome — the suite and system coordinates, the system's model
// (hpcsim.System.Fingerprint: a model edited under an unchanged name
// re-executes), the experiment's
// rendered variables (expandedVars: each of e.Vars' names through
// Expander.ExpandVar, which answers from the memo buildExperiment
// filled, a name that does not expand left out), environment,
// modifiers and batch script, its
// execution geometry, and the DAG hashes of its software
// environment's concrete roots (lockedEnv.roots, the roots of its
// spack.lock, computed once per session). A root hash is a Merkle
// hash over every node below it — name, version, compiler, variants,
// target, platform, external prefix and each dependency's hash — so it
// covers everything the lockfile lists, and a dependency bump
// re-executes even when the experiment text is unchanged.
// cachekey.HashJSON folds in the schema and toolchain versions on top.
//
// The key is cachekey.Hash of a struct of those fields — the struct
// TestExperimentKeyMatchesMarshalledStruct keeps — whose canonical
// JSON is written here by hand, member by member in declaration
// order with map keys sorted: a session hashes the same bytes
// encoding/json would give without building the struct or its maps —
// the rendered variables are written name by name, and only a miss
// builds them as a map, for Execute.
//
// The workspace root is normalized out of every rendered value: batch
// scripts and expanded variables legitimately embed the workspace
// path, but an experiment's outcome does not depend on where the
// workspace lives — the same normalization the determinism tests
// apply to committed artifacts.
func (r *sessionRunner) ExperimentKey(i int) cachekey.Key {
	e := r.exps[i]
	if r.model == "" {
		return "" // no provenance, no caching
	}
	root := r.s.Workspace.Root

	r.keyMu.Lock()
	defer r.keyMu.Unlock()
	b := r.keyBuf[:0]
	str := func(member, v string) {
		b = metricsdb.AppendString(append(b, member...), v)
	}
	list := func(member string, l []string) {
		if l == nil {
			b = append(append(b, member...), "null"...)
			return
		}
		b = append(append(b, member...), '[')
		for j, v := range l {
			if j > 0 {
				b = append(b, ',')
			}
			b = metricsdb.AppendString(b, v)
		}
		b = append(b, ']')
	}
	// normMap writes m's members in name order, each value the one
	// value gives for its name; a name it has none for is left out.
	normMap := func(member string, m map[string]string, value func(string) (string, error)) {
		b = append(b, member...)
		open := len(b)
		r.keyNames = slices.AppendSeq(r.keyNames[:0], maps.Keys(m))
		slices.Sort(r.keyNames)
		for _, k := range r.keyNames {
			if v, err := value(k); err == nil {
				if len(b) > open {
					b = append(b, ',')
				}
				b = appendNorm(append(metricsdb.AppendString(b, k), ':'), v, root)
			}
		}
		b = append(b, '}')
	}
	num := func(member string, n int) {
		b = strconv.AppendInt(append(b, member...), int64(n), 10)
	}
	str(`{"Suite":`, r.s.Suite)
	str(`,"System":`, r.s.System.Name)
	str(`,"SystemModel":`, r.model)
	str(`,"Experiment":`, e.Name)
	str(`,"App":`, e.App.Name)
	str(`,"Workload":`, e.Workload)
	normMap(`,"Vars":{`, e.Vars, e.Expander.ExpandVar)
	normMap(`,"Env":{`, e.Env, func(k string) (string, error) { return e.Env[k], nil })
	list(`,"Modifiers":`, e.Modifiers)
	b = appendNorm(append(b, `,"Script":`...), e.Script, root)
	num(`,"NNodes":`, e.NNodes)
	num(`,"ProcsNode":`, e.ProcsPerNode)
	num(`,"NRanks":`, e.NRanks)
	num(`,"NThreads":`, e.NThreads)
	list(`,"LockRoots":`, r.s.locked[e.App.Name].roots)
	b = append(b, '}')
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
// calls it only after a successful Execute. The profile is rendered
// once: the same text is kept for Commit's .cali.
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
		r.calis[i] = p
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
// thicket, .cali/.out files — replays identically to a cold run. The
// stored profile text is kept as the .cali, not rendered again, and
// the decoded metadata map becomes the Adiak metadata whole. An entry
// that does not decode, or has no profile for Commit to settle,
// returns an error and the engine re-executes.
//
// The entry is read by hand with the runner's one decoder, profile
// text and all: the outcome is the one encoding/json gives for a
// cachedOutcome and the profile it holds, except that a member name
// the entry's writer never emits is refused (encoding/json would match
// it case-folded or skip it). A refused entry is only a miss.
func (r *sessionRunner) RestoreExperiment(_ context.Context, i int, data []byte) error {
	r.decMu.Lock()
	defer r.decMu.Unlock()
	d := &r.dec
	var co cachedOutcome
	r.cali = r.cali[:0]
	err := d.Document(data, func(name []byte) {
		switch string(name) {
		case "text":
			d.String(&co.Text)
		case "elapsed_s":
			d.Float(&co.Elapsed)
		case "profile":
			d.Bytes(&r.cali)
		case "meta":
			metricsdb.DecodeMap(d, &co.Meta, r.metaHint, d.String)
		default:
			unknownMember(d, name)
		}
	})
	if err != nil {
		return err
	}
	p, err := decodeProfile(d, r.cali) // an entry with no profile does not decode
	if err != nil {
		return err
	}
	r.metaHint = len(co.Meta)
	r.outs[i] = &bench.Output{Text: co.Text, Elapsed: co.Elapsed, Profile: p, Metadata: adiak.FromMap(co.Meta)}
	r.errs[i], r.calis[i] = nil, string(r.cali)
	return nil
}

// decodeProfile reads a profile from the JSON Profile.JSON writes, as
// encoding/json would decode it: the format must be
// caliper.FileFormat, and absent or null regions or metrics are empty
// maps.
func decodeProfile(d *metricsdb.Decoder, text []byte) (*caliper.Profile, error) {
	var format string
	p := &caliper.Profile{}
	err := d.Document(text, func(name []byte) {
		switch string(name) {
		case "format":
			d.String(&format)
		case "regions":
			metricsdb.DecodeMap(d, &p.Regions, 0, func(st *caliper.RegionStat) {
				d.Object(func(name []byte) {
					switch string(name) {
					case "Count":
						d.Int(&st.Count)
					case "Total":
						d.Float(&st.Total)
					case "Min":
						d.Float(&st.Min)
					case "Max":
						d.Float(&st.Max)
					default:
						unknownMember(d, name)
					}
				})
			})
		case "metrics":
			metricsdb.DecodeMap(d, &p.Metrics, 0, d.Float)
		default:
			unknownMember(d, name)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("core: bad profile in a run entry: %w", err)
	}
	if format != caliper.FileFormat {
		return nil, fmt.Errorf("core: run entry profile has format %q, want %q", format, caliper.FileFormat)
	}
	if p.Regions == nil {
		p.Regions = map[string]caliper.RegionStat{}
	}
	if p.Metrics == nil {
		p.Metrics = map[string]float64{}
	}
	return p, nil
}

// unknownMember refuses a member no writer of a run entry emits.
func unknownMember(d *metricsdb.Decoder, name []byte) {
	d.Fail(fmt.Errorf("core: unknown member %q in a run entry", name))
}
