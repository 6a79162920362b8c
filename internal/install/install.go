// Package install is the installation engine (Spack component 4 in
// Section 3.1 of the Benchpark paper): it installs a concrete spec
// DAG in dependency order with a bounded worker pool, consulting a
// binary cache before building from source, and records every
// installation in a thread-safe database.
//
// Builds are simulated: each package's recipe declares a build cost,
// perturbed deterministically by the spec hash, so install reports
// and the cache-ablation benchmark are reproducible. The worker pool
// is real (goroutines + channels); the reported makespan comes from a
// deterministic list-scheduling simulation over the same DAG so that
// results do not depend on goroutine timing.
package install

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"repro/internal/archspec"

	"repro/internal/buildcache"
	"repro/internal/pkgrepo"
	"repro/internal/spec"
	"repro/internal/telemetry"
)

// Record is one installed package.
type Record struct {
	Hash     string
	Spec     *spec.Spec
	Prefix   string
	External bool
	Explicit bool // installed by user request rather than as a dependency
	// Flags are the archspec-derived optimization flags the build
	// used (Section 3.1.3: archspec tailors build recipes to the
	// target architecture). Empty for externals.
	Flags string
}

// Database is the install database (the analogue of Spack's
// .spack-db), safe for concurrent use.
type Database struct {
	mu      sync.RWMutex
	records map[string]Record
}

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	return &Database{records: map[string]Record{}}
}

// Add registers an installation (idempotent by hash).
func (db *Database) Add(r Record) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if old, ok := db.records[r.Hash]; ok {
		// Keep the strongest explicitness.
		r.Explicit = r.Explicit || old.Explicit
	}
	db.records[r.Hash] = r
}

// Has reports whether the hash is installed.
func (db *Database) Has(hash string) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	_, ok := db.records[hash]
	return ok
}

// Get returns the record for a hash.
func (db *Database) Get(hash string) (Record, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	r, ok := db.records[hash]
	return r, ok
}

// Remove deletes a record by hash (spack uninstall). It returns
// whether the hash was present.
func (db *Database) Remove(hash string) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	_, ok := db.records[hash]
	delete(db.records, hash)
	return ok
}

// Len reports the number of installed packages.
func (db *Database) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.records)
}

// Find returns installed specs satisfying the constraint, sorted by
// package name then hash — the engine behind `spack find`.
func (db *Database) Find(constraint *spec.Spec) []Record {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []Record
	for _, r := range db.records {
		if r.Spec.Satisfies(constraint) {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Spec.Name != out[j].Spec.Name {
			return out[i].Spec.Name < out[j].Spec.Name
		}
		return out[i].Hash < out[j].Hash
	})
	return out
}

// BuildResult describes how one node was satisfied during an install.
type BuildResult struct {
	Name      string
	Hash      string
	Action    Action
	Seconds   float64 // simulated build/fetch duration
	StartedAt float64 // simulated start time within the install
}

// Action classifies how a node was satisfied.
type Action int

const (
	// Built from source.
	Built Action = iota
	// FetchedFromCache got a binary from the build cache.
	FetchedFromCache
	// AlreadyInstalled was present in the database.
	AlreadyInstalled
	// UsedExternal points at a system installation.
	UsedExternal
)

func (a Action) String() string {
	switch a {
	case Built:
		return "built"
	case FetchedFromCache:
		return "cache"
	case AlreadyInstalled:
		return "installed"
	case UsedExternal:
		return "external"
	}
	return "unknown"
}

// Report summarizes one Install call.
type Report struct {
	Results []BuildResult
	// Makespan is the simulated wall time of the install under the
	// configured worker count (list scheduling over the DAG).
	Makespan float64
	// TotalWork is the sum of simulated build seconds.
	TotalWork float64
}

// Count returns the number of results with the given action.
func (r *Report) Count(a Action) int {
	n := 0
	for _, res := range r.Results {
		if res.Action == a {
			n++
		}
	}
	return n
}

// nodeState tracks one DAG node during an Install call.
type nodeState struct {
	node     *spec.Spec
	deps     []string // hashes this node waits for
	seconds  float64  // simulated duration for the chosen action
	action   Action
	prefix   string
	explicit bool
}

// Installer installs concrete spec DAGs.
type Installer struct {
	Repo    *pkgrepo.Repo
	DB      *Database
	Cache   *buildcache.Cache // optional; nil disables the binary cache
	Workers int               // worker pool size; <=0 means 4

	// PushToCache mirrors every source build into the cache, the way
	// Spack CI populates the rolling binary cache.
	PushToCache bool

	// ReuseCompatible lets a cache miss fall back to a binary of the
	// same package/version built for a compatible (ancestor)
	// microarchitecture — Spack's relocatable-binary reuse, gated by
	// archspec compatibility.
	ReuseCompatible bool
}

// New returns an installer with a fresh database.
func New(repo *pkgrepo.Repo) *Installer {
	return &Installer{Repo: repo, DB: NewDatabase(), Workers: 4}
}

// fetchCost is the simulated time to download + relocate a binary
// from the cache, as a fraction of the build cost (floor 2s).
func fetchCost(buildSeconds float64) float64 {
	c := buildSeconds * 0.05
	if c < 2 {
		c = 2
	}
	return c
}

// BuildSeconds returns the simulated from-source build duration for a
// concrete node whose DAG hash is h: the recipe's cost scaled by a
// deterministic ±10% perturbation derived from the hash.
func (inst *Installer) BuildSeconds(node *spec.Spec, h string) (float64, error) {
	pkg, err := inst.Repo.Get(node.Name)
	if err != nil {
		return 0, err
	}
	// Two hex-ish chars -> [0,1024) -> ±10%.
	v := float64(int(h[0])*32+int(h[1])) / 1024.0
	return pkg.BuildCost * (0.9 + 0.2*v), nil
}

// Install installs the DAG rooted at root. The root is recorded as
// explicitly installed. It is an error if root is not concrete.
// Cancellable callers use InstallContext.
//
//benchlint:compat
func (inst *Installer) Install(root *spec.Spec) (*Report, error) {
	return inst.InstallContext(context.Background(), root)
}

// InstallContext is Install with cancellation: the context is checked
// before scheduling and between node executions, so a cancelled
// experiment engine does not keep building a deep DAG. Already
// completed node installs stay in the database. When the context
// carries a tracer, the install records a span and mirrors its cache
// outcome into install_cache_hits_total / install_cache_misses_total.
func (inst *Installer) InstallContext(ctx context.Context, root *spec.Spec) (rep *Report, err error) {
	ctx, span := telemetry.StartSpan(ctx, "install:"+root.Name)
	defer span.End()
	defer func() { span.SetError(err) }()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if !root.IsConcrete() {
		return nil, fmt.Errorf("install: spec %q is not concrete", root.ShortString())
	}
	workers := inst.Workers
	if workers <= 0 {
		workers = 4
	}

	// Gather nodes and dependency edges.
	states := map[string]*nodeState{}
	var order []string // deterministic traversal order
	var gatherErr error
	hs := spec.Hasher{}
	root.Traverse(func(n *spec.Spec) {
		if gatherErr != nil {
			return
		}
		h := hs.Hash(n)
		if _, ok := states[h]; ok {
			return
		}
		st := &nodeState{node: n, explicit: n == root}
		switch {
		case n.External != "":
			st.action = UsedExternal
			st.prefix = n.External
			st.seconds = 0
		case inst.DB.Has(h):
			st.action = AlreadyInstalled
			st.seconds = 0
		default:
			sec, err := inst.BuildSeconds(n, h)
			if err != nil {
				gatherErr = err
				return
			}
			if inst.Cache != nil {
				if _, ok := inst.Cache.Get(h); ok {
					st.action = FetchedFromCache
					st.seconds = fetchCost(sec)
					break
				}
				if inst.ReuseCompatible && inst.compatibleEntry(n) {
					st.action = FetchedFromCache
					st.seconds = fetchCost(sec) * 1.2 // relocation overhead
					break
				}
			}
			st.action = Built
			st.seconds = sec
		}
		for _, d := range n.Deps {
			st.deps = append(st.deps, hs.Hash(d))
		}
		sort.Strings(st.deps)
		states[h] = st
		order = append(order, h)
	})
	if gatherErr != nil {
		return nil, gatherErr
	}
	sort.Strings(order)

	// Deterministic makespan: list scheduling with `workers` slots.
	makespan, starts, err := listSchedule(order, states, workers)
	if err != nil {
		return nil, err
	}

	// Real parallel execution of the install actions (DB/cache side
	// effects) with a bounded worker pool.
	if err := inst.executeParallel(ctx, order, states, workers); err != nil {
		return nil, err
	}

	report := &Report{Makespan: makespan}
	for _, h := range order {
		st := states[h]
		report.TotalWork += st.seconds
		report.Results = append(report.Results, BuildResult{
			Name:      st.node.Name,
			Hash:      h,
			Action:    st.action,
			Seconds:   st.seconds,
			StartedAt: starts[h],
		})
	}
	sort.Slice(report.Results, func(i, j int) bool {
		a, b := report.Results[i], report.Results[j]
		if a.StartedAt != b.StartedAt {
			return a.StartedAt < b.StartedAt
		}
		return a.Name < b.Name
	})

	// Cache effectiveness: a fetch is a hit, a source build with a
	// configured cache is a miss (no cache at all counts neither).
	if inst.Cache != nil {
		met := telemetry.FromContext(ctx).Metrics()
		met.Counter("install_cache_hits_total").Add(int64(report.Count(FetchedFromCache)))
		met.Counter("install_cache_misses_total").Add(int64(report.Count(Built)))
	}
	span.SetInt("nodes", len(report.Results))
	span.SetAttr("makespan_s", fmt.Sprintf("%.2f", report.Makespan))
	return report, nil
}

// compatibleEntry reports whether the cache holds a binary of the
// same package/version built for a microarchitecture the node's
// target can execute (ancestor + feature check via archspec).
func (inst *Installer) compatibleEntry(node *spec.Spec) bool {
	mine, err := archspec.Lookup(node.Target)
	if err != nil {
		return false
	}
	ok := func(builtFor string) bool {
		bm, err := archspec.Lookup(builtFor)
		if err != nil {
			return false
		}
		return mine.CompatibleWith(bm)
	}
	entries := inst.Cache.FindCompatible(node.Name, node.ConcreteVersion().String(), ok)
	return len(entries) > 0
}

// listSchedule computes a deterministic parallel schedule of the DAG
// and returns the makespan and per-node start times.
func listSchedule(order []string, states map[string]*nodeState, workers int) (float64, map[string]float64, error) {
	type ev struct {
		time float64
		hash string
	}
	remaining := map[string]int{}
	dependents := map[string][]string{}
	for _, h := range order {
		st := states[h]
		remaining[h] = len(st.deps)
		for _, d := range st.deps {
			dependents[d] = append(dependents[d], h)
		}
	}
	var ready []string
	for _, h := range order {
		if remaining[h] == 0 {
			ready = append(ready, h)
		}
	}
	sort.Strings(ready)

	starts := map[string]float64{}
	var running []ev
	clock := 0.0
	done := 0
	for done < len(order) {
		for len(ready) > 0 && len(running) < workers {
			h := ready[0]
			ready = ready[1:]
			starts[h] = clock
			running = append(running, ev{time: clock + states[h].seconds, hash: h})
		}
		if len(running) == 0 {
			return 0, nil, fmt.Errorf("install: dependency cycle detected in schedule")
		}
		// Pop the earliest finishing job (ties by hash for determinism).
		sort.Slice(running, func(i, j int) bool {
			if running[i].time != running[j].time {
				return running[i].time < running[j].time
			}
			return running[i].hash < running[j].hash
		})
		fin := running[0]
		running = running[1:]
		clock = fin.time
		done++
		for _, dep := range dependents[fin.hash] {
			remaining[dep]--
			if remaining[dep] == 0 {
				ready = append(ready, dep)
			}
		}
		sort.Strings(ready)
	}
	return clock, starts, nil
}

// executeParallel runs the side effects (database inserts, cache
// pushes) with a real goroutine pool, honoring DAG order. On
// cancellation the remaining nodes are skipped (the ready/done
// bookkeeping still runs so the pool winds down cleanly) and the
// context's error is returned.
func (inst *Installer) executeParallel(ctx context.Context, order []string, states map[string]*nodeState, workers int) error {
	remaining := map[string]int{}
	dependents := map[string][]string{}
	for _, h := range order {
		st := states[h]
		remaining[h] = len(st.deps)
		for _, d := range st.deps {
			dependents[d] = append(dependents[d], h)
		}
	}

	readyCh := make(chan string, len(order))
	doneCh := make(chan string, len(order))
	errCh := make(chan error, len(order))
	for _, h := range order {
		if remaining[h] == 0 {
			readyCh <- h
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for h := range readyCh {
				if ctx.Err() == nil {
					st := states[h]
					if err := inst.installOne(h, st.node, st.action, st.prefix, st.explicit); err != nil {
						errCh <- err
					}
				}
				doneCh <- h
			}
		}()
	}

	var firstErr error
	completed := 0
	for completed < len(order) {
		select {
		case err := <-errCh:
			if firstErr == nil {
				firstErr = err
			}
		case h := <-doneCh:
			completed++
			for _, dep := range dependents[h] {
				remaining[dep]--
				if remaining[dep] == 0 {
					readyCh <- dep
				}
			}
		}
	}
	close(readyCh)
	wg.Wait()
	select {
	case err := <-errCh:
		if firstErr == nil {
			firstErr = err
		}
	default:
	}
	if firstErr == nil {
		firstErr = ctx.Err()
	}
	return firstErr
}

// installOne performs the side effects for a single node.
func (inst *Installer) installOne(hash string, node *spec.Spec, action Action, prefix string, explicit bool) error {
	if prefix == "" {
		prefix = "/opt/benchpark/" + node.Name + "-" + node.ConcreteVersion().String() + "-" + hash[:7]
	}
	// Archspec supplies the target-tuning flags the build recipe uses
	// (Section 3.1.3); externals were built elsewhere.
	flags := ""
	if action != UsedExternal && node.Compiler != nil && node.Target != "" {
		if m, err := archspec.Lookup(node.Target); err == nil {
			if cv, ok := node.Compiler.Versions.Concrete(); ok {
				if f, err := m.OptimizationFlags(node.Compiler.Name, cv.String()); err == nil {
					flags = f
				}
			}
		}
	}
	inst.DB.Add(Record{
		Hash:     hash,
		Spec:     node,
		Prefix:   prefix,
		External: action == UsedExternal,
		Explicit: explicit,
		Flags:    flags,
	})
	if inst.PushToCache && inst.Cache != nil && action == Built {
		inst.Cache.Put(buildcache.Entry{
			Hash:     hash,
			SpecText: node.String(),
			Size:     int64(1<<20) + int64(hash[0])*1024,
			Package:  node.Name,
			Version:  node.ConcreteVersion().String(),
			Target:   node.Target,
		})
	}
	return nil
}

// ---------------------------------------------------------------------------
// Database persistence (the .spack-db of a real installation)
// ---------------------------------------------------------------------------

// dbFile is the JSON schema of a persisted database.
type dbFile struct {
	Nodes   map[string]spec.EncodedNode `json:"nodes"`
	Records []dbRecord                  `json:"records"`
}

type dbRecord struct {
	Hash     string `json:"hash"`
	Prefix   string `json:"prefix"`
	External bool   `json:"external,omitempty"`
	Explicit bool   `json:"explicit,omitempty"`
	Flags    string `json:"flags,omitempty"`
}

// SaveJSON serializes the database, DAG-encoded so a later LoadJSON
// can reconstruct every spec with hash verification.
func (db *Database) SaveJSON() (string, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var roots []*spec.Spec
	hashes := make([]string, 0, len(db.records))
	for h := range db.records {
		hashes = append(hashes, h)
	}
	sort.Strings(hashes)
	for _, h := range hashes {
		roots = append(roots, db.records[h].Spec)
	}
	nodes, _ := spec.EncodeDAG(roots)
	out := dbFile{Nodes: nodes}
	for _, h := range hashes {
		r := db.records[h]
		out.Records = append(out.Records, dbRecord{
			Hash: r.Hash, Prefix: r.Prefix, External: r.External,
			Explicit: r.Explicit, Flags: r.Flags,
		})
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// LoadDatabaseJSON reconstructs a database from SaveJSON output,
// verifying every spec hash.
func LoadDatabaseJSON(src string) (*Database, error) {
	var in dbFile
	if err := json.Unmarshal([]byte(src), &in); err != nil {
		return nil, fmt.Errorf("install: bad database file: %w", err)
	}
	db := NewDatabase()
	for _, rec := range in.Records {
		specs, err := spec.DecodeDAG(in.Nodes, []string{rec.Hash})
		if err != nil {
			return nil, fmt.Errorf("install: record %s: %w", rec.Hash, err)
		}
		db.Add(Record{
			Hash:     rec.Hash,
			Spec:     specs[0],
			Prefix:   rec.Prefix,
			External: rec.External,
			Explicit: rec.Explicit,
			Flags:    rec.Flags,
		})
	}
	return db, nil
}
