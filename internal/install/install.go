// Package install is the installation engine (Spack component 4 in
// Section 3.1 of the Benchpark paper): it installs a concrete spec
// DAG in dependency order, consulting a binary cache before building
// from source, and records every installation in a thread-safe
// database.
//
// Builds are simulated: each package's recipe declares a build cost,
// perturbed deterministically by the spec hash, so install reports
// and the cache-ablation benchmark are reproducible. One
// list-scheduling pass over the DAG with four simulated build slots
// yields the makespan and a dispatch order; the side effects (database
// records, cache pushes) are then applied in that order on the calling
// goroutine.
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

// Installer installs concrete spec DAGs. With a binary cache
// attached it fetches what the cache holds and pushes every source
// build, the way Spack CI populates the rolling binary cache.
type Installer struct {
	Repo  *pkgrepo.Repo
	DB    *Database
	Cache *buildcache.Cache // optional; nil disables the binary cache

	workers int // simulated build slots; <=0 means 4
}

// New returns an installer with a fresh database and four simulated
// build slots.
func New(repo *pkgrepo.Repo) *Installer {
	return &Installer{Repo: repo, DB: NewDatabase(), workers: 4}
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

// Install installs the DAG rooted at root, recording the root as
// explicitly installed. It is an error if root is not concrete. The
// context is checked before scheduling and before each node's side
// effects, so a cancelled experiment engine does not keep installing a
// deep DAG; already completed node installs stay in the database. When
// the context carries a tracer, the install records a span; its cache
// outcome is the report's FetchedFromCache and Built counts.
//
// hs is the table of root's DAG hashes the caller keeps — an
// environment's, which its concretization already filled (see
// spec.Hasher) — so a warm install hashes nothing; it gains whatever
// node it lacked. A nil hs hashes with a table of this call's own.
func (inst *Installer) Install(ctx context.Context, root *spec.Spec, hs spec.Hasher) (rep *Report, err error) {
	ctx, span := telemetry.StartSpan(ctx, "install:"+root.Name)
	defer span.End()
	defer func() { span.SetError(err) }()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if !root.IsConcrete() {
		return nil, fmt.Errorf("install: spec %q is not concrete", root.ShortString())
	}
	workers := inst.workers
	if workers <= 0 {
		workers = 4
	}

	// Gather nodes and dependency edges.
	states := map[string]*nodeState{}
	var order []string // deterministic traversal order
	var gatherErr error
	if hs == nil {
		hs = spec.Hasher{}
	}
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
	makespan, starts, dispatch, err := listSchedule(order, states, workers)
	if err != nil {
		return nil, err
	}
	// The dispatch order is topological, so every node's dependencies
	// are recorded before it is.
	for _, h := range dispatch {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		inst.installOne(h, states[h])
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
	span.SetInt("nodes", len(report.Results))
	span.SetAttr("makespan_s", fmt.Sprintf("%.2f", report.Makespan))
	return report, nil
}

// listSchedule computes a deterministic parallel schedule of the DAG
// and returns the makespan, per-node start times and the order nodes
// were dispatched in.
func listSchedule(order []string, states map[string]*nodeState, workers int) (float64, map[string]float64, []string, error) {
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
	dispatch := make([]string, 0, len(order))
	var running []ev
	clock := 0.0
	done := 0
	for done < len(order) {
		for len(ready) > 0 && len(running) < workers {
			h := ready[0]
			ready = ready[1:]
			starts[h] = clock
			dispatch = append(dispatch, h)
			running = append(running, ev{time: clock + states[h].seconds, hash: h})
		}
		if len(running) == 0 {
			return 0, nil, nil, fmt.Errorf("install: dependency cycle detected in schedule")
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
	return clock, starts, dispatch, nil
}

// installOne performs the side effects for a single node.
func (inst *Installer) installOne(hash string, st *nodeState) {
	node, action, prefix := st.node, st.action, st.prefix
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
		Explicit: st.explicit,
		Flags:    flags,
	})
	if inst.Cache != nil && action == Built {
		inst.Cache.Put(buildcache.Entry{Hash: hash, SpecText: node.String()})
	}
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

// SaveJSON serializes the database: the records beside their specs'
// spec.DAG node table (the records' hashes are its roots), so
// LoadDatabaseJSON rebuilds every spec with hash verification.
func (db *Database) SaveJSON() (string, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	hashes := make([]string, 0, len(db.records))
	for h := range db.records {
		hashes = append(hashes, h)
	}
	sort.Strings(hashes)
	roots := make([]*spec.Spec, len(hashes))
	for i, h := range hashes {
		roots[i] = db.records[h].Spec
	}
	out := dbFile{Nodes: spec.EncodeDAG(roots, spec.Hasher{}).Nodes}
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
// verifying every spec hash. All records decode as one DAG, so a node
// several specs depend on is one spec, as in the database that saved
// them.
func LoadDatabaseJSON(src string) (*Database, error) {
	var in dbFile
	if err := json.Unmarshal([]byte(src), &in); err != nil {
		return nil, fmt.Errorf("install: bad database file: %w", err)
	}
	dag := spec.DAG{Nodes: in.Nodes, Roots: make([]string, len(in.Records))}
	for i, rec := range in.Records {
		dag.Roots[i] = rec.Hash
	}
	specs, err := dag.Decode(spec.Hasher{})
	if err != nil {
		return nil, fmt.Errorf("install: bad database file: %w", err)
	}
	db := NewDatabase()
	for i, rec := range in.Records {
		db.Add(Record{
			Hash:     rec.Hash,
			Spec:     specs[i],
			Prefix:   rec.Prefix,
			External: rec.External,
			Explicit: rec.Explicit,
			Flags:    rec.Flags,
		})
	}
	return db, nil
}
