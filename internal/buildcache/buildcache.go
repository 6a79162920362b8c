// Package buildcache is the community binary cache of the Benchpark
// deployment (DESIGN.md §2, Section 7.2's "rolling binary cache"
// fronted by Amazon CloudFront / S3): a content-addressed store of
// built binaries keyed by the concrete spec's DAG hash.
//
// The cache is safe for concurrent use — in a continuous-benchmarking
// deployment many site installers push and fetch at once — and keeps
// hit/miss/put statistics for the cache-ablation experiments.
//
// Over a durable layer (Persist) it reads through: a lookup costs one
// entry file, whatever the layer holds, and finds what a sibling
// process put since this one attached; only FindCompatible, Len,
// Hashes and TotalSize load the whole set.
package buildcache

import (
	"encoding/json"
	"sort"
	"sync"

	"repro/internal/cachekey"
	"repro/internal/telemetry"
)

// Entry is one cached binary: the content address (spec DAG hash),
// the spec text it was built from, its size in bytes, and the
// package/version/target triple used for compatible-binary reuse
// (relocatable binaries gated by archspec compatibility).
type Entry struct {
	Hash     string
	SpecText string
	Size     int64
	Package  string
	Version  string
	Target   string
}

// Cache is an S3-like binary cache, content-addressed by spec hash.
// By default it is in-memory only; Persist attaches a durable
// cachekey.Layer so entries survive the process and are shared across
// CI jobs.
type Cache struct {
	mu      sync.RWMutex
	entries map[string]Entry

	// layer, when set, durably mirrors every entry (write-through)
	// and answers what entries does not hold (read-through).
	layer *cachekey.Layer
	// listed records that the layer's whole set is in entries.
	listed bool

	hits, misses, puts int

	// Telemetry mirrors of the statistics; the zero-value handles
	// (uninstrumented cache) drop observations.
	hitCtr, missCtr, putCtr telemetry.Counter
}

// New returns an empty cache.
func New() *Cache {
	return &Cache{entries: map[string]Entry{}}
}

// Instrument mirrors the cache's hit/miss/put statistics into the
// registry as buildcache_hits_total / buildcache_misses_total /
// buildcache_puts_total counters. A nil registry leaves the cache
// uninstrumented.
//
// Counts accumulated before Instrument — including hits on entries
// another instance wrote to the shared durable layer — are backfilled
// into the counters, so Stats() and the telemetry mirrors agree no
// matter when instrumentation is attached.
func (c *Cache) Instrument(reg *telemetry.Registry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hitCtr = reg.Counter("buildcache_hits_total")
	c.missCtr = reg.Counter("buildcache_misses_total")
	c.putCtr = reg.Counter("buildcache_puts_total")
	c.hitCtr.Add(int64(c.hits))
	c.missCtr.Add(int64(c.misses))
	c.putCtr.Add(int64(c.puts))
}

// entryKey maps a spec DAG hash to its durable store key.
func entryKey(hash string) cachekey.Key {
	return cachekey.Hash(hash).Derive("buildcache")
}

// Persist attaches a durable cache layer and performs no IO: entries
// already on disk are read when asked for and every future Put writes
// through. Reading an entry is not a put; only this process's own
// traffic moves the statistics.
func (c *Cache) Persist(l *cachekey.Layer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.layer = l
	c.listed = false
}

// readEntry fetches and checks the entry stored under k: the frame
// digest holds, the payload decodes, and the entry is filed under its
// own hash's key. Anything else is a cold miss, never a wrong hit.
func readEntry(l *cachekey.Layer, k cachekey.Key) (Entry, bool) {
	data, ok := l.Get(k)
	if !ok {
		return Entry{}, false
	}
	var e Entry
	if err := json.Unmarshal(data, &e); err != nil || e.Hash == "" || entryKey(e.Hash) != k {
		return Entry{}, false
	}
	return e, true
}

// lookup finds hash in memory, then in the durable layer (IO outside
// the lock). A layer hit is remembered; a miss is not, so an entry a
// sibling process puts later is seen.
func (c *Cache) lookup(hash string) (Entry, bool) {
	c.mu.RLock()
	e, ok := c.entries[hash]
	layer := c.layer
	c.mu.RUnlock()
	if ok || layer == nil {
		return e, ok
	}
	if e, ok = readEntry(layer, entryKey(hash)); ok {
		c.mu.Lock()
		c.entries[hash] = e
		c.mu.Unlock()
	}
	return e, ok
}

// loadAll makes entries hold the durable layer's whole set, for the
// questions no exact key answers. The first call after Persist lists
// and reads the layer (IO outside the lock); entries a sibling adds
// after that are reached by exact hash only.
func (c *Cache) loadAll() {
	c.mu.RLock()
	layer, listed := c.layer, c.listed
	c.mu.RUnlock()
	if layer == nil || listed {
		return
	}
	var found []Entry
	for _, k := range layer.Keys() {
		if e, ok := readEntry(layer, k); ok {
			found = append(found, e)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.layer != layer {
		return
	}
	for _, e := range found {
		if _, have := c.entries[e.Hash]; !have {
			c.entries[e.Hash] = e
		}
	}
	c.listed = true
}

// Put stores an entry under its hash. Content addressing makes the
// operation idempotent: re-pushing the same hash overwrites in place
// rather than duplicating. With a durable layer attached the entry is
// also written through to disk; a disk failure keeps the in-memory
// entry (the cache degrades to this process, it never errors a build).
func (c *Cache) Put(e Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.puts++
	c.putCtr.Inc()
	c.entries[e.Hash] = e
	if c.layer != nil {
		if data, err := json.Marshal(e); err == nil {
			c.layer.Put(entryKey(e.Hash), data) //nolint:errcheck // cache write failure must not fail the build
		}
	}
}

// Get fetches the entry for a hash, recording a hit or a miss.
func (c *Cache) Get(hash string) (Entry, bool) {
	e, ok := c.lookup(hash)
	c.mu.Lock()
	defer c.mu.Unlock()
	if ok {
		c.hits++
		c.hitCtr.Inc()
	} else {
		c.misses++
		c.missCtr.Inc()
	}
	return e, ok
}

// Has reports whether a hash is cached without touching the
// hit/miss statistics.
func (c *Cache) Has(hash string) bool {
	_, ok := c.lookup(hash)
	return ok
}

// Len reports the number of cached binaries.
func (c *Cache) Len() int {
	c.loadAll()
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

// TotalSize reports the cumulative size of all cached binaries.
func (c *Cache) TotalSize() int64 {
	c.loadAll()
	c.mu.RLock()
	defer c.mu.RUnlock()
	var total int64
	for _, e := range c.entries {
		total += e.Size
	}
	return total
}

// Hashes returns the cached hashes, sorted.
func (c *Cache) Hashes() []string {
	c.loadAll()
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.entries))
	for h := range c.entries {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}

// Stats returns the lifetime hit/miss/put counters.
func (c *Cache) Stats() (hits, misses, puts int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.hits, c.misses, c.puts
}

// FindCompatible returns the cached entries of the given package and
// version whose build target satisfies pred (the caller supplies the
// archspec compatibility check), sorted by hash for determinism.
// An exact hash hit is not required — this is the fallback lookup
// behind Spack's relocatable-binary reuse.
func (c *Cache) FindCompatible(name, version string, pred func(target string) bool) []Entry {
	c.loadAll()
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []Entry
	for _, e := range c.entries {
		if e.Package != name || e.Version != version {
			continue
		}
		if pred != nil && !pred(e.Target) {
			continue
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Hash < out[j].Hash })
	return out
}
