// Package buildcache is the community binary cache of the Benchpark
// deployment (DESIGN.md §2, Section 7.2's "rolling binary cache"
// fronted by Amazon CloudFront / S3): a content-addressed store of
// built binaries keyed by the concrete spec's DAG hash.
//
// The cache is safe for concurrent use — in a continuous-benchmarking
// deployment many site installers push and fetch at once. It keeps no
// statistics: an installer's report says which nodes it fetched and
// which it built.
//
// Over a durable layer (Persist) it reads through by exact hash: a
// lookup costs one entry file, whatever the layer holds, and finds
// what a sibling process put since this one attached. The layer is
// never listed.
package buildcache

import (
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/cachekey"
	"repro/internal/metricsdb"
)

// Entry is one cached binary: the content address (spec DAG hash)
// and the spec text it was built from.
type Entry struct {
	Hash     string
	SpecText string
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

	decMu sync.Mutex
	dec   metricsdb.Decoder // reads layer entries, under decMu
}

// New returns an empty cache.
func New() *Cache {
	return &Cache{entries: map[string]Entry{}}
}

// entryKey maps a spec DAG hash to its durable store key:
// cachekey.Hash(hash).Derive("buildcache"), with the hash's JSON
// string, which is what json.Marshal gives for it, appended by hand.
func entryKey(hash string) cachekey.Key {
	return cachekey.HashJSON(metricsdb.AppendString(make([]byte, 0, len(hash)+2), hash)).Derive("buildcache")
}

// Persist attaches a durable cache layer and performs no IO: entries
// already on disk are read when asked for and every future Put writes
// through.
func (c *Cache) Persist(l *cachekey.Layer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.layer = l
}

// readEntry fetches and checks the entry for hash from the layer: the
// frame digest holds, the payload decodes, and the entry is filed
// under its own hash. Anything else is a cold miss, never a wrong hit.
func (c *Cache) readEntry(l *cachekey.Layer, hash string) (Entry, bool) {
	var e Entry
	ok := l.Read(entryKey(hash), func(data []byte) bool {
		c.decMu.Lock()
		defer c.decMu.Unlock()
		return decodeEntry(&c.dec, data, &e) == nil && e.Hash != "" && e.Hash == hash
	})
	if !ok {
		return Entry{}, false
	}
	return e, true
}

// decodeEntry reads a layer entry — json.Marshal of an Entry — into *e
// with d: the Entry encoding/json gives for the same bytes, except
// that a member name no writer of an entry ever emitted is refused
// (encoding/json would match it case-folded or skip it), which is only
// a miss. The members older writers added are skipped, as
// encoding/json skips them. Every string is a copy: data is the
// layer's, borrowed.
func decodeEntry(d *metricsdb.Decoder, data []byte, e *Entry) error {
	return d.Document(data, func(name []byte) {
		switch string(name) {
		case "Hash":
			d.String(&e.Hash)
		case "SpecText":
			d.String(&e.SpecText)
		case "Size", "Package", "Version", "Target": // what older entries also carry
			d.Skip()
		default:
			d.Fail(fmt.Errorf("buildcache: unknown member %q in an entry", name))
		}
	})
}

// Get finds the entry for hash in memory, then in the durable layer
// (IO outside the lock). A layer hit is remembered; a miss is not, so
// an entry a sibling process puts later is seen.
func (c *Cache) Get(hash string) (Entry, bool) {
	c.mu.RLock()
	e, ok := c.entries[hash]
	layer := c.layer
	c.mu.RUnlock()
	if ok || layer == nil {
		return e, ok
	}
	if e, ok = c.readEntry(layer, hash); ok {
		c.mu.Lock()
		c.entries[hash] = e
		c.mu.Unlock()
	}
	return e, ok
}

// Put stores an entry under its hash. Content addressing makes the
// operation idempotent: re-pushing the same hash overwrites in place
// rather than duplicating. With a durable layer attached the entry is
// also written through to disk; a disk failure keeps the in-memory
// entry (the cache degrades to this process, it never errors a build).
func (c *Cache) Put(e Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries[e.Hash] = e
	if c.layer != nil {
		if data, err := json.Marshal(e); err == nil {
			c.layer.Put(entryKey(e.Hash), data) //nolint:errcheck // cache write failure must not fail the build
		}
	}
}
