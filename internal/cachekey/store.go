package cachekey

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Store is the durable on-disk content-addressed store behind the
// incremental pipeline. Entries live under <dir>/<layer>/<kk>/<key>
// (kk = the key's first two hex chars, so directories stay shallow)
// and are framed with a length + sha256 header.
//
// Durability contract:
//
//   - Writes are atomic: an entry is written to a temp file, fsynced,
//     and renamed into place, so readers never observe a torn entry.
//   - Corruption degrades to a cold miss, never a wrong hit: a
//     truncated, bit-flipped, or foreign file fails the frame check
//     and Get reports a miss (the pipeline then recomputes and
//     overwrites it).
//   - Concurrent same-key writers are safe: each writes its own temp
//     file and the rename is atomic, so a reader sees one complete
//     entry or none.
//
// The Store is safe for concurrent use by multiple goroutines; many
// processes may share a directory (CI pipelines reusing one cache
// across jobs).
type Store struct {
	dir string
}

// Open creates (if needed) and opens a store rooted at dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("cachekey: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cachekey: opening store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Layer returns the named cache layer ("concretize", "buildcache",
// "run", ...). A Layer holds no state of its own: every handle on one
// name reads and writes the same entries on disk.
func (s *Store) Layer(name string) *Layer {
	return &Layer{store: s, name: name}
}

// Layer is one named partition of a Store. It implements the Get/Put
// contract the engine's run cache and the other pipeline layers
// consume.
type Layer struct {
	store *Store
	name  string
}

// Name returns the layer's name.
func (l *Layer) Name() string { return l.name }

// entry framing: magic, format version, payload length, payload
// sha256, payload. Any mismatch — wrong magic, short file, bad
// length, bad digest — is a cold miss.
var entryMagic = [4]byte{'b', 'p', 'c', 'k'}

const (
	entryVersion    = 1
	entryHeaderSize = 4 + 1 + 8 + sha256.Size
)

// frame prefixes data with the entry header.
func frame(data []byte) []byte {
	out := make([]byte, entryHeaderSize+len(data))
	copy(out, entryMagic[:])
	out[4] = entryVersion
	binary.BigEndian.PutUint64(out[5:13], uint64(len(data)))
	sum := sha256.Sum256(data)
	copy(out[13:13+sha256.Size], sum[:])
	copy(out[entryHeaderSize:], data)
	return out
}

// unframe verifies the header and returns the payload, or false for
// any corruption.
func unframe(raw []byte) ([]byte, bool) {
	if len(raw) < entryHeaderSize {
		return nil, false
	}
	if !bytes.Equal(raw[:4], entryMagic[:]) || raw[4] != entryVersion {
		return nil, false
	}
	n := binary.BigEndian.Uint64(raw[5:13])
	if n != uint64(len(raw)-entryHeaderSize) {
		return nil, false
	}
	payload := raw[entryHeaderSize:]
	sum := sha256.Sum256(payload)
	if !bytes.Equal(raw[13:13+sha256.Size], sum[:]) {
		return nil, false
	}
	return payload, true
}

// path maps a key to its entry file.
func (l *Layer) path(key Key) string {
	return filepath.Join(l.store.dir, l.name, string(key[:2]), string(key))
}

// Get fetches the payload stored under key. An invalid key, a missing
// entry, or a corrupt entry all report a miss.
func (l *Layer) Get(key Key) ([]byte, bool) {
	if !key.Valid() {
		return nil, false
	}
	raw, err := os.ReadFile(l.path(key))
	if err != nil {
		return nil, false
	}
	return unframe(raw)
}

// Put stores payload under key, atomically (write temp, fsync,
// rename). Re-putting a key overwrites in place — content addressing
// makes that idempotent.
func (l *Layer) Put(key Key, data []byte) error {
	if !key.Valid() {
		return fmt.Errorf("cachekey: refusing to store under invalid key %q", key)
	}
	path := l.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("cachekey: put %s: %w", key.Short(), err)
	}
	if err := l.store.Commit(path, frame(data)); err != nil {
		return fmt.Errorf("cachekey: put %s: %w", key.Short(), err)
	}
	return nil
}

// Keys lists the layer's persisted entry keys, sorted. Files that do
// not look like keys (temp files, strays) are skipped; entries are
// not verified — Get still applies the corruption check.
func (l *Layer) Keys() []Key {
	var out []Key
	root := filepath.Join(l.store.dir, l.name)
	buckets, err := os.ReadDir(root)
	if err != nil {
		return nil
	}
	for _, b := range buckets {
		if !b.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(root, b.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			k := Key(f.Name())
			if k.Valid() && string(k[:2]) == b.Name() {
				out = append(out, k)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Commit durably publishes one entry file: the frame is written to a
// private temp file, fsynced, and atomically renamed over path. The
// fsync-before-rename order is what makes a crash leave either the
// old entry or the complete new one — never a torn frame under the
// final name.
func (s *Store) Commit(path string, framed []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), ".tmp-entry-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(framed); err != nil {
		f.Close()      //nolint:errcheck
		os.Remove(tmp) //nolint:errcheck
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()      //nolint:errcheck
		os.Remove(tmp) //nolint:errcheck
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp) //nolint:errcheck
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp) //nolint:errcheck
		return err
	}
	return nil
}
