package cachekey

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"path/filepath"
	"sync"

	"repro/internal/fsys"
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
//     and Read reports a miss (the pipeline then recomputes and
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
	if err := fsys.OS.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("cachekey: opening store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Layer returns the named cache layer ("concretize", "buildcache",
// "run", ...). A Layer holds no state of its own: every handle on one
// name reads and writes the same entries on disk.
func (s *Store) Layer(name string) *Layer {
	return &Layer{dir: filepath.Join(s.dir, name)}
}

// Layer is one named partition of a Store. It implements the Read/Put
// contract the engine's run cache and the other pipeline layers
// consume.
//
// Read lends its payload: the bytes live in a buffer the layer takes
// from a pool for that one read and hands back when the callback
// returns, so they are the callback's to read and never to keep. A
// consumer copies what it keeps — every decoder of the three layers
// does, string by string — and a warm session reads each entry once
// into room an earlier read already grew.
type Layer struct {
	dir string // <store>/<name>
}

// readBufs holds the buffers Read fills, one per read in flight. The
// pool keeps nothing across two garbage collections, so a warm
// session's read room is no live heap once it is idle.
var readBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledRead is the largest buffer Read hands back to the pool: an
// entry larger than any the pipeline writes is read once and left to
// the GC rather than pinned for every later read.
const maxPooledRead = 1 << 20

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

// path maps a valid key to its entry file: what filepath.Join gives for
// the layer directory, the key's first two characters and the key,
// which are clean already.
func (l *Layer) path(key Key) string {
	return l.dir + string(filepath.Separator) + string(key[:2]) + string(filepath.Separator) + string(key)
}

// Read hands the payload stored under key to use and reports whether
// there was one and use took it. An invalid key, a missing entry or a
// corrupt one is a miss, and use is not called; use returns false for
// a payload it refuses, which is a miss too. The payload is borrowed:
// it is valid only until use returns (see Layer).
func (l *Layer) Read(key Key, use func(payload []byte) bool) bool {
	if !key.Valid() {
		return false
	}
	buf := readBufs.Get().(*[]byte)
	defer func() {
		if cap(*buf) <= maxPooledRead {
			readBufs.Put(buf)
		}
	}()
	raw, err := fsys.OS.ReadInto(l.path(key), *buf)
	*buf = raw // keep the room the read grew
	if err != nil {
		return false
	}
	payload, ok := unframe(raw)
	return ok && use(payload)
}

// Put stores payload under key, atomically (write temp, fsync,
// rename). Re-putting a key overwrites in place — content addressing
// makes that idempotent.
func (l *Layer) Put(key Key, data []byte) error {
	if !key.Valid() {
		return fmt.Errorf("cachekey: refusing to store under invalid key %q", key)
	}
	path := l.path(key)
	if err := fsys.OS.MkdirAll(filepath.Dir(path)); err != nil {
		return fmt.Errorf("cachekey: put %s: %w", key.Short(), err)
	}
	// No directory fsync: an entry whose rename a crash undoes is a cold
	// miss, and the pipeline recomputes it.
	if _, err := fsys.Commit(fsys.OS, path, bytes.NewReader(frame(data))); err != nil {
		return fmt.Errorf("cachekey: put %s: %w", key.Short(), err)
	}
	return nil
}
