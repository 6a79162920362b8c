// Package cachekey is the one cache-key abstraction of the
// incremental pipeline (ROADMAP "Incremental pipeline à la exaCB"):
// a canonical content hash over the inputs of a pipeline stage —
// spec, system, variables, toolchain and schema versions — plus a
// durable content-addressed store keyed by it.
//
// Every caching layer derives its keys the same way: Hash canonically
// encodes the stage's inputs (stable JSON: map keys sorted, struct
// fields in declaration order) and folds in the package's
// SchemaVersion and the Go toolchain version, so a schema change or a
// toolchain upgrade invalidates every cache at once instead of
// serving stale entries. Keys compose: Key.Derive(stage, inputs...)
// chains a stage name and upstream keys into a new key, which is how
// a downstream stage (execute) inherits invalidation from its
// upstream (concretize, install) without re-encoding their inputs.
//
// The three pipeline layers share the abstraction:
//
//   - internal/concretizer memoizes concretization results per
//     input-spec key ("concretize" layer),
//   - internal/buildcache persists built binaries through it
//     ("buildcache" layer),
//   - internal/engine replays experiment outcomes from it
//     ("run" layer).
//
// Determinism contract: Hash never reads the clock, the environment,
// or any other ambient state — equal inputs yield equal keys in every
// process, which is what makes a CI push re-run only the delta.
package cachekey

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
)

// SchemaVersion names the cache entry encoding. Bump it whenever a
// layer changes what it stores under a key: old entries become cold
// misses instead of wrong hits.
const SchemaVersion = "benchpark-cache-1"

// Toolchain identifies the Go toolchain that produced the cached
// artifacts. Folded into every key: a compiler upgrade can change
// simulated outcomes, so it must invalidate the cache.
func Toolchain() string { return runtime.Version() }

// Key is a content hash: 64 lowercase hex characters (sha256). The
// zero Key ("") is the invalid key — it never matches a stored entry
// and stores refuse to persist under it, so hashing failures degrade
// to cold misses rather than collisions.
type Key string

// Valid reports whether k has the canonical 64-hex-char form.
func (k Key) Valid() bool {
	if len(k) != 64 {
		return false
	}
	for i := 0; i < len(k); i++ {
		c := k[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Short returns the conventional 12-character abbreviation for logs
// and provenance records.
func (k Key) Short() string {
	if len(k) < 12 {
		return string(k)
	}
	return string(k[:12])
}

// Hash canonically encodes v (stable JSON) together with the schema
// and toolchain versions and returns the content key. Values that
// cannot marshal (channels, funcs, cycles) yield the zero Key, which
// never hits.
func Hash(v any) Key {
	data, err := json.Marshal(v)
	if err != nil {
		return ""
	}
	return HashJSON(data)
}

// HashJSON is Hash for a caller that has already encoded its inputs:
// data must be byte for byte what json.Marshal gives for the value,
// or the key differs from the one Hash derives for it.
func HashJSON(data []byte) Key {
	h := sha256.New()
	h.Write([]byte(SchemaVersion)) //nolint:errcheck
	h.Write([]byte{0})             //nolint:errcheck
	h.Write([]byte(Toolchain()))   //nolint:errcheck
	h.Write([]byte{0})             //nolint:errcheck
	h.Write(data)                  //nolint:errcheck
	return Key(hex.EncodeToString(h.Sum(nil)))
}

// Derive composes a new key from k, a stage name, and further input
// keys — the content address of a stage's output given its inputs.
// Deriving from or through an invalid key yields the invalid key, so
// a poisoned upstream never produces a plausible downstream hit.
func (k Key) Derive(stage string, inputs ...Key) Key {
	if !k.Valid() {
		return ""
	}
	h := sha256.New()
	h.Write([]byte(SchemaVersion)) //nolint:errcheck
	h.Write([]byte{0})             //nolint:errcheck
	h.Write([]byte(k))             //nolint:errcheck
	h.Write([]byte{0})             //nolint:errcheck
	h.Write([]byte(stage))         //nolint:errcheck
	for _, in := range inputs {
		if !in.Valid() {
			return ""
		}
		h.Write([]byte{0})  //nolint:errcheck
		h.Write([]byte(in)) //nolint:errcheck
	}
	return Key(hex.EncodeToString(h.Sum(nil)))
}
