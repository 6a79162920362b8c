// Trace-context propagation: the W3C-style `traceparent` carrier that
// lets a trace cross process boundaries. A CI runner's push to the
// results federation service is one logical operation spanning two
// processes — the runner's session/engine spans, the client's rpc
// span, the server's http span, and the store's WAL commit — and the
// only way to reassemble it is for the HTTP request to carry the
// caller's trace identity.
//
// The format is the W3C Trace Context `traceparent` header:
//
//	00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>
//
// Identity stays deterministic under the injected Clock discipline:
// a tracer's trace ID is derived from its epoch (so a FixedClock
// tracer always gets the same trace ID), and a span's wire-level
// parent ID is derived from its structural span ID — no randomness
// anywhere, which is how the cross-process merged-trace tests stay
// byte-identical across runs.
package telemetry

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"time"
)

// TraceparentHeader is the carrier key, per the W3C Trace Context
// spec.
const TraceparentHeader = "traceparent"

// TraceContext is a parsed traceparent: the trace the caller belongs
// to and the wire-level ID of the span that made the call.
type TraceContext struct {
	// TraceID is 32 lowercase hex characters, never all-zero.
	TraceID string
	// ParentID is 16 lowercase hex characters, never all-zero.
	ParentID string
}

// Valid reports whether both fields have the wire shape the spec
// requires.
func (tc TraceContext) Valid() bool {
	return isLowerHex(tc.TraceID, 32) && !allZero(tc.TraceID) &&
		isLowerHex(tc.ParentID, 16) && !allZero(tc.ParentID)
}

// Traceparent renders the header value ("" for an invalid context).
func (tc TraceContext) Traceparent() string {
	if !tc.Valid() {
		return ""
	}
	return "00-" + tc.TraceID + "-" + tc.ParentID + "-01"
}

// ParseTraceparent parses a traceparent header value. It accepts any
// known version except the reserved ff, and rejects malformed or
// all-zero IDs.
func ParseTraceparent(s string) (TraceContext, bool) {
	parts := strings.Split(strings.TrimSpace(s), "-")
	if len(parts) < 4 {
		return TraceContext{}, false
	}
	version, traceID, parentID, flags := parts[0], parts[1], parts[2], parts[3]
	if !isLowerHex(version, 2) || version == "ff" || !isLowerHex(flags, 2) {
		return TraceContext{}, false
	}
	tc := TraceContext{TraceID: traceID, ParentID: parentID}
	if !tc.Valid() {
		return TraceContext{}, false
	}
	return tc, true
}

func isLowerHex(s string, n int) bool {
	if len(s) != n {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func allZero(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}

// deriveTraceID computes a tracer's trace ID from its epoch. Under a
// FixedClock the epoch is fixed, so the trace ID is a deterministic
// function of the injected time — the property the byte-identical
// merged-trace tests rest on. Under the wall clock each process run
// gets a practically unique ID.
func deriveTraceID(epoch time.Time) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("benchpark-traceid:%d", epoch.UnixNano())))
	return hex.EncodeToString(sum[:16])
}

// SpanContextID derives the 16-hex wire-level span ID a span
// advertises in traceparent from its structural ID. Structural IDs
// are deterministic (ancestry paths, not random numbers), so the wire
// ID is too; hashing keeps the header fixed-width and opaque.
func SpanContextID(traceID, spanID string) string {
	sum := sha256.Sum256([]byte(traceID + "\x00" + spanID))
	return hex.EncodeToString(sum[:8])
}

// Carrier is the header-like transport traceparent travels in.
// net/http's Header satisfies it.
type Carrier interface {
	Get(key string) string
}

type remoteKey struct{}

// WithRemote returns a context carrying a remote caller's trace
// context. The next StartSpan on the derived context (with no local
// parent span) joins the caller's trace: it adopts the remote trace
// ID and records the caller's span as its remote parent.
func WithRemote(ctx context.Context, tc TraceContext) context.Context {
	return context.WithValue(ctx, remoteKey{}, tc)
}

// RemoteFromContext returns the remote trace context attached by
// WithRemote, if any.
func RemoteFromContext(ctx context.Context) (TraceContext, bool) {
	tc, ok := ctx.Value(remoteKey{}).(TraceContext)
	return tc, ok
}

// PropagationContext returns the trace context an outbound call from
// ctx should carry: the current span's trace and wire IDs when a span
// is open, else a pass-through of the remote context (so an
// intermediary without its own tracer still forwards provenance).
func PropagationContext(ctx context.Context) (TraceContext, bool) {
	if s := Current(ctx); s != nil && s.traceID != "" {
		return TraceContext{
			TraceID:  s.traceID,
			ParentID: SpanContextID(s.traceID, s.id),
		}, true
	}
	if tc, ok := RemoteFromContext(ctx); ok && tc.Valid() {
		return tc, true
	}
	return TraceContext{}, false
}

// Extract reads the carrier's traceparent. The zero TraceContext and
// false mean the header was absent or malformed.
func Extract(c Carrier) (TraceContext, bool) {
	return ParseTraceparent(c.Get(TraceparentHeader))
}

// TraceIDFrom returns the trace ID governing ctx: the current span's,
// else a remote caller's, else "". This is what a storage layer
// records as provenance — "which run produced this point".
func TraceIDFrom(ctx context.Context) string {
	if s := Current(ctx); s != nil {
		return s.traceID
	}
	if tc, ok := RemoteFromContext(ctx); ok && tc.Valid() {
		return tc.TraceID
	}
	return ""
}

// MergeTraces assembles one cross-process trace from per-process
// snapshots: all spans, sorted by (trace ID, start, span ID) so the
// merge is a pure function of its inputs — two runs that produced
// byte-identical per-process traces produce a byte-identical merge —
// and the sum of their Dropped counts. Spans from different processes
// correlate through their TraceID and RemoteParent fields (see
// SpanContextID). Metrics are per-process state and are not merged.
func MergeTraces(traces ...*Trace) *Trace {
	out := &Trace{Format: TraceFormat, Spans: []SpanRecord{}}
	for _, t := range traces {
		if t == nil {
			continue
		}
		out.Spans = append(out.Spans, t.Spans...)
		out.Dropped += t.Dropped
	}
	sort.Slice(out.Spans, func(i, j int) bool {
		a, b := out.Spans[i], out.Spans[j]
		if a.TraceID != b.TraceID {
			return a.TraceID < b.TraceID
		}
		if a.StartS != b.StartS {
			return a.StartS < b.StartS
		}
		return a.ID < b.ID
	})
	return out
}
