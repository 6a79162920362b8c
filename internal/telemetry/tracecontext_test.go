package telemetry

import (
	"context"
	"net/http"
	"testing"
	"time"
)

func fixed() Clock { return FixedClock{T: time.Unix(1700000000, 0)} }

func TestTraceparentRoundTrip(t *testing.T) {
	tc := TraceContext{
		TraceID:  "0af7651916cd43dd8448eb211c80319c",
		ParentID: "b7ad6b7169203331",
	}
	hdr := tc.Traceparent()
	if hdr != "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01" {
		t.Fatalf("Traceparent = %q", hdr)
	}
	got, ok := ParseTraceparent(hdr)
	if !ok || got != tc {
		t.Fatalf("ParseTraceparent(%q) = %+v, %v", hdr, got, ok)
	}
}

// malformedTraceparents must all be refused; they also seed the fuzzer.
var malformedTraceparents = []string{
	"",
	"00-abc-def-01",
	"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331", // missing flags
	"ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
	"00-00000000000000000000000000000000-b7ad6b7169203331-01",
	"00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01",
	"00-0AF7651916CD43DD8448EB211C80319C-b7ad6b7169203331-01", // uppercase
	"0-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	for _, s := range malformedTraceparents {
		if tc, ok := ParseTraceparent(s); ok {
			t.Errorf("ParseTraceparent(%q) accepted: %+v", s, tc)
		}
	}
}

// FuzzParseTraceparent: the header is whatever a caller sends. Parsing
// it must not panic, and whatever is accepted is a context that is
// Valid and that survives being rendered and parsed again — so an ID
// the server stamps on stored results is one it would accept back.
func FuzzParseTraceparent(f *testing.F) {
	for _, s := range malformedTraceparents {
		f.Add(s)
	}
	f.Add("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	f.Add(" 01-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-00-what-a-later-version-adds\n") // five parts and more
	f.Add("00-00000000000000000000000000000000-0000000000000000-00")                              // all zero
	f.Add("FF-0AF7651916CD43DD8448EB211C80319C-B7AD6B7169203331-01")                              // upper case throughout
	f.Fuzz(func(t *testing.T, header string) {
		tc, ok := ParseTraceparent(header)
		if !ok {
			if tc != (TraceContext{}) {
				t.Fatalf("ParseTraceparent(%q) refused but returned %+v", header, tc)
			}
			return
		}
		if !tc.Valid() {
			t.Fatalf("ParseTraceparent(%q) accepted the invalid %+v", header, tc)
		}
		if back, ok := ParseTraceparent(tc.Traceparent()); !ok || back != tc {
			t.Fatalf("ParseTraceparent(%q) = %+v, which renders as %q and parses back as %+v, %v", header, tc, tc.Traceparent(), back, ok)
		}
	})
}

func TestTraceIDDeterministicUnderFixedClock(t *testing.T) {
	a, b := New(fixed()), New(fixed())
	if a.TraceID() == "" || a.TraceID() != b.TraceID() {
		t.Fatalf("FixedClock tracers disagree on trace ID: %q vs %q", a.TraceID(), b.TraceID())
	}
	c := New(FixedClock{T: time.Unix(1700000001, 0)})
	if c.TraceID() == a.TraceID() {
		t.Fatal("different epochs produced the same trace ID")
	}
	if !isLowerHex(a.TraceID(), 32) {
		t.Fatalf("trace ID %q is not 32 lowercase hex chars", a.TraceID())
	}
}

func TestInjectExtractJoinsRemoteTrace(t *testing.T) {
	// Caller process: a tracer with an open span injects its context.
	caller := New(fixed())
	ctx, span := StartSpan(WithTracer(context.Background(), caller), "push")
	h := http.Header{}
	out, ok := PropagationContext(ctx)
	span.End()
	if !ok {
		t.Fatal("an open span propagated no trace context")
	}
	h.Set(TraceparentHeader, out.Traceparent())

	// Callee process: different epoch, hence a different native trace
	// ID — the request span must adopt the caller's.
	callee := New(FixedClock{T: time.Unix(1800000000, 0)})
	tc, ok := Extract(h)
	if !ok {
		t.Fatalf("Extract failed on %q", h.Get(TraceparentHeader))
	}
	sctx := WithRemote(WithTracer(context.Background(), callee), tc)
	_, srvSpan := StartSpan(sctx, "http:results")
	srvSpan.End()

	rec := callee.Snapshot().Spans[0]
	if rec.TraceID != caller.TraceID() {
		t.Fatalf("server span trace ID %q, want caller's %q", rec.TraceID, caller.TraceID())
	}
	if want := SpanContextID(caller.TraceID(), "push"); rec.RemoteParent != want {
		t.Fatalf("server span remote parent %q, want %q", rec.RemoteParent, want)
	}
	if rec.Parent != "" {
		t.Fatalf("remote-joined span has local parent %q", rec.Parent)
	}
}

func TestChildSpansInheritRemoteTraceID(t *testing.T) {
	callee := New(fixed())
	tc := TraceContext{TraceID: "0af7651916cd43dd8448eb211c80319c", ParentID: "b7ad6b7169203331"}
	ctx := WithRemote(WithTracer(context.Background(), callee), tc)
	ctx, root := StartSpan(ctx, "http:results")
	_, child := StartSpan(ctx, "wal:commit")
	child.End()
	root.End()
	for _, rec := range callee.Snapshot().Spans {
		if rec.TraceID != tc.TraceID {
			t.Fatalf("span %s trace ID %q, want remote %q", rec.ID, rec.TraceID, tc.TraceID)
		}
	}
	if got := TraceIDFrom(ctx); got != tc.TraceID {
		t.Fatalf("TraceIDFrom = %q, want %q", got, tc.TraceID)
	}
}

func TestPropagationContextPassThroughWithoutTracer(t *testing.T) {
	// An intermediary with no tracer of its own still forwards the
	// remote context on outbound calls.
	tc := TraceContext{TraceID: "0af7651916cd43dd8448eb211c80319c", ParentID: "b7ad6b7169203331"}
	ctx := WithRemote(context.Background(), tc)
	got, ok := PropagationContext(ctx)
	if !ok || got != tc {
		t.Fatalf("PropagationContext = %+v, %v; want pass-through of %+v", got, ok, tc)
	}
	if id := TraceIDFrom(ctx); id != tc.TraceID {
		t.Fatalf("TraceIDFrom = %q", id)
	}
	if _, ok := PropagationContext(context.Background()); ok {
		t.Fatal("PropagationContext on a bare context reported a trace")
	}
}

func TestMergeTracesDeterministic(t *testing.T) {
	build := func() (*Trace, *Trace) {
		caller := New(fixed())
		ctx, span := StartSpan(WithTracer(context.Background(), caller), "push")
		h := http.Header{}
		out, _ := PropagationContext(ctx)
		h.Set(TraceparentHeader, out.Traceparent())
		callee := New(FixedClock{T: time.Unix(1800000000, 0)})
		tc, _ := Extract(h)
		sctx := WithRemote(WithTracer(context.Background(), callee), tc)
		sctx, srvSpan := StartSpan(sctx, "http:results")
		_, wal := StartSpan(sctx, "wal:commit")
		wal.End()
		srvSpan.End()
		span.End()
		return caller.Snapshot(), callee.Snapshot()
	}
	a1, a2 := build()
	b1, b2 := build()
	ja, err := MergeTraces(a1, a2).JSON()
	if err != nil {
		t.Fatal(err)
	}
	// Merge order of arguments must not matter beyond span sorting,
	// and two identical runs must merge byte-identically.
	jb, err := MergeTraces(b2, b1).JSON()
	if err != nil {
		t.Fatal(err)
	}
	if ja != jb {
		t.Fatalf("merged traces differ across runs:\n%s\nvs\n%s", ja, jb)
	}
	merged := MergeTraces(a1, a2)
	if len(merged.Spans) != 3 {
		t.Fatalf("merged trace has %d spans, want 3", len(merged.Spans))
	}
	for _, s := range merged.Spans {
		if s.TraceID != a1.Spans[0].TraceID {
			t.Fatalf("span %s not in the caller's trace: %q", s.ID, s.TraceID)
		}
	}
}
