package analysis

import (
	"path/filepath"
	"testing"
)

// TestCloseCheckMessages pins the whole message for each kind of
// resource: the release's past participle spelled for its verb, and the
// call that releases it, which for a response is its body's Close.
func TestCloseCheckMessages(t *testing.T) {
	want := map[int]string{
		14: "closer f is not closed on every path to return; defer f.Close() (or transfer ownership) so no exit leaks it",
		27: "ticker t is not stopped on every path to return; defer t.Stop() (or transfer ownership) so no exit leaks it",
		40: "response body resp is not closed on every path to return; defer resp.Body.Close() (or transfer ownership) so no exit leaks it",
		50: "closer f is not closed on every path to return; defer f.Close() (or transfer ownership) so no exit leaks it",
		67: "timer t is not stopped on every path to return; defer t.Stop() (or transfer ownership) so no exit leaks it",
	}
	findings := runOnDir(t, CloseCheck, filepath.Join("testdata", "closecheck"))
	if len(findings) != len(want) {
		t.Errorf("%d findings, want %d: %v", len(findings), len(want), findings)
	}
	for _, f := range findings {
		if f.File != "bad.go" || f.Message != want[f.Line] {
			t.Errorf("%s:%d: %q\nwant %q", f.File, f.Line, f.Message, want[f.Line])
		}
	}
}
