package core

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/hpcsim"
)

// builtinSystems is the registry before any test provisions a cloud
// cluster into it.
var builtinSystems = hpcsim.Names()

// TestSuitesGolden pins every suite's ramble.yaml on every built-in
// system: testdata/suites.golden holds, per suite and system, the
// SHA-256 of the rendered text or the error that refuses the pair.
// Unlike effective.golden, which covers the nightly sessions only,
// this holds the system-dependent values of every suite (STREAM's
// thread count, OSU's and the GPU variants' ranks per node) on every
// system, and every GPU refusal's text.
func TestSuitesGolden(t *testing.T) {
	const path = "testdata/suites.golden"
	var got strings.Builder
	for _, suite := range ExperimentTemplates() {
		for _, name := range builtinSystems {
			_, text, err := lookupSuite(suite, name)
			if err != nil {
				fmt.Fprintf(&got, "%s %s refused: %v\n", suite, name, err)
				continue
			}
			fmt.Fprintf(&got, "%s %s sha256:%x\n", suite, name, sha256.Sum256([]byte(text)))
		}
	}
	checkGolden(t, path, got.String())
}

// checkGolden compares got with the golden file at path, or records it
// there and fails when the file does not exist yet.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s did not exist and has been recorded from this tree; review it and run again", path)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got != string(raw) {
		t.Errorf("%s differs from this tree:\n got:\n%s\nwant:\n%s", path, got, raw)
	}
}
