package analysis

import (
	"testing"
)

// BenchmarkSuiteModule measures what CI pays: a full fifteen-analyzer
// pass over this module — every package parsed, type-checked,
// fact-computed and analyzed.
func BenchmarkSuiteModule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := RunModule("../..", Suite())
		if err != nil {
			b.Fatal(err)
		}
		for _, f := range res.Findings {
			if !f.Suppressed {
				b.Fatalf("module has findings; benchmark expects a clean tree: %+v", f)
			}
		}
	}
}
