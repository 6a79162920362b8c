package analysis

import (
	"fmt"
	"go/format"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
)

// The suggested-fix engine: analyzers attach machine-applicable edits
// to findings, and cmd/benchlint applies them (-fix). Applied output
// is run through go/format, so a fix is only accepted when the edited
// file still parses and gofmts — a botched edit fails loudly rather
// than corrupting source.

// TextEdit replaces the byte range [Start, End) of File with NewText.
// Offsets are 0-based byte offsets into the file as loaded; File is
// relative to the module root like Finding.File.
type TextEdit struct {
	File    string
	Start   int
	End     int
	NewText string
}

// Fix is one suggested repair for a finding: the edits that
// implement it. Edits within one Fix must not overlap.
type Fix struct {
	Edits []TextEdit
}

// ApplyFixes computes the post-fix content of every file any finding's
// fixes touch. Suppressed findings contribute nothing. When two fixes
// overlap, the one from the earlier finding (the slice is sorted by
// position) wins and the later one is dropped — applying the survivors
// and re-running converges because fixed findings stop being reported.
// Returns the new contents keyed by module-relative path and, aligned
// with findings, whether each finding's fixes were applied in full.
func ApplyFixes(modRoot string, findings []Finding) (map[string][]byte, []bool, error) {
	type plannedEdit struct {
		TextEdit
		finding int
	}
	planned := map[string][]plannedEdit{}
	applied := make([]bool, len(findings))
	for i, f := range findings {
		if f.Suppressed {
			continue
		}
		for _, fix := range f.Fixes {
			ok := true
			for _, e := range fix.Edits {
				for _, prev := range planned[e.File] {
					if e.Start < prev.End && prev.Start < e.End {
						ok = false
					}
				}
			}
			if !ok {
				continue
			}
			applied[i] = true
			for _, e := range fix.Edits {
				planned[e.File] = append(planned[e.File], plannedEdit{TextEdit: e, finding: i})
			}
		}
	}

	out := map[string][]byte{}
	for _, file := range slices.Sorted(maps.Keys(planned)) {
		path := file
		if modRoot != "" && !filepath.IsAbs(path) {
			path = filepath.Join(modRoot, file)
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, fmt.Errorf("analysis: applying fixes: %w", err)
		}
		edits := planned[file]
		sort.Slice(edits, func(i, j int) bool { return edits[i].Start > edits[j].Start })
		for _, e := range edits {
			if e.Start < 0 || e.End > len(src) || e.Start > e.End {
				return nil, nil, fmt.Errorf("analysis: fix edit out of range in %s: [%d,%d) of %d bytes", file, e.Start, e.End, len(src))
			}
			src = append(src[:e.Start], append([]byte(e.NewText), src[e.End:]...)...)
		}
		formatted, err := format.Source(src)
		if err != nil {
			return nil, nil, fmt.Errorf("analysis: fixed %s does not parse: %w", file, err)
		}
		out[file] = formatted
	}
	return out, applied, nil
}
