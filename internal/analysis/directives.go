package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Directive is one parsed //benchlint:ignore <analyzer> <reason>
// comment.
type Directive struct {
	Analyzer string // which analyzer is silenced
	Reason   string // mandatory justification
	File     string
	Line     int
	// Malformed carries a diagnostic for directives that do not parse
	// (e.g. an ignore without a reason, or an unknown directive); the
	// runner surfaces these as findings so a typo cannot silently
	// disable a check.
	Malformed string
}

// collectDirectives extracts every benchlint directive from a file's
// comments.
func collectDirectives(fset *token.FileSet, file *ast.File) []Directive {
	var out []Directive
	for _, group := range file.Comments {
		for _, c := range group.List {
			text, ok := strings.CutPrefix(c.Text, "//benchlint:")
			if !ok {
				continue
			}
			pos := fset.Position(c.Pos())
			d := Directive{File: pos.Filename, Line: pos.Line}
			fields := strings.Fields(text)
			switch {
			case len(fields) == 0:
				d.Malformed = "empty //benchlint: directive"
			case fields[0] == "ignore":
				if len(fields) < 3 {
					d.Malformed = "//benchlint:ignore needs an analyzer name and a reason"
					break
				}
				d.Analyzer = fields[1]
				d.Reason = strings.Join(fields[2:], " ")
			default:
				d.Malformed = "unknown //benchlint:" + fields[0] + " directive"
			}
			out = append(out, d)
		}
	}
	return out
}
