// Command loc prints the code-line count simplicity PRs and ROADMAP
// exit criteria quote: per package and in total, the lines of
// non-test Go source that hold at least one token. Comments and blank
// lines do not count, a multi-line string literal counts every line it
// spans, and `_test.go` files and `testdata/` trees are skipped.
//
//	go run ./scripts/loc internal/core internal/engine cmd/benchpark
//
// Each argument is walked recursively (default: the current
// directory); every directory holding counted files is one row.
package main

import (
	"fmt"
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// codeLines counts the lines of src that hold part of a token.
func codeLines(src []byte) int {
	fset := token.NewFileSet()
	file := fset.AddFile("", fset.Base(), len(src))
	var s scanner.Scanner
	s.Init(file, src, nil, 0) // mode 0: comments are skipped, not returned
	lines := map[int]bool{}
	for {
		pos, tok, lit := s.Scan()
		if tok == token.EOF {
			break
		}
		if tok == token.SEMICOLON && lit == "\n" {
			continue // inserted by the scanner, not written in the file
		}
		first := file.Line(pos)
		for l := first; l <= first+strings.Count(lit, "\n"); l++ {
			lines[l] = true
		}
	}
	return len(lines)
}

func main() {
	roots := os.Args[1:]
	if len(roots) == 0 {
		roots = []string{"."}
	}
	perDir := map[string]int{}
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			name := d.Name()
			if d.IsDir() {
				if name == "testdata" || (strings.HasPrefix(name, ".") && path != root) {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				return nil
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			perDir[filepath.Dir(path)] += codeLines(src)
			return nil
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "loc:", err)
			os.Exit(1)
		}
	}
	dirs := make([]string, 0, len(perDir))
	for dir := range perDir {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	total := 0
	for _, dir := range dirs {
		fmt.Printf("%7d  %s\n", perDir[dir], dir)
		total += perDir[dir]
	}
	fmt.Printf("%7d  total\n", total)
}
