package main

import "testing"

func TestCodeLines(t *testing.T) {
	src := "// Package p is counted by its tokens only.\n" + // comment
		"package p\n" + // 1
		"\n" +
		"/* a block\n   comment */ var a = 1 // trailing\n" + // 2: the line the comment ends on holds tokens
		"var s = `one\n" + // 3
		"\n" + // 4: blank, but inside the literal
		"// not a comment\n" + // 5
		"three`\n" + // 6
		"func f() {\n" + // 7
		"\t// only a comment\n" +
		"}\n" // 8
	if got := codeLines([]byte(src)); got != 8 {
		t.Errorf("codeLines = %d, want 8", got)
	}
	if got := codeLines([]byte("// nothing but a comment\n\n")); got != 0 {
		t.Errorf("comment-only file counts %d lines", got)
	}
}
