package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoCommentMarkdownPaths plants a Go file whose comments name one
// existing and one missing markdown file: only the missing one is a
// finding, and globs and URLs are not paths.
func TestGoCommentMarkdownPaths(t *testing.T) {
	root := t.TempDir()
	write := func(name, body string) {
		t.Helper()
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("docs/GUIDE.md", "# guide\n")
	write("pkg/NOTES.md", "# notes\n")
	write("pkg/a.go", `// Package a follows docs/GUIDE.md and NOTES.md, not docs/*.md or
// https://example.com/README.md; see DESIGN.md for the rest.
package a

const usage = "MISSING.md in a string is not a comment"
`)
	findings, err := checkGoComments(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || !strings.Contains(findings[0], "a.go:2: comment names DESIGN.md") {
		t.Fatalf("findings = %q, want exactly the missing DESIGN.md on line 2", findings)
	}
}
