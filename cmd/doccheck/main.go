// Command doccheck keeps the markdown documentation honest. For each
// given file (default: README.md and docs/*.md) it checks two things that
// rot silently, and without arguments a third:
//
//   - Every fenced ```go code block must parse. Blocks that are not
//     complete files are wrapped in a synthetic package/function first, so
//     statement-level snippets (the quick-start style) are covered too.
//     Parsing only — snippets may reference identifiers without importing
//     them, but syntax errors (a renamed API pasted half-heartedly, a
//     dropped brace) fail the build.
//   - Every relative markdown link must resolve to an existing file.
//     External links (http/https/mailto) and pure fragments are skipped;
//     a fragment on a relative link is stripped before the check.
//   - Without arguments, every *.md path named in a comment of a Go file
//     under the current directory must exist, relative to the current
//     directory (the module root) or to the Go file's own directory.
//
// Exit status 0 when everything holds, 1 with one line per finding
// otherwise, 2 on usage errors. CI runs it in the lint job next to vet.
package main

import (
	"flag"
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: doccheck [file.md ...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	var findings []string
	files := flag.Args()
	if len(files) == 0 {
		files = append(files, "README.md")
		docs, err := filepath.Glob(filepath.Join("docs", "*.md"))
		if err == nil {
			files = append(files, docs...)
		}
		fs, err := checkGoComments(".")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		findings = append(findings, fs...)
	}

	for _, f := range files {
		fs, err := checkFile(f)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		findings = append(findings, fs...)
	}
	if len(findings) > 0 {
		for _, f := range findings {
			fmt.Fprintln(os.Stderr, f)
		}
		fmt.Fprintf(os.Stderr, "doccheck: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

func checkFile(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("doccheck: %v", err)
	}
	text := string(data)
	var findings []string
	for _, b := range goBlocks(text) {
		if err := parseSnippet(b.code); err != nil {
			findings = append(findings, fmt.Sprintf("%s:%d: go snippet does not parse: %v", path, b.line, err))
		}
	}
	for _, l := range relativeLinks(text) {
		target := filepath.Join(filepath.Dir(path), filepath.FromSlash(l.target))
		if _, err := os.Stat(target); err != nil {
			findings = append(findings, fmt.Sprintf("%s:%d: broken link %q (%s does not exist)", path, l.line, l.target, target))
		}
	}
	return findings, nil
}

// block is one fenced ```go code block with its starting line number.
type block struct {
	line int
	code string
}

// goBlocks extracts the fenced code blocks tagged go. Fences inside other
// fences do not occur in this repository's docs; the scan is a flat state
// machine over lines.
func goBlocks(text string) []block {
	var out []block
	var cur []string
	inGo, inOther := false, false
	start := 0
	for i, line := range strings.Split(text, "\n") {
		trimmed := strings.TrimSpace(line)
		switch {
		case inGo && strings.HasPrefix(trimmed, "```"):
			out = append(out, block{line: start, code: strings.Join(cur, "\n")})
			inGo, cur = false, nil
		case inOther && strings.HasPrefix(trimmed, "```"):
			inOther = false
		case inGo:
			cur = append(cur, line)
		case !inOther && trimmed == "```go":
			inGo, start = true, i+2 // first snippet line, 1-based
		case !inOther && strings.HasPrefix(trimmed, "```"):
			inOther = true
		}
	}
	return out
}

// parseSnippet accepts a snippet that is a complete file, a set of
// top-level declarations, or a statement list (tried in that order).
func parseSnippet(code string) error {
	candidates := []string{
		code,
		"package snippet\n" + code,
		"package snippet\nfunc _() {\n" + code + "\n}",
	}
	var firstErr error
	for _, src := range candidates {
		_, err := parser.ParseFile(token.NewFileSet(), "snippet.go", src, 0)
		if err == nil {
			return nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// link is one relative markdown link with its line number.
type link struct {
	line   int
	target string
}

// linkRe matches inline markdown links. Good enough for these docs: no
// nested brackets, no reference-style links.
var linkRe = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

func relativeLinks(text string) []link {
	var out []link
	inFence := false
	for i, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		for _, m := range linkRe.FindAllStringSubmatch(line, -1) {
			t := m[1]
			if strings.Contains(t, "://") || strings.HasPrefix(t, "mailto:") || strings.HasPrefix(t, "#") {
				continue
			}
			t, _, _ = strings.Cut(t, "#")
			if t == "" {
				continue
			}
			out = append(out, link{line: i + 1, target: t})
		}
	}
	return out
}

// checkGoComments walks the Go files under root (skipping hidden
// directories such as .git) and reports every *.md path named in a comment
// that exists neither under root nor beside the Go file.
func checkGoComments(root string) ([]string, error) {
	var findings []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("doccheck: %v", err)
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, name := range mdPaths(c.Text) {
					if exists(filepath.Join(root, name)) || exists(filepath.Join(filepath.Dir(path), name)) {
						continue
					}
					findings = append(findings, fmt.Sprintf("%s:%d: comment names %s, which does not exist",
						path, fset.Position(c.Slash).Line, name))
				}
			}
		}
		return nil
	})
	return findings, err
}

// mdPathRe matches a *.md file name, with any directory prefix, in free
// text. Globs (docs/*.md) and URLs match with their '*' or ':' and are
// dropped by mdPaths.
var mdPathRe = regexp.MustCompile(`[\w./*:-]*\w\.md\b`)

// mdPaths returns the *.md file paths named in a comment's text.
func mdPaths(text string) []string {
	var out []string
	for _, m := range mdPathRe.FindAllString(text, -1) {
		if !strings.ContainsAny(m, "*:") {
			out = append(out, m)
		}
	}
	return out
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
