package saqp

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// mdLink captures a markdown link's target: `](target)` with an
	// optional quoted title.
	mdLink = regexp.MustCompile(`\]\(([^)\s]+)(?:\s+"[^"]*")?\)`)
	// codeSpan captures one backticked span on a line.
	codeSpan = regexp.MustCompile("`([^`]+)`")
	// treeRef is a backticked reference into the tree: a package path
	// under internal/, cmd/ or examples/, optionally a file in it with a
	// :line[:col] position, or a package path with a .Func (exported
	// identifier) suffix.
	treeRef = regexp.MustCompile(`^(?:saqp/)?((?:internal|cmd|examples)(?:/[\w-]+(?:\.[a-z0-9]+)?)+)/?(?:\.[A-Z]\w*)?(?::\d+)*$`)
	// goRun captures a `go run` target path, backticked or in a fenced
	// block; package patterns ending in ... are not paths.
	goRun = regexp.MustCompile(`\bgo run (\./[\w./-]*[\w-])\b`)
)

// TestDocLinksResolve holds the prose to the tree: every relative link
// in README.md, DESIGN.md, EXPERIMENTS.md, ROADMAP.md and docs/*.md
// resolves to an existing path (URLs and #anchors aside), every
// backticked internal/…, cmd/… or examples/… reference names an
// existing package directory or file once a .Func suffix or :line
// position is stripped, and every `go run ./…` target exists.
// SNIPPETS.md quotes other repositories and is exempt.
func TestDocLinksResolve(t *testing.T) {
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	docs = append([]string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md"}, docs...)
	for _, doc := range docs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for n, line := range strings.Split(string(text), "\n") {
			for _, m := range mdLink.FindAllStringSubmatch(line, -1) {
				target, _, _ := strings.Cut(m[1], "#")
				if target == "" || strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
					continue
				}
				if _, err := os.Stat(filepath.Join(filepath.Dir(doc), target)); err != nil {
					t.Errorf("%s:%d: link target %q does not exist", doc, n+1, m[1])
				}
			}
			for _, m := range codeSpan.FindAllStringSubmatch(line, -1) {
				ref := treeRef.FindStringSubmatch(m[1])
				if ref == nil {
					continue
				}
				if _, err := os.Stat(ref[1]); err != nil {
					t.Errorf("%s:%d: `%s` names no package or file (%s)", doc, n+1, m[1], ref[1])
				}
			}
			for _, m := range goRun.FindAllStringSubmatch(line, -1) {
				if _, err := os.Stat(m[1]); err != nil {
					t.Errorf("%s:%d: `go run %s` names no package or file", doc, n+1, m[1])
				}
			}
		}
	}
}
