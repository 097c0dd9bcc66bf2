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
	// internalRef is a backticked reference into the tree: a package
	// path, optionally a file in it with a :line[:col] position, or a
	// package path with a .Func (exported identifier) suffix.
	internalRef = regexp.MustCompile(`^(?:saqp/)?(internal(?:/[\w-]+(?:\.[a-z0-9]+)?)+)(?:\.[A-Z]\w*)?(?::\d+)*$`)
)

// TestDocLinksResolve holds the prose to the tree: every relative link
// in README.md, DESIGN.md, EXPERIMENTS.md, ROADMAP.md and docs/*.md
// resolves to an existing path (URLs and #anchors aside), and every
// backticked internal/… reference names an existing package directory
// or file once a .Func suffix or :line position is stripped. SNIPPETS.md
// quotes other repositories and is exempt.
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
				ref := internalRef.FindStringSubmatch(m[1])
				if ref == nil {
					continue
				}
				if _, err := os.Stat(ref[1]); err != nil {
					t.Errorf("%s:%d: `%s` names no package or file (%s)", doc, n+1, m[1], ref[1])
				}
			}
		}
	}
}
