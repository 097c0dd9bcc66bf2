package main

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestExperimentIndexAgrees keeps the two documents that list the
// experiments in step with the row table: every -exp name tags a heading
// of EXPERIMENTS.md and a line of DESIGN.md's per-experiment index.
func TestExperimentIndexAgrees(t *testing.T) {
	for _, doc := range []struct{ path, line string }{
		{"../../EXPERIMENTS.md", `(?m)^## .*\(%s[,)]`},
		{"../../DESIGN.md", `(?m)^\| [A-Z][0-9]+ \|.*%s`},
	} {
		data, err := os.ReadFile(doc.path)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			tag := regexp.QuoteMeta("`-exp " + r.name + "`")
			if !regexp.MustCompile(strings.Replace(doc.line, "%s", tag, 1)).Match(data) {
				t.Errorf("%s has no entry tagged `-exp %s`", doc.path, r.name)
			}
		}
	}
}
