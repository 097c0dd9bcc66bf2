package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestExperimentIndexAgrees keeps the two documents that list the
// experiments in step with the row table: every -exp name tags a heading
// of EXPERIMENTS.md and a line of DESIGN.md's per-experiment index. The
// index in turn may name only what exists: every backticked
// Benchmark…/Test…/Reproduce… is a func declared in the module (in the
// named package, when qualified; `ReproduceTable3/Fig6` names two), and
// every backticked examples/… or cmd/… is a directory.
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

	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	funcs := declaredFuncs(t, "../..")
	for _, line := range regexp.MustCompile(`(?m)^\| [A-Z][0-9]+ \|.*$`).FindAllString(string(design), -1) {
		for _, m := range regexp.MustCompile("`([^`]+)`").FindAllStringSubmatch(line, -1) {
			name := m[1]
			if strings.HasPrefix(name, "examples/") || strings.HasPrefix(name, "cmd/") {
				if st, err := os.Stat(filepath.Join("../..", name)); err != nil || !st.IsDir() {
					t.Errorf("DESIGN.md's index names %s, which is not a directory", name)
				}
				continue
			}
			pkg, fn := "", name
			if i := strings.LastIndex(name, "."); i >= 0 {
				pkg, fn = name[:i], name[i+1:]
			}
			if !regexp.MustCompile(`^(Benchmark|Test|Reproduce)`).MatchString(fn) {
				continue
			}
			for i, p := range strings.Split(fn, "/") {
				if i > 0 {
					p = "Reproduce" + p
				}
				if pkg != "" {
					p = pkg + "." + p
				}
				if !funcs[p] {
					t.Errorf("DESIGN.md's index names `%s`, but the module declares no func %s", name, p)
				}
			}
		}
	}
}

// declaredFuncs holds every top-level func the module's Go files declare
// (testdata fixtures aside), by name and by directory-qualified name
// (internal/predict.TestScaleOutPrediction).
func declaredFuncs(t *testing.T, root string) map[string]bool {
	t.Helper()
	decl := regexp.MustCompile(`(?m)^func ([A-Za-z_][A-Za-z0-9_]*)\(`)
	funcs := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		dir := strings.TrimPrefix(filepath.ToSlash(filepath.Dir(path)), root+"/")
		for _, m := range decl.FindAllSubmatch(src, -1) {
			funcs[string(m[1])], funcs[dir+"."+string(m[1])] = true, true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return funcs
}
